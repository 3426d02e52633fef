"""Smooth edge and angle embeddings built from distances and angles.

Edges get a 16-component radial basis (envelope-damped spherical sinc
waves); angle triples get a 42-component spherical basis combining radial
spherical Bessel functions with zonal spherical harmonics, 7 degrees times
6 radial orders.  These sizes are the paper's and are module constants
(``N_RBF``, ``N_SHBF``, ``N_SRBF``, and the envelope exponent 6), not
parameters.  Everything is cut off smoothly: the polynomial envelope and
both bases reach zero value at the cutoff with two continuous derivatives.

The spherical Bessel functions, their positive roots and the Legendre
polynomials are computed here from recurrences and bisection; tests check
them against independent library oracles.  Both recurrences take an array
of degrees, so the spherical basis evaluates all 42 radial columns of an
edge in one upward Bessel recurrence (with an ascending series where the
argument is below the degree) and all 7 angular degrees of a triple in one
Legendre recurrence.  The Bessel recurrence takes each sine and cosine
once.

:func:`featurize` takes what one molecule's bases need and stores no basis
value: one length per undirected pair of each layer and one angle per
two-hop triple.  The features evaluate the basis matrices from them on
every read, and ``model.forward`` reads each once per call.  The radial
basis and the radial part of the spherical basis depend on the edge length
only, and an edge and its reverse have the same length to the bit, so both
are evaluated once per undirected pair and gathered onto the directed
edges and the triples.  The angle triples are one family, the two-hop
rows of ``graph.AngleTriples``, so the spherical basis has one row per
angle; ``sbf_one`` gathers those rows into one-hop order.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .data import Molecule
from .graph import MultiplexGraph, enumerate_angle_triples, one_hop_rows

__all__ = [
    "N_RBF",
    "N_SHBF",
    "N_SRBF",
    "envelope",
    "spherical_jl",
    "bessel_roots",
    "legendre",
    "zonal_harmonic",
    "radial_basis",
    "spherical_basis",
    "angle_between",
    "GeometricFeatures",
    "featurize",
]

N_RBF = 16  # radial components per edge
N_SHBF = 7  # spherical harmonic degrees, l = 0..6
N_SRBF = 6  # radial orders per degree

_ENVELOPE_P = 6


def envelope(x):
    """Polynomial cutoff: 1 at 0, reaching 0 at x = 1 with C2 smoothness.

    u(x) = 1 - (p+1)(p+2)/2 x^p + p(p+2) x^(p+1) - p(p+1)/2 x^(p+2) for
    x < 1, and exactly 0 beyond, with p = 6.
    """
    x = np.asarray(x, dtype=np.float64)
    p = _ENVELOPE_P
    a = (p + 1) * (p + 2) / 2.0
    b = p * (p + 2)
    c = p * (p + 1) / 2.0
    xp = x**p
    val = 1.0 - a * xp + b * xp * x - c * xp * x * x
    return np.where(x < 1.0, val, 0.0)


def _double_factorial(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def _jl_upward(l: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Stable for x >= l.  j0 and j1 are closed-form; one recurrence climbs
    # to the largest degree and each element keeps the value at its own.
    # ``l`` broadcasts against ``x``.  Elements below their degree, x = 0
    # among them, may overflow here; the caller replaces their values and
    # silences the warnings.  So it does for a degree-0 element where x * x
    # underflows: its j1 and above are never read.
    sin = np.sin(x)
    j_prev = sin / x
    j_cur = sin / (x * x) - np.cos(x) / x
    out = np.where(l == 0, j_prev, j_cur)
    for n in range(1, int(l.max())):
        j_prev, j_cur = j_cur, (2 * n + 1) / x * j_cur - j_prev
        out = np.where(l == n + 1, j_cur, out)
    return out


_SERIES_TEST_EVERY = 4


def _jl_series(l: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Ascending series; used only for x < l where upward recurrence loses
    # digits.  Terms alternate and decay fast once m exceeds x.  The loop
    # runs until every element's own term is below 1e-18 of its own total;
    # from there on its terms only shrink and each is under half an ulp of
    # the total, so later passes leave it unchanged and no element's value
    # depends on the others.  For the same reason the test runs only every
    # few passes: the passes it lets through add nothing.
    # The first term takes x ** d per degree with a Python int d: numpy
    # squares for d = 2, while an array of exponents calls pow(x, 2.0),
    # which differs in the last bit for about 5% of x.
    term = np.empty_like(x)
    for d in np.unique(l):
        at = l == d
        term[at] = x[at] ** int(d) / _double_factorial(2 * int(d) + 1)
    total = term.copy()
    step = -(x * x) / 2.0
    passes = np.arange(1, 80)[:, None]
    divisor = passes * (2 * l + 1 + 2 * passes)
    for m in range(1, 80):
        term = term * step / divisor[m - 1]
        total += term
        if m % _SERIES_TEST_EVERY == 0 and (
            np.abs(term) < 1e-18 * np.maximum(np.abs(total), 1e-300)
        ).all():
            break
    return total


# The highest degree spherical_jl accepts.  Below its degree the ascending
# series cancels: against mpmath its worst relative error is 2.8e-13 at
# degree 20, 2.3e-11 at 30 and 2.5e-4 at 60.  The model reads degrees up to
# N_SHBF (the norms of its top degree).
_MAX_DEGREE = 20


def spherical_jl(l, x) -> np.ndarray:
    """Spherical Bessel function of the first kind, j_l(x), for x >= 0.

    ``l`` is a degree or an integer array of degrees broadcast against
    ``x``, so one call evaluates several degrees; every element gets the
    value a call for its degree alone would give.  Degrees above 20, where
    the series loses accuracy, raise ``ValueError``.
    """
    deg = np.asarray(l)
    if np.any(deg < 0):
        raise ValueError(f"degree must be non-negative, got {l}")
    if np.any(deg > _MAX_DEGREE):
        raise ValueError(f"degree must be at most {_MAX_DEGREE}, got {int(deg.max())}")
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0 and deg.ndim == 0
    if np.any(arr < 0):
        raise ValueError("argument must be non-negative")
    deg, arr = np.atleast_1d(deg), np.atleast_1d(arr)
    # Every element takes the upward recurrence; those below their degree,
    # x = 0 included, then take the series instead, which is exactly 0 at
    # x = 0.  j_0(0) = 1 is the one limit set by hand.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _jl_upward(deg, arr)
    lo = arr < deg
    if lo.any():
        deg_lo = np.broadcast_to(deg, lo.shape)[lo]
        out[lo] = _jl_series(deg_lo, np.broadcast_to(arr, lo.shape)[lo])
    out[(arr == 0.0) & (deg == 0)] = 1.0
    return float(out[0]) if scalar else out


def _bisect_roots(l: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Bisects every bracket [a_k, b_k] at once; each halves until
    # b - a <= 1e-14 b and then stays put, as it would alone.
    fa = spherical_jl(l, a)
    same = ~(fa * spherical_jl(l, b) < 0)
    if same.any():
        k = int(np.argmax(same))
        raise RuntimeError(f"no sign change for j_{l} on [{a[k]}, {b[k]}]")
    live = b - a > 1e-14 * b
    while live.any():
        mid = 0.5 * (a + b)
        fm = spherical_jl(l, mid)
        left = fa * fm < 0
        b = np.where(live & (left | (fm == 0.0)), mid, b)
        a = np.where(live & ~left, mid, a)
        fa = np.where(live & ~left, fm, fa)
        live = b - a > 1e-14 * b
    return 0.5 * (a + b)


@cache
def _root_table() -> np.ndarray:
    # Row l needs one more root than row l+1 because consecutive roots of
    # j_l bracket the roots of j_{l+1} (interlacing).
    k = np.arange(1, N_SRBF + N_SHBF, dtype=np.float64)
    row = _bisect_roots(0, (k - 0.5) * math.pi, (k + 0.5) * math.pi)
    rows = [row[:N_SRBF]]
    for l in range(1, N_SHBF):
        row = _bisect_roots(l, row[:-1], row[1:])
        rows.append(row[:N_SRBF])
    table = np.array(rows)
    table.flags.writeable = False
    return table


def bessel_roots() -> np.ndarray:
    """First ``N_SRBF`` positive roots of j_l for l = 0 .. N_SHBF - 1.

    Found by bisection between sign changes, bracketed by the previous
    degree's roots.  The result is cached and read-only.
    """
    return _root_table()


def legendre(l, x) -> np.ndarray:
    """Legendre polynomial P_l via the three-term recurrence.

    ``l`` is a degree or an integer array of degrees broadcast against
    ``x``; one recurrence serves every degree.
    """
    deg = np.asarray(l)
    x = np.asarray(x, dtype=np.float64)
    p_prev, p_cur = np.ones_like(x), x
    out = np.where(deg == 0, p_prev, p_cur)
    for n in range(1, int(deg.max())):
        p_prev, p_cur = p_cur, ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1)
        out = np.where(deg == n + 1, p_cur, out)
    return out


def zonal_harmonic(l, alpha) -> np.ndarray:
    """Zonal (m = 0) spherical harmonic of the polar angle alpha.

    ``l`` broadcasts against ``alpha`` as in :func:`legendre`.
    """
    deg = np.asarray(l)
    alpha = np.asarray(alpha, dtype=np.float64)
    return np.sqrt((2 * deg + 1) / (4.0 * math.pi)) * legendre(deg, np.cos(alpha))


def radial_basis(d, cutoff: float) -> np.ndarray:
    """Edge embedding rows: envelope-damped sinc waves, ``N_RBF`` orders.

    Component k (1-based) at distance d is
    u(d/c) * sqrt(2/c) * sin(k pi d / c) / d.  Rows at or beyond the cutoff
    are exactly zero.  Distances must be strictly positive.
    """
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    if np.any(d <= 0):
        raise ValueError("distances must be strictly positive")
    c = float(cutoff)
    x = d / c
    env = envelope(x)
    k = np.arange(1, N_RBF + 1, dtype=np.float64)
    out = (
        env[:, None]
        * math.sqrt(2.0 / c)
        * np.sin(np.pi * k[None, :] * x[:, None])
        / d[:, None]
    )
    return out


@cache
def _sbf_norms() -> np.ndarray:
    # |j_{l+1}(z_{l,k})|, one row per degree l, read-only like the roots.
    degree = np.arange(1, N_SHBF + 1)[:, None]
    norms = np.abs(spherical_jl(degree, _root_table()))
    norms.flags.writeable = False
    return norms


def spherical_basis(d, alpha, cutoff: float, *, edge=None) -> np.ndarray:
    """Angle-triple embedding rows, ``N_SHBF * N_SRBF`` columns.

    Column l * N_SRBF + (k - 1) combines the radial Bessel function of
    degree l at its k-th root, scaled into the cutoff, with the zonal
    harmonic of the angle:
    u(d/c) * sqrt(2 / (c^3 j_{l+1}(z_{l,k})^2)) * j_l(z_{l,k} d / c) * Y_l0(alpha).

    ``d`` holds edge lengths and triple t sits on edge ``edge[t]``; without
    ``edge``, triple t sits on edge t.  The radial part is computed once
    per edge, all columns in one recurrence, and gathered per triple; the
    angular part is one Legendre recurrence over all degrees per triple.
    """
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    edge = np.arange(d.size) if edge is None else np.asarray(edge)
    if edge.shape != alpha.shape:
        raise ValueError(f"shape mismatch: {edge.shape} edges, {alpha.shape} angles")
    if np.any(d <= 0):
        raise ValueError("distances must be strictly positive")
    c = float(cutoff)
    x = d / c
    degree = np.repeat(np.arange(N_SHBF), N_SRBF)
    scale = math.sqrt(2.0 / c**3) / _sbf_norms().ravel()
    radial = spherical_jl(degree, x[:, None] * bessel_roots().ravel())
    radial = envelope(x)[:, None] * (radial * scale)
    y = zonal_harmonic(np.arange(N_SHBF), alpha[:, None])
    return radial[edge] * y[:, degree]


def angle_between(origin, a, b) -> np.ndarray:
    """Angles at ``origin`` between rays to ``a`` and to ``b``, in [0, pi].

    All three arguments are (n, 3) arrays of positions.  Raises if a ray
    has zero length (coincident points define no angle).
    """
    origin = np.atleast_2d(np.asarray(origin, dtype=np.float64))
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    u = a - origin
    v = b - origin
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    if np.any(nu == 0) or np.any(nv == 0):
        raise ValueError("coincident points define no angle")
    cosang = np.einsum("ij,ij->i", u, v) / (nu * nv)
    return np.arccos(np.clip(cosang, -1.0, 1.0))


class GeometricFeatures:
    """Per-molecule geometry the model consumes.

    The edge index arrays are column views of the graph's directed edge
    lists, not copies; the triple index arrays point into the local edge
    list (which row feeds which).
    No basis value is stored.  The features hold one length per undirected
    pair of each layer, one angle per two-hop triple and the two cutoffs,
    and the four basis matrices are evaluated from them on every read.
    ``local_pair`` and ``global_pair`` give each directed edge's pair row:
    the radial rows are taken once per pair, then gathered, and the
    spherical rows once per triple.
    """

    def __init__(self, g, triples, local_pair, global_pair, d_local, d_global, angles, cutoffs):
        self.n_nodes = g.n_nodes
        self.local_src, self.local_dst = g.local_edges.T
        self.global_src, self.global_dst = g.global_edges.T
        self.two_hop_edge = triples.two_hop_edge
        self.two_hop_target = triples.two_hop_target
        self.reverse_target = triples.reverse_target
        self.local_pair = local_pair
        self.global_pair = global_pair
        self.d_local = d_local
        self.d_global = d_global
        self.angles = angles
        self.local_cutoff, self.global_cutoff = map(float, cutoffs)

    @property
    def rbf_local(self) -> np.ndarray:
        """(E_l, 16) radial rows of the local edges."""
        return radial_basis(self.d_local, self.local_cutoff)[self.local_pair]

    @property
    def rbf_global(self) -> np.ndarray:
        """(E_g, 16) radial rows of the global edges."""
        return radial_basis(self.d_global, self.global_cutoff)[self.global_pair]

    @property
    def sbf_two(self) -> np.ndarray:
        """(T2, 42) spherical rows of the two-hop triples."""
        edge = self.local_pair[self.two_hop_edge]
        return spherical_basis(self.d_local, self.angles, self.local_cutoff, edge=edge)

    @property
    def sbf_one(self) -> np.ndarray:
        """(T1, 42) spherical rows of the one-hop triples, in one-hop order."""
        return self.sbf_two[one_hop_rows(self)]


def _pair_lengths(coords: np.ndarray, edges: np.ndarray, reverse: np.ndarray):
    """Length of each undirected pair once, and each edge's row among them.

    An edge and its reverse have the same length to the bit (their
    difference vectors are exact negatives), so whatever is a function of
    the length is computed once per pair and gathered onto both edges.
    """
    first = np.arange(reverse.size) < reverse
    rank = np.cumsum(first) - 1
    pairs = edges[first]
    d = np.linalg.norm(coords[pairs[:, 0]] - coords[pairs[:, 1]], axis=1)
    if np.any(d <= 0):
        raise ValueError("distances must be strictly positive")
    return d, np.where(first, rank, rank[reverse])


def featurize(
    m: Molecule, g: MultiplexGraph, local_cutoff: float, global_cutoff: float
) -> GeometricFeatures:
    """Index arrays, pair lengths and angles for one molecule's graph.

    The local layer's radial and spherical embeddings use ``local_cutoff``
    as envelope scale, the global layer ``global_cutoff``.  Purely
    geometric: depends on inter-atom distances and angles only, never on
    absolute positions.  This takes each undirected pair's length once,
    enumerates the angle triples and takes each two-hop triple's angle; the
    features evaluate the bases from them.  A pair at distance zero raises
    ``ValueError`` here, where the molecule is known.
    """
    triples = enumerate_angle_triples(g)
    coords = m.coords
    d_local, local_pair = _pair_lengths(coords, g.local_edges, g.local_reverse)
    d_global, global_pair = _pair_lengths(coords, g.global_edges, g.global_reverse)
    t = triples.two_hop
    angles = angle_between(coords[t[:, 1]], coords[t[:, 0]], coords[t[:, 2]])
    cutoffs = (local_cutoff, global_cutoff)
    return GeometricFeatures(
        g, triples, local_pair, global_pair, d_local, d_global, angles, cutoffs
    )
