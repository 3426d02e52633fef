"""Smooth edge and angle embeddings built from distances and angles.

Edges get a 16-component radial basis (envelope-damped spherical sinc
waves); angle triples get a 42-component spherical basis combining radial
spherical Bessel functions with zonal spherical harmonics, 7 degrees times
6 radial orders.  Everything is cut off smoothly: the polynomial envelope
and both bases reach zero value at the cutoff with two continuous
derivatives.

The spherical Bessel functions, their positive roots and the Legendre
polynomials are computed here from recurrences and bisection; tests check
them against independent library oracles.  Both recurrences take an array
of degrees, so the spherical basis evaluates all 42 radial columns of an
edge in one upward Bessel recurrence (with an ascending series where the
argument is below the degree) and all 7 angular degrees of a triple in one
Legendre recurrence.  The Bessel recurrence takes each sine and cosine
once.

:func:`featurize` computes each value once.  The radial basis and the
radial part of the spherical basis depend on the edge length only, and an
edge and its reverse have the same length to the bit, so both are computed
once per undirected pair and gathered onto the directed edges and the
triples.  The one-hop triples list the same angles as the two-hop triples,
so the angles and the spherical basis are computed for the two-hop family
and the one-hop rows are a permutation of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import Molecule
from .graph import MultiplexGraph, enumerate_angle_triples, one_hop_rows, reverse_edges

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


def envelope(x, p: int = _ENVELOPE_P):
    """Polynomial cutoff: 1 at 0, reaching 0 at x = 1 with C2 smoothness.

    u(x) = 1 - (p+1)(p+2)/2 x^p + p(p+2) x^(p+1) - p(p+1)/2 x^(p+2) for
    x < 1, and exactly 0 beyond.
    """
    x = np.asarray(x, dtype=np.float64)
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


def spherical_jl(l, x) -> np.ndarray:
    """Spherical Bessel function of the first kind, j_l(x), for x >= 0.

    ``l`` is a degree or an integer array of degrees broadcast against
    ``x``, so one call evaluates several degrees; every element gets the
    value a call for its degree alone would give.
    """
    deg = np.asarray(l)
    if np.any(deg < 0):
        raise ValueError(f"degree must be non-negative, got {l}")
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


@lru_cache(maxsize=None)
def _root_table(n_l: int, n_per_l: int) -> np.ndarray:
    # Row l needs one more root than row l+1 because consecutive roots of
    # j_l bracket the roots of j_{l+1} (interlacing).
    k = np.arange(1, n_per_l + n_l, dtype=np.float64)
    row = _bisect_roots(0, (k - 0.5) * math.pi, (k + 0.5) * math.pi)
    rows = [row[:n_per_l]]
    for l in range(1, n_l):
        row = _bisect_roots(l, row[:-1], row[1:])
        rows.append(row[:n_per_l])
    table = np.array(rows)
    table.flags.writeable = False
    return table


def bessel_roots(n_l: int = N_SHBF, n_per_l: int = N_SRBF) -> np.ndarray:
    """First ``n_per_l`` positive roots of j_l for l = 0 .. n_l - 1.

    Found by bisection between sign changes, bracketed by the previous
    degree's roots.  The result is cached and read-only.
    """
    return _root_table(n_l, n_per_l)


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


def radial_basis(d, cutoff: float, n: int = N_RBF) -> np.ndarray:
    """Edge embedding rows: envelope-damped sinc waves, one per order.

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
    k = np.arange(1, n + 1, dtype=np.float64)
    out = (
        env[:, None]
        * math.sqrt(2.0 / c)
        * np.sin(np.pi * k[None, :] * x[:, None])
        / d[:, None]
    )
    return out


@lru_cache(maxsize=None)
def _sbf_norms(n_l: int, n_per_l: int) -> np.ndarray:
    # |j_{l+1}(z_{l,k})|, one row per degree l, read-only like the roots.
    degree = np.arange(1, n_l + 1)[:, None]
    norms = np.abs(spherical_jl(degree, _root_table(n_l, n_per_l)))
    norms.flags.writeable = False
    return norms


def spherical_basis(
    d, alpha, cutoff: float, n_l: int = N_SHBF, n_per_l: int = N_SRBF, *, edge=None
) -> np.ndarray:
    """Angle-triple embedding rows, ``n_l * n_per_l`` columns.

    Column l * n_per_l + (k - 1) combines the radial Bessel function of
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
    degree = np.repeat(np.arange(n_l), n_per_l)
    scale = math.sqrt(2.0 / c**3) / _sbf_norms(n_l, n_per_l).ravel()
    radial = spherical_jl(degree, x[:, None] * bessel_roots(n_l, n_per_l).ravel())
    radial = envelope(x)[:, None] * (radial * scale)
    y = zonal_harmonic(np.arange(n_l), alpha[:, None])
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


@dataclass
class GeometricFeatures:
    """Per-molecule geometry tensors the model consumes.

    Edge index arrays mirror the graph's directed edge lists; the triple
    index arrays point into the local edge list (which row feeds which).
    """

    n_nodes: int
    local_src: np.ndarray
    local_dst: np.ndarray
    global_src: np.ndarray
    global_dst: np.ndarray
    rbf_local: np.ndarray  # (E_l, 16)
    rbf_global: np.ndarray  # (E_g, 16)
    sbf_two: np.ndarray  # (T2, 42)
    sbf_one: np.ndarray  # (T1, 42)
    two_hop_edge: np.ndarray
    two_hop_target: np.ndarray
    one_hop_edge: np.ndarray
    one_hop_target: np.ndarray


def _edge_lengths(coords: np.ndarray, edges: np.ndarray) -> np.ndarray:
    if edges.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    delta = coords[edges[:, 0]] - coords[edges[:, 1]]
    return np.linalg.norm(delta, axis=1)


def _pair_lengths(coords: np.ndarray, edges: np.ndarray, reverse: np.ndarray):
    """Length of each undirected pair once, and each edge's row among them.

    An edge and its reverse have the same length to the bit (their
    difference vectors are exact negatives), so whatever is a function of
    the length is computed once per pair and gathered onto both edges.
    """
    first = np.arange(reverse.size) < reverse
    rank = np.cumsum(first) - 1
    return _edge_lengths(coords, edges[first]), np.where(first, rank, rank[reverse])


def featurize(m: Molecule, g: MultiplexGraph, local_cutoff: float) -> GeometricFeatures:
    """Distances, angles and basis embeddings for one molecule's graph.

    The local layer's radial and spherical embeddings use ``local_cutoff``
    as envelope scale, the global layer uses the graph's own cutoff.  Purely
    geometric: depends on inter-atom distances and angles only, never on
    absolute positions.  Lengths and both radial parts are computed once per
    undirected pair.  Angles and the spherical basis are computed for the
    two-hop triples only: every one-hop row is a two-hop row (the same
    triple), so ``sbf_one`` is ``sbf_two`` permuted, bit for bit.
    """
    triples = enumerate_angle_triples(g)
    coords = m.coords
    local_reverse = reverse_edges(g.local_edges, g.n_nodes)
    d_local, local_pair = _pair_lengths(coords, g.local_edges, local_reverse)
    d_global, global_pair = _pair_lengths(
        coords, g.global_edges, reverse_edges(g.global_edges, g.n_nodes)
    )
    rbf_local = radial_basis(d_local, local_cutoff)[local_pair]
    rbf_global = radial_basis(d_global, g.global_cutoff)[global_pair]
    t = triples.two_hop
    sbf_two = spherical_basis(
        d_local,
        angle_between(coords[t[:, 1]], coords[t[:, 0]], coords[t[:, 2]]),
        local_cutoff,
        edge=local_pair[triples.two_hop_edge],
    )
    sbf_one = sbf_two[one_hop_rows(triples, local_reverse)]

    return GeometricFeatures(
        n_nodes=m.n_atoms,
        local_src=g.local_edges[:, 0].copy(),
        local_dst=g.local_edges[:, 1].copy(),
        global_src=g.global_edges[:, 0].copy(),
        global_dst=g.global_edges[:, 1].copy(),
        rbf_local=rbf_local,
        rbf_global=rbf_global,
        sbf_two=sbf_two,
        sbf_one=sbf_one,
        two_hop_edge=triples.two_hop_edge,
        two_hop_target=triples.two_hop_target,
        one_hop_edge=triples.one_hop_edge,
        one_hop_target=triples.one_hop_target,
    )
