"""Smooth edge and angle embeddings built from distances and angles.

Edges get a 16-component radial basis (envelope-damped spherical sinc
waves); angle triples get a 42-component spherical basis combining radial
spherical Bessel functions with zonal spherical harmonics, 7 degrees times
6 radial orders.  Everything is cut off smoothly: the polynomial envelope
and both bases reach zero value at the cutoff with two continuous
derivatives.

The spherical Bessel functions, their positive roots and the Legendre
polynomials are computed here from recurrences and bisection; tests check
them against independent library oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import Molecule
from .graph import MultiplexGraph, enumerate_angle_triples

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


def _jl_upward(l: int, x: np.ndarray) -> np.ndarray:
    # Stable for x >= l.  j0 and j1 are closed-form.
    j_prev = np.sin(x) / x
    if l == 0:
        return j_prev
    j_cur = np.sin(x) / (x * x) - np.cos(x) / x
    for n in range(1, l):
        j_prev, j_cur = j_cur, (2 * n + 1) / x * j_cur - j_prev
    return j_cur


def _jl_series(l: int, x: np.ndarray) -> np.ndarray:
    # Ascending series; used only for x < l where upward recurrence loses
    # digits.  Terms alternate and decay fast once m exceeds x.
    term = x**l / _double_factorial(2 * l + 1)
    total = term.copy()
    x2 = x * x
    for m in range(1, 80):
        term = term * (-x2 / 2.0) / (m * (2 * l + 2 * m + 1))
        total += term
        if np.max(np.abs(term)) < 1e-18 * max(np.max(np.abs(total)), 1e-300):
            break
    return total


def spherical_jl(l: int, x) -> np.ndarray:
    """Spherical Bessel function of the first kind, j_l(x), for x >= 0."""
    if l < 0:
        raise ValueError(f"degree must be non-negative, got {l}")
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise ValueError("argument must be non-negative")
    out = np.zeros_like(arr)
    zero = arr == 0.0
    if l == 0:
        out[zero] = 1.0
    hi = ~zero & (arr >= l)
    lo = ~zero & ~hi
    if hi.any():
        out[hi] = _jl_upward(l, arr[hi])
    if lo.any():
        out[lo] = _jl_series(l, arr[lo])
    return float(out[0]) if scalar else out


def _bisect_root(l: int, a: float, b: float) -> float:
    fa = spherical_jl(l, a)
    fb = spherical_jl(l, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise RuntimeError(f"no sign change for j_{l} on [{a}, {b}]")
    while b - a > 1e-14 * b:
        mid = 0.5 * (a + b)
        fm = spherical_jl(l, mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


@lru_cache(maxsize=None)
def _root_rows(n_l: int, n_per_l: int) -> tuple[tuple[float, ...], ...]:
    # Row l needs one more root than row l+1 because consecutive roots of
    # j_l bracket the roots of j_{l+1} (interlacing).
    want = n_per_l + n_l - 1
    rows = [
        tuple(
            _bisect_root(0, (k - 0.5) * math.pi, (k + 0.5) * math.pi)
            for k in range(1, want + 1)
        )
    ]
    for l in range(1, n_l):
        prev = rows[l - 1]
        rows.append(
            tuple(
                _bisect_root(l, prev[k], prev[k + 1])
                for k in range(len(prev) - 1)
            )
        )
    return tuple(rows)


def bessel_roots(n_l: int = N_SHBF, n_per_l: int = N_SRBF) -> np.ndarray:
    """First ``n_per_l`` positive roots of j_l for l = 0 .. n_l - 1.

    Found by bisection between sign changes, bracketed by the previous
    degree's roots; results are cached.
    """
    rows = _root_rows(n_l, n_per_l)
    return np.array([row[:n_per_l] for row in rows], dtype=np.float64)


def legendre(l: int, x) -> np.ndarray:
    """Legendre polynomial P_l via the three-term recurrence."""
    x = np.asarray(x, dtype=np.float64)
    p_prev = np.ones_like(x)
    if l == 0:
        return p_prev
    p_cur = x.copy()
    for n in range(1, l):
        p_prev, p_cur = p_cur, ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1)
    return p_cur


def zonal_harmonic(l: int, alpha) -> np.ndarray:
    """Zonal (m = 0) spherical harmonic of the polar angle alpha."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return math.sqrt((2 * l + 1) / (4.0 * math.pi)) * legendre(l, np.cos(alpha))


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
def _sbf_norm_table(n_l: int, n_per_l: int) -> tuple[tuple[float, ...], ...]:
    roots = _root_rows(n_l, n_per_l)
    return tuple(
        tuple(abs(spherical_jl(l + 1, z)) for z in roots[l][:n_per_l])
        for l in range(n_l)
    )


def spherical_basis(
    d, alpha, cutoff: float, n_l: int = N_SHBF, n_per_l: int = N_SRBF
) -> np.ndarray:
    """Angle-triple embedding rows, ``n_l * n_per_l`` columns.

    Column l * n_per_l + (k - 1) combines the radial Bessel function of
    degree l at its k-th root, scaled into the cutoff, with the zonal
    harmonic of the angle:
    u(d/c) * sqrt(2 / (c^3 j_{l+1}(z_{l,k})^2)) * j_l(z_{l,k} d / c) * Y_l0(alpha).
    """
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if d.shape != alpha.shape:
        raise ValueError(f"shape mismatch: {d.shape} distances, {alpha.shape} angles")
    if np.any(d <= 0):
        raise ValueError("distances must be strictly positive")
    c = float(cutoff)
    x = d / c
    env = envelope(x)
    roots = bessel_roots(n_l, n_per_l)
    norms = _sbf_norm_table(n_l, n_per_l)
    out = np.empty((d.size, n_l * n_per_l), dtype=np.float64)
    scale = math.sqrt(2.0 / c**3)
    for l in range(n_l):
        y = zonal_harmonic(l, alpha)
        for k in range(n_per_l):
            radial = spherical_jl(l, roots[l, k] * x) * (scale / norms[l][k])
            out[:, l * n_per_l + k] = env * radial * y
    return out


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


def featurize(m: Molecule, g: MultiplexGraph, local_cutoff: float) -> GeometricFeatures:
    """Distances, angles and basis embeddings for one molecule's graph.

    The local layer's radial and spherical embeddings use ``local_cutoff``
    as envelope scale, the global layer uses the graph's own cutoff.  Purely
    geometric: depends on inter-atom distances and angles only, never on
    absolute positions.
    """
    triples = enumerate_angle_triples(g)
    coords = m.coords
    d_local = _edge_lengths(coords, g.local_edges)
    d_global = _edge_lengths(coords, g.global_edges)
    rbf_local = (
        radial_basis(d_local, local_cutoff)
        if d_local.size
        else np.empty((0, N_RBF), dtype=np.float64)
    )
    rbf_global = (
        radial_basis(d_global, g.global_cutoff)
        if d_global.size
        else np.empty((0, N_RBF), dtype=np.float64)
    )

    n_sbf = N_SHBF * N_SRBF
    if triples.two_hop.shape[0]:
        t = triples.two_hop
        ang2 = angle_between(coords[t[:, 1]], coords[t[:, 0]], coords[t[:, 2]])
        sbf_two = spherical_basis(d_local[triples.two_hop_edge], ang2, local_cutoff)
    else:
        sbf_two = np.empty((0, n_sbf), dtype=np.float64)
    if triples.one_hop.shape[0]:
        t = triples.one_hop
        ang1 = angle_between(coords[t[:, 1]], coords[t[:, 0]], coords[t[:, 2]])
        sbf_one = spherical_basis(d_local[triples.one_hop_edge], ang1, local_cutoff)
    else:
        sbf_one = np.empty((0, n_sbf), dtype=np.float64)

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
