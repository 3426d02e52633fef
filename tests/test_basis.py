"""Basis function checks against scipy and mpmath reference evaluations."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from mxmnet import fixtures
from mxmnet.basis import (
    N_RBF,
    N_SHBF,
    N_SRBF,
    angle_between,
    bessel_roots,
    envelope,
    featurize,
    legendre,
    radial_basis,
    spherical_basis,
    spherical_jl,
    zonal_harmonic,
)
from mxmnet.data import Molecule
from mxmnet.graph import build_multiplex, enumerate_angle_triples, one_hop_rows, reverse_edges
from mxmnet.model import ModelConfig, prepare_inputs

mpmath.mp.dps = 50


def _mp_jl(l, x):
    if x == 0:
        return 1.0 if l == 0 else 0.0
    x = mpmath.mpf(x)
    return float(mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(l + mpmath.mpf(1) / 2, x))


def test_envelope_endpoints_and_midpoint():
    assert envelope(np.array([0.0]))[0] == 1.0
    assert envelope(np.array([1.0]))[0] == 0.0
    assert envelope(np.array([1.7]))[0] == 0.0
    # exact rational value of the degree-8 polynomial at one half
    assert envelope(np.array([0.5]))[0] == 219.0 / 256.0


def test_envelope_is_smooth_at_the_cutoff():
    # value, slope and curvature all vanish at x = 1, so the left limit
    # approaches zero cubically
    h = np.array([1e-2, 1e-3, 1e-4])
    vals = envelope(1.0 - h)
    assert np.all(vals < 60.0 * h**3)
    # slope against the closed form -168 x^5 (1-x)^2
    x = np.linspace(0.05, 0.999, 40)
    step = 1e-6
    fd = (envelope(x + step) - envelope(x - step)) / (2 * step)
    want = -168.0 * x**5 * (1.0 - x) ** 2
    assert np.max(np.abs(fd - want)) < 1e-6


def test_spherical_jl_matches_scipy():
    rng = np.random.default_rng(40)
    x = rng.uniform(1e-4, 60.0, size=300)
    for l in range(N_SHBF + 1):
        want = special.spherical_jn(l, x)
        got = spherical_jl(l, x)
        assert np.max(np.abs(got - want)) < 1e-13


def test_spherical_jl_small_argument_branch():
    # tiny arguments exercise the ascending series path
    for l in range(1, N_SHBF + 1):
        x = np.linspace(1e-8, max(l - 0.5, 0.5), 50)
        want = special.spherical_jn(l, x)
        got = spherical_jl(l, x)
        assert np.max(np.abs(got - want)) < 1e-15


def test_spherical_jl_spot_value_high_precision():
    got = float(spherical_jl(3, np.array([2.5]))[0])
    assert abs(got - _mp_jl(3, 2.5)) < 1e-15


def test_bessel_roots_are_roots():
    roots = bessel_roots()
    assert roots.shape == (N_SHBF, N_SRBF)
    for l in range(N_SHBF):
        resid = np.abs(special.spherical_jn(l, roots[l]))
        assert np.max(resid) < 1e-10


def test_bessel_roots_interlace():
    roots = bessel_roots()
    for l in range(N_SHBF - 1):
        for k in range(N_SRBF):
            assert roots[l, k] < roots[l + 1, k]
            if k + 1 < N_SRBF:
                assert roots[l + 1, k] < roots[l, k + 1]
    # degree zero roots are the positive multiples of pi
    want = np.arange(1, N_SRBF + 1) * np.pi
    assert np.max(np.abs(roots[0] - want)) < 1e-12


def test_legendre_matches_scipy():
    rng = np.random.default_rng(41)
    x = rng.uniform(-1.0, 1.0, size=100)
    for l in range(N_SHBF):
        got = legendre(l, x)
        want = special.eval_legendre(l, x)
        assert np.max(np.abs(got - want)) < 1e-13


def test_zonal_harmonic_normalization():
    alpha = np.array([0.3])
    assert abs(zonal_harmonic(0, alpha)[0] - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-15
    for l in range(N_SHBF):
        at_zero = zonal_harmonic(l, np.array([0.0]))[0]
        assert abs(at_zero - math.sqrt((2 * l + 1) / (4 * math.pi))) < 1e-14


def test_radial_basis_shape_and_cutoff():
    d = np.array([0.5, 2.0, 5.0, 6.5])
    out = radial_basis(d, 5.0)
    assert out.shape == (4, N_RBF)
    assert np.array_equal(out[2], np.zeros(N_RBF))  # exactly at the cutoff
    assert np.array_equal(out[3], np.zeros(N_RBF))  # beyond it
    assert np.all(np.abs(out[0]) > 0)


def test_radial_basis_sine_node():
    # component 2 vanishes at half the cutoff
    out = radial_basis(np.array([2.5]), 5.0)
    assert abs(out[0, 1]) < 1e-15


def test_radial_basis_spot_value():
    c = mpmath.mpf(5)
    d = mpmath.mpf("1.5")
    x = d / c
    u = 1 - 28 * x**6 + 48 * x**7 - 21 * x**8
    want = float(u * mpmath.sqrt(2 / c) * mpmath.sin(mpmath.pi * d / c) / d)
    got = radial_basis(np.array([1.5]), 5.0)[0, 0]
    assert abs(got - want) < 1e-15


def test_radial_basis_rejects_nonpositive_distances():
    with pytest.raises(ValueError):
        radial_basis(np.array([0.0]), 5.0)
    with pytest.raises(ValueError):
        radial_basis(np.array([-1.0]), 5.0)


def test_radial_basis_continuous_at_cutoff():
    d = np.array([5.0 - 1e-7])
    assert np.max(np.abs(radial_basis(d, 5.0))) < 1e-6


def test_spherical_basis_degree_zero_reduction():
    # the degree-0 columns collapse to the radial rows over 2 sqrt(pi),
    # independent of the angle
    rng = np.random.default_rng(42)
    d = rng.uniform(0.3, 4.5, size=20)
    alpha = rng.uniform(0.0, np.pi, size=20)
    sbf = spherical_basis(d, alpha, 5.0)
    rbf = radial_basis(d, 5.0)
    want = rbf[:, :N_SRBF] / (2.0 * math.sqrt(math.pi))
    assert np.max(np.abs(sbf[:, :N_SRBF] - want)) < 1e-10


def test_spherical_basis_spot_values():
    c = 5.0
    d = 2.0
    alpha = 1.0
    row = spherical_basis(np.array([d]), np.array([alpha]), c)[0]
    for l, k in [(1, 1), (3, 2)]:
        z = mpmath.besseljzero(l + mpmath.mpf(1) / 2, k)
        x = mpmath.mpf(d) / c
        u = 1 - 28 * x**6 + 48 * x**7 - 21 * x**8
        jl = mpmath.sqrt(mpmath.pi / (2 * z * x)) * mpmath.besselj(l + mpmath.mpf(1) / 2, z * x)
        jl1 = mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(l + mpmath.mpf(3) / 2, z)
        norm = mpmath.sqrt(2 / (mpmath.mpf(c) ** 3 * jl1**2))
        y = mpmath.sqrt((2 * l + 1) / (4 * mpmath.pi)) * mpmath.legendre(l, mpmath.cos(alpha))
        want = float(u * norm * jl * y)
        got = row[l * N_SRBF + (k - 1)]
        assert abs(got - want) < 1e-12, (l, k)


def test_spherical_basis_vanishes_at_cutoff():
    row = spherical_basis(np.array([5.0]), np.array([1.2]), 5.0)
    assert np.array_equal(row, np.zeros((1, N_SHBF * N_SRBF)))


def test_spherical_basis_shape_checks():
    with pytest.raises(ValueError):
        spherical_basis(np.array([1.0, 2.0]), np.array([0.5]), 5.0)
    with pytest.raises(ValueError):
        spherical_basis(np.array([0.0]), np.array([0.5]), 5.0)


def test_spherical_basis_rows_are_batch_independent():
    c = 5.0
    roots = bessel_roots()
    rng = np.random.default_rng(46)
    d = rng.uniform(0.2, 4.9, size=30)
    alpha = rng.uniform(0.0, np.pi, size=30)
    # companions whose arguments z_lk d / c sit near 0 and just under and
    # just over the degree, where j_l switches between its two methods
    near = [c * l / roots[l, 0] * f for l in range(1, N_SHBF) for f in (1 - 1e-12, 1 + 1e-12)]
    edge_d = np.array([1e-9] + near)
    edge_alpha = np.linspace(0.0, np.pi, edge_d.size)
    all_d = np.concatenate([edge_d, d])
    all_alpha = np.concatenate([edge_alpha, alpha])
    alone = np.concatenate(
        [spherical_basis(all_d[i : i + 1], all_alpha[i : i + 1], c) for i in range(all_d.size)]
    )
    perm = rng.permutation(d.size)
    shuffled = spherical_basis(d[perm], alpha[perm], c)
    assert alone[edge_d.size :].tobytes() == shuffled[np.argsort(perm)].tobytes()
    assert alone.tobytes() == spherical_basis(all_d, all_alpha, c).tobytes()

    # multi-degree calls equal the per-degree calls, element by element
    x = np.concatenate([[0.0, 1e-8], rng.uniform(0.0, 30.0, 40)])
    x = np.concatenate([x] + [[l * (1 - 1e-12), l, l * (1 + 1e-12)] for l in range(1, N_SHBF + 1)])
    degrees = np.arange(N_SHBF + 1)
    table = spherical_jl(degrees[:, None], x[None, :])
    for l in degrees:
        assert table[l].tobytes() == spherical_jl(int(l), x).tobytes()
        assert all(table[l, i] == spherical_jl(int(l), x[i]) for i in range(x.size))
    # a small, slowly converging series value beside a large, fast one
    # still stops on its own terms
    assert spherical_jl(np.array([1, 20]), np.array([0.9, 10.0]))[1] == spherical_jl(20, 10.0)
    cos = np.cos(rng.uniform(0.0, np.pi, 50))
    ptable = legendre(degrees, cos[:, None])
    for l in degrees:
        assert ptable[:, l].tobytes() == legendre(int(l), cos).tobytes()


def test_angle_between_basics():
    third = np.array([[0.5, math.sqrt(3) / 2, 0.0]])
    got = angle_between(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]]), third)
    assert abs(got[0] - math.pi / 3.0) < 1e-12
    collinear = angle_between(
        np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]]), np.array([[-2.0, 0.0, 0.0]])
    )
    assert collinear[0] == math.pi


def test_angle_between_is_symmetric():
    rng = np.random.default_rng(43)
    o = rng.standard_normal((10, 3))
    a = o + rng.standard_normal((10, 3))
    b = o + rng.standard_normal((10, 3))
    assert np.max(np.abs(angle_between(o, a, b) - angle_between(o, b, a))) < 1e-15


def test_angle_between_water():
    w = fixtures.water()
    got = angle_between(w.coords[:1], w.coords[1:2], w.coords[2:3])[0]
    assert abs(got - math.radians(104.52)) < 1e-9


def test_angle_between_rejects_coincident_points():
    p = np.zeros((1, 3))
    with pytest.raises(ValueError):
        angle_between(p, p, np.array([[1.0, 0.0, 0.0]]))


def test_geometry_is_rigid_motion_invariant():
    rng = np.random.default_rng(44)
    for trial in range(10):
        o = rng.standard_normal((6, 3))
        a = o + rng.standard_normal((6, 3))
        b = o + rng.standard_normal((6, 3))
        rot = fixtures.random_rotation(rng)
        shift = rng.standard_normal(3) * 4.0
        before = angle_between(o, a, b)
        after = angle_between(o @ rot.T + shift, a @ rot.T + shift, b @ rot.T + shift)
        assert np.max(np.abs(before - after)) < 1e-9


def test_featurize_is_rigid_motion_invariant():
    rng = np.random.default_rng(45)
    m = fixtures.methane()
    g = build_multiplex(m, global_cutoff=5.0)
    base = featurize(m, g, 2.0)
    for trial in range(5):
        rot = fixtures.random_rotation(rng)
        shift = rng.standard_normal(3) * 7.0
        moved = fixtures.rigid_transform(m, rot, shift)
        f2 = featurize(moved, build_multiplex(moved, global_cutoff=5.0), 2.0)
        assert np.max(np.abs(f2.rbf_local - base.rbf_local)) < 1e-9
        assert np.max(np.abs(f2.rbf_global - base.rbf_global)) < 1e-9
        assert np.max(np.abs(f2.sbf_two - base.sbf_two)) < 1e-9
        assert np.max(np.abs(f2.sbf_one - base.sbf_one)) < 1e-9


def test_featurize_single_atom_is_empty():
    m = Molecule([6], [[0.0, 0.0, 0.0]])
    g = build_multiplex(m, global_cutoff=5.0)
    f = featurize(m, g, 2.0)
    assert f.rbf_local.shape == (0, N_RBF)
    assert f.rbf_global.shape == (0, N_RBF)
    assert f.sbf_two.shape == (0, N_SHBF * N_SRBF)
    assert f.sbf_one.shape == (0, N_SHBF * N_SRBF)


def test_one_hop_rows_are_two_hop_rows_bit_for_bit():
    # One-hop triple (jp -> i, j -> i) lists the same angle as two-hop
    # triple (jp -> i, i -> j): at i between jp and j, radial part on
    # jp -> i.  The row map is rebuilt here by dict lookup.
    rng = np.random.default_rng(53)
    mols = fixtures.fixture_set() + [fixtures.dihydrogen(), Molecule([6], [[0.0, 0.0, 0.0]])]
    mols += [fixtures.random_molecule(rng) for _ in range(12)]
    mapped = 0
    for rule in ("bonds", "cutoff"):
        cfg = ModelConfig(local_rule=rule)
        for m in mols:
            g, f = prepare_inputs(m, cfg)
            edges = [tuple(e) for e in g.local_edges.tolist()]
            edge_id = {e: k for k, e in enumerate(edges)}
            pairs = zip(f.two_hop_edge.tolist(), f.two_hop_target.tolist())
            two_hop_row = {pair: row for row, pair in enumerate(pairs)}
            perm = []
            for e, t in zip(f.one_hop_edge.tolist(), f.one_hop_target.tolist()):
                j, i = edges[t]
                perm.append(two_hop_row[(e, edge_id[(i, j)])])
            assert sorted(perm) == list(range(len(two_hop_row)))
            perm = np.array(perm, dtype=np.int64)
            reverse = reverse_edges(g.local_edges, g.n_nodes)
            assert np.array_equal(one_hop_rows(enumerate_angle_triples(g), reverse), perm)
            assert f.sbf_one.shape == (perm.size, N_SHBF * N_SRBF)
            assert f.sbf_one.tobytes() == f.sbf_two[perm].tobytes(), (rule, m.key)
            mapped += perm.size
    assert mapped > 1000


def _per_triple_sbf(d, alpha, c):
    # The per-column loop the vectorized basis replaced: each column's
    # radial factor evaluated on the per-triple distances.
    x = d / c
    env = envelope(x)
    roots = bessel_roots()
    out = np.empty((d.size, N_SHBF * N_SRBF))
    scale = math.sqrt(2.0 / c**3)
    for l in range(N_SHBF):
        y = zonal_harmonic(l, alpha)
        for k in range(N_SRBF):
            norm = abs(spherical_jl(l + 1, roots[l, k]))
            radial = spherical_jl(l, roots[l, k] * x) * (scale / norm)
            out[:, l * N_SRBF + k] = env * radial * y
    return out


def test_featurize_matches_per_triple_reference():
    rng = np.random.default_rng(47)
    mols = fixtures.fixture_set() + [fixtures.dihydrogen(), Molecule([6], [[0.0, 0.0, 0.0]])]
    mols += [fixtures.random_molecule(rng) for _ in range(20)]
    seen_triples = 0
    for rule in ("bonds", "cutoff"):
        for excludes in (False, True):
            cfg = ModelConfig(local_rule=rule, global_excludes_local=excludes)
            for m in mols:
                g, f = prepare_inputs(m, cfg)
                tri = enumerate_angle_triples(g)
                e = g.local_edges
                d = np.linalg.norm(m.coords[e[:, 0]] - m.coords[e[:, 1]], axis=1)
                for t, edge, got in (
                    (tri.two_hop, tri.two_hop_edge, f.sbf_two),
                    (tri.one_hop, tri.one_hop_edge, f.sbf_one),
                ):
                    ang = angle_between(m.coords[t[:, 1]], m.coords[t[:, 0]], m.coords[t[:, 2]])
                    want = _per_triple_sbf(d[edge], ang, cfg.local_cutoff)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (rule, excludes, m.key)
                    seen_triples += t.shape[0]
                assert np.array_equal(f.two_hop_edge, tri.two_hop_edge)
                assert np.array_equal(f.one_hop_edge, tri.one_hop_edge)
    assert seen_triples > 1000
