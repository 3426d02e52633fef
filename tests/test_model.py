"""Model wiring: parameter init, block behavior, invariances, checkpoints."""

import collections
import functools
import io
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mxmnet import basis, fixtures, model
from mxmnet.autodiff import Tape, Tensor, backward
from mxmnet.data import Molecule
from mxmnet.graph import build_multiplex, count_messages
from mxmnet.model import (
    MessageTally,
    ModelConfig,
    ParamStore,
    check_params,
    cross_layer_map,
    forward,
    global_mp,
    init_params,
    load_checkpoint,
    local_mp,
    output_head,
    prepare_inputs,
    residual_update,
    save_checkpoint,
)
from conftest import rel_gap


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _np_mlp2(x, p, prefix):
    h = x @ p[f"{prefix}/w1"].data + p[f"{prefix}/b1"].data
    h = h * _sigmoid(h)
    h = h @ p[f"{prefix}/w2"].data + p[f"{prefix}/b2"].data
    return h * _sigmoid(h)


def _zero(params, fragment):
    for name, t in params.items():
        if fragment in name:
            t.data[:] = 0.0


def tiny_cfg(**kw):
    base = dict(hidden_dim=8, n_layers=1, n_residuals=1)
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(n_layers=0)
    for name in ("hidden_dim", "n_layers", "n_residuals"):
        for value in (2.5, 1.0, "3", True):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                ModelConfig(**{name: value})
        assert getattr(ModelConfig(**{name: np.int64(3)}), name) == 3
    with pytest.raises(TypeError):
        ModelConfig(n_rbf=8)  # basis sizes are the basis module's constants
    with pytest.raises(ValueError):
        ModelConfig(local_rule="nope")
    with pytest.raises(ValueError):
        ModelConfig(local_cutoff=-1.0)
    for key in ("local_cutoff", "global_cutoff"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=key):
                ModelConfig(**{key: value})
        for value in ("2.0", True, None):
            with pytest.raises(ValueError, match=f"^{key} must be a real number, got "):
                ModelConfig(**{key: value})
        assert getattr(ModelConfig(**{key: np.float64(3.0)}), key) == 3.0
        assert getattr(ModelConfig(**{key: 3}), key) == 3
    for dl in (5.0, 6.0):  # the bonds rule ignores dl, the cutoff rule needs dl < dg
        ModelConfig(local_cutoff=dl, global_cutoff=5.0)
        with pytest.raises(ValueError, match="^local cutoff must be below the global cutoff$"):
            ModelConfig(local_rule="cutoff", local_cutoff=dl, global_cutoff=5.0)


def test_check_params_names_a_shape_mismatch():
    cfg = tiny_cfg()
    layout = [(name, t.data.shape) for name, t in init_params(cfg).items()]
    check_params(ParamStore(layout), cfg)
    name, _ = layout[1]
    layout[1] = (name, (3, 3))
    with pytest.raises(
        ValueError, match=rf"^parameter '{name}' has shape \(3, 3\), the model config expects"
    ):
        check_params(ParamStore(layout), cfg)


def test_forward_rejects_atomic_numbers_outside_the_embedding():
    # Explicit bonds: the covalent rule would reject element 55 first.
    m = Molecule([55, 1], [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]], bonds=[(0, 1)])
    with pytest.raises(ValueError, match="^atomic number 55 outside the embedding range$"):
        forward(m, init_params(tiny_cfg()), tiny_cfg())


def test_init_is_deterministic():
    cfg = tiny_cfg(n_layers=2)
    a = init_params(cfg, seed=3)
    b = init_params(cfg, seed=3)
    assert list(a.names()) == list(b.names())
    for name, t in a.items():
        assert t.data.tobytes() == b[name].data.tobytes()
    c = init_params(cfg, seed=4)
    assert any(
        t.data.tobytes() != c[name].data.tobytes() for name, t in a.items()
    )


def test_init_params_fills_a_given_vector():
    cfg = tiny_cfg(n_layers=2)
    fresh = init_params(cfg, seed=3)
    buf = np.full(fresh.flat.size, np.nan)
    into = init_params(cfg, seed=3, out=buf)
    assert into.names() == fresh.names()
    assert np.concatenate([t.data.ravel() for _, t in into.items()]).tobytes() == buf.tobytes()
    for name, t in into.items():
        assert t.data.tobytes() == fresh[name].data.tobytes()
        assert np.shares_memory(t.data, buf)
    for bad in (np.zeros(buf.size + 1), np.zeros(buf.size, dtype=np.float32)):
        with pytest.raises(ValueError, match="float64 vector"):
            init_params(cfg, seed=3, out=bad)


def test_init_ranges_and_distribution():
    cfg = ModelConfig(hidden_dim=32, n_layers=1, n_residuals=1)
    params = init_params(cfg, seed=0)
    embed = params["embed/table"].data
    r3 = np.sqrt(3.0)
    assert embed.shape == (54, 32)
    assert np.all(np.abs(embed) < r3)
    # embedding entries should look uniform on their interval
    u = (embed.ravel() + r3) / (2.0 * r3)
    assert stats.kstest(u, "uniform").pvalue > 0.01

    w1 = params["layer0/global/mp1/mlp/w1"].data
    bound = 1.0 / np.sqrt(2 * 32 + 16)
    assert w1.shape == (2 * 32 + 16, 32)
    assert np.all(np.abs(w1) < bound)
    uw = (w1.ravel() + bound) / (2.0 * bound)
    assert stats.kstest(uw, "uniform").pvalue > 0.01


def test_param_store_guard_rails():
    with pytest.raises(ValueError, match="duplicate parameter 'a/w'"):
        ParamStore([("a/w", (2, 2)), ("a/w", (2, 2))])
    # load_checkpoint splits its header lines on any whitespace, so a name
    # that is empty or holds any of it could be saved but not read back.
    for bad in ("bad name", "bad\nname", "", "bad\tname", "bad\rname", "bad\vname",
                "bad\xa0name"):
        with pytest.raises(ValueError, match="non-empty with no whitespace"):
            ParamStore([(bad, (2,))])
    layout = [("a/w", (2, 2)), ("b", (3,))]
    for flat in (np.zeros(6), np.zeros(8), np.zeros(7, dtype=np.float32), np.zeros((7, 1))):
        with pytest.raises(ValueError, match="float64 vector of 7 values"):
            ParamStore(layout, flat)
    flat = np.arange(7.0)
    store = ParamStore(layout, flat)
    assert store.flat is flat and store.flat.size == 7
    assert store["a/w"].data.tolist() == [[0.0, 1.0], [2.0, 3.0]]
    assert store.first_non_finite(flat) is None
    for k, name in enumerate(["a/w"] * 4 + ["b"] * 3):
        bad = flat.copy()
        bad[k:] = np.inf
        assert store.first_non_finite(bad) == name
    assert not ParamStore(layout).flat.any()
    other = np.zeros(7)
    view = store.like(other)
    view["b"].data[0] = 5.0
    assert other[4] == 5.0 and store["b"].data[0] == 4.0
    grads = np.zeros(7)
    store.point_grads(grads)
    store["b"].grad[2] = 1.0
    assert grads.tolist() == [0.0] * 6 + [1.0]
    with pytest.raises(ValueError, match="float64 vector"):
        store.point_grads(np.zeros(6))


def test_residual_stack_identity_cases():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=1)
    h = np.random.default_rng(2).standard_normal((5, 8))
    out = residual_update(Tensor(h.copy()), params, "layer0/global/fu", 0)
    assert np.array_equal(out.data, h)
    _zero(params, "global/fu")
    out = residual_update(Tensor(h.copy()), params, "layer0/global/fu", 1)
    assert np.array_equal(out.data, h)


def test_residual_stack_matches_manual_composition():
    cfg = tiny_cfg(n_residuals=2)
    params = init_params(cfg, seed=5)
    rng = np.random.default_rng(6)
    h = rng.standard_normal((4, 8))
    got = residual_update(Tensor(h.copy()), params, "layer0/local/fu", 2).data

    want = h.copy()
    for r in range(2):
        pre = f"layer0/local/fu/res{r}"
        z = want @ params[f"{pre}/w1"].data + params[f"{pre}/b1"].data
        s = z * _sigmoid(z)
        want = want + s @ params[f"{pre}/w2"].data + params[f"{pre}/b2"].data
    assert rel_gap(got, want) < 1e-13


def test_cross_map_is_row_wise():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=7)
    rng = np.random.default_rng(8)
    h = rng.standard_normal((6, 8))
    out = cross_layer_map(Tensor(h), params, "layer0/cross_gl").data
    assert rel_gap(out, _np_mlp2(h, params, "layer0/cross_gl")) < 1e-13
    perm = rng.permutation(6)
    out_perm = cross_layer_map(Tensor(h[perm]), params, "layer0/cross_gl").data
    assert np.array_equal(out_perm, out[perm])
    _zero(params, "cross_gl")
    zeroed = cross_layer_map(Tensor(h), params, "layer0/cross_gl").data
    assert np.array_equal(zeroed, np.zeros_like(h))


def test_output_head_shape_and_oracle():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=9)
    rng = np.random.default_rng(10)
    h = rng.standard_normal((3, 8))
    got = output_head(Tensor(h), params, "layer0/out").data
    assert got.shape == (3, 1)
    x = h @ params["layer0/out/w1"].data + params["layer0/out/b1"].data
    x = x * _sigmoid(x)
    x = x @ params["layer0/out/w2"].data + params["layer0/out/b2"].data
    x = x * _sigmoid(x)
    want = x @ params["layer0/out/w3"].data
    assert rel_gap(got, want) < 1e-13
    _zero(params, "out/w3")
    assert np.array_equal(
        output_head(Tensor(h), params, "layer0/out").data, np.zeros((3, 1))
    )
    single = output_head(Tensor(h[:1]), params, "layer0/out").data
    assert single.shape == (1, 1)


def test_global_mp_with_no_edges_is_residual_only():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=11)
    h = np.random.default_rng(12).standard_normal((4, 8))
    feats_g = (
        Tensor(np.empty((0, 16))),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        4,
    )
    out = global_mp(Tensor(h.copy()), feats_g, params, "layer0/global", 1)
    want = residual_update(Tensor(h.copy()), params, "layer0/global/fu", 1)
    assert np.array_equal(out.data, want.data)


def test_global_mp_matches_numpy_oracle():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=21)
    rng = np.random.default_rng(22)
    n = 5
    src, dst = np.nonzero(~np.eye(n, dtype=bool) & (rng.random((n, n)) < 0.6))
    rbf = rng.standard_normal((src.size, 16))
    h = rng.standard_normal((n, 8))
    got = global_mp(Tensor(h.copy()), (Tensor(rbf), src, dst, n), params, "layer0/global", 1)

    def np_pass(x, prefix):
        cat = np.concatenate([x[src], x[dst], rbf], axis=1)
        msg = _np_mlp2(cat, params, f"{prefix}/mlp") * (rbf @ params[f"{prefix}/edge_w"].data)
        agg = np.zeros_like(x)
        np.add.at(agg, dst, msg)
        return x + agg

    want = np_pass(h, "layer0/global/mp1")
    pre = "layer0/global/fu/res0"
    z = want @ params[f"{pre}/w1"].data + params[f"{pre}/b1"].data
    want = want + (z * _sigmoid(z)) @ params[f"{pre}/w2"].data + params[f"{pre}/b2"].data
    want = np_pass(want, "layer0/global/mp2")
    assert src.size > n
    assert rel_gap(got.data, want) < 1e-12


def test_global_mp_receptive_field_is_two_hops():
    # two passes over a path graph: perturbing one endpoint may only move
    # embeddings within graph distance two of it
    cfg = tiny_cfg()
    params = init_params(cfg, seed=13)
    _zero(params, "global/fu")  # make the in-between stack the identity
    n = 6
    pairs = [(k, k + 1) for k in range(n - 1)]
    directed = sorted(
        [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs],
        key=lambda e: (e[1], e[0]),
    )
    src = np.array([e[0] for e in directed], dtype=np.int64)
    dst = np.array([e[1] for e in directed], dtype=np.int64)
    rng = np.random.default_rng(14)
    rbf = Tensor(rng.standard_normal((len(directed), 16)))
    h = rng.standard_normal((n, 8))

    base = global_mp(Tensor(h.copy()), (rbf, src, dst, n), params, "layer0/global", 1)
    bumped = h.copy()
    bumped[5] += 0.25
    moved = global_mp(Tensor(bumped), (rbf, src, dst, n), params, "layer0/global", 1)

    assert np.array_equal(moved.data[:3], base.data[:3])  # distance 3 and beyond
    assert not np.array_equal(moved.data[3], base.data[3])
    assert not np.array_equal(moved.data[5], base.data[5])


def test_local_mp_without_triples_matches_numpy_oracle():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=15)
    m = fixtures.dihydrogen()
    _, feats = prepare_inputs(m, cfg)
    assert feats.sbf_two.shape[0] == 0

    h = np.random.default_rng(16).standard_normal((2, 8))
    bases = (Tensor(feats.rbf_local), Tensor(feats.sbf_two))
    got = local_mp(Tensor(h.copy()), bases, feats, params, "layer0/local", 1).data

    rbf = feats.rbf_local
    pair = np.concatenate([h[feats.local_src], h[feats.local_dst], rbf], axis=1)
    m1 = _np_mlp2(pair, params, "layer0/local/mlp_ji")
    m2 = _np_mlp2(m1, params, "layer0/local/mlp_m2")
    final = m2 * (rbf @ params["layer0/local/edge_w3"].data)
    agg = np.zeros((2, 8))
    np.add.at(agg, feats.local_dst, final)
    pre = "layer0/local/fu/res0"
    z = agg @ params[f"{pre}/w1"].data + params[f"{pre}/b1"].data
    s = z * _sigmoid(z)
    want = agg + s @ params[f"{pre}/w2"].data + params[f"{pre}/b2"].data
    assert rel_gap(got, want) < 1e-12


def _benzene():
    ring = np.arange(6) * np.pi / 3
    unit = np.stack([np.cos(ring), np.sin(ring), np.zeros(6)], axis=1)
    return Molecule([6] * 6 + [1] * 6, np.concatenate([1.39 * unit, 2.48 * unit]))


def _branched():
    # A zigzag chain of four carbons with a methyl branch on the second.
    coords = [[0.0, 0.0, 0.0], [1.25, 0.85, 0.0], [2.5, 0.0, 0.0], [3.75, 0.85, 0.0]]
    return Molecule([6, 6, 6, 6, 6], coords + [[1.25, 0.85, 1.5]])


def _np_local_mp_by_loops(m, h, params, cfg):
    # local_mp as the paper states it, one Python loop per angle family:
    # step 1 sums over k in N(j) \ {i} into edge (j -> i) with the angle at
    # j, step 2 over j' in N(i) \ {j} into (j -> i) with the angle at i.
    # Each angle row is evaluated on its own from the coordinates.
    g = build_multiplex(m, local_rule=cfg.local_rule, local_cutoff=cfg.local_cutoff)
    edges = [tuple(e) for e in g.local_edges.tolist()]
    edge_id = {e: k for k, e in enumerate(edges)}
    nbrs = [sorted(j for j, i in edges if i == v) for v in range(m.n_atoms)]
    c, x, p = cfg.local_cutoff, m.coords, params

    def sbf(a, center, b):
        # the angle at ``center`` between a and b, radial part on a -> center
        d = np.linalg.norm(x[a] - x[center])
        alpha = basis.angle_between(x[center], x[a], x[b])
        return basis.spherical_basis([d], alpha, c)[0]

    def gate(rows, prefix):
        return _np_mlp2(np.array(rows).reshape(-1, 42), p, prefix)

    src, dst = g.local_edges[:, 0], g.local_edges[:, 1]
    rbf = basis.radial_basis(np.linalg.norm(x[src] - x[dst], axis=1), c)
    pair = np.concatenate([h[src], h[dst], rbf], axis=1)
    part1 = _np_mlp2(pair, p, "layer0/local/mlp_kj") * (rbf @ p["layer0/local/edge_w1"].data)
    m1 = _np_mlp2(pair, p, "layer0/local/mlp_ji")
    for e, (j, i) in enumerate(edges):
        ks = [k for k in nbrs[j] if k != i]
        g1 = gate([sbf(k, j, i) for k in ks], "layer0/local/gate1")
        for k, row in zip(ks, g1):
            m1[e] += part1[edge_id[(k, j)]] * row
    part2 = _np_mlp2(m1, p, "layer0/local/mlp_m") * (rbf @ p["layer0/local/edge_w2"].data)
    m2 = _np_mlp2(m1, p, "layer0/local/mlp_m2")
    for e, (j, i) in enumerate(edges):
        jps = [jp for jp in nbrs[i] if jp != j]
        g2 = gate([sbf(jp, i, j) for jp in jps], "layer0/local/gate2")
        for jp, row in zip(jps, g2):
            m2[e] += part2[edge_id[(jp, i)]] * row
    final = m2 * (rbf @ p["layer0/local/edge_w3"].data)
    agg = np.zeros((m.n_atoms, h.shape[1]))
    np.add.at(agg, dst, final)
    pre = "layer0/local/fu/res0"
    z = agg @ p[f"{pre}/w1"].data + p[f"{pre}/b1"].data
    return agg + (z * _sigmoid(z)) @ p[f"{pre}/w2"].data + p[f"{pre}/b2"].data


def test_local_mp_with_triples_matches_one_hop_loop_oracle():
    # Step 2 runs on the two-hop rows and sends into each target's reverse;
    # the oracle enumerates the one-hop family itself.
    for rule in ("bonds", "cutoff"):
        cfg = tiny_cfg(local_rule=rule)
        params = init_params(cfg, seed=32)
        for m in (_benzene(), _branched()):
            _, feats = prepare_inputs(m, cfg)
            assert feats.sbf_two.shape[0] > 0
            h = np.random.default_rng(33).standard_normal((m.n_atoms, 8))
            bases = (Tensor(feats.rbf_local), Tensor(feats.sbf_two))
            got = local_mp(Tensor(h.copy()), bases, feats, params, "layer0/local", 1).data
            want = _np_local_mp_by_loops(m, h, params, cfg)
            assert rel_gap(got, want) < 1e-12, (rule, m.n_atoms)


def test_forward_evaluates_each_basis_once_per_call(monkeypatch):
    # Whatever the block count, one forward call evaluates the two radial
    # matrices and the spherical one once each.
    cfg = tiny_cfg(n_layers=3)
    params = init_params(cfg, seed=31)
    m = fixtures.methane()
    _, feats = prepare_inputs(m, cfg)
    calls = collections.Counter()

    def counted(name):
        fn = getattr(basis, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in ("radial_basis", "spherical_basis"):
        monkeypatch.setattr(basis, name, counted(name))
    first = forward(m, params, cfg, feats=feats).item()
    assert forward(m, params, cfg, feats=feats).item() == first
    assert calls == {"radial_basis": 4, "spherical_basis": 2}


def test_triangle_triples_never_gate_with_the_receiver():
    m = Molecule(
        [6, 6, 6],
        [[0.0, 0.0, 0.0], [1.4, 0.0, 0.0], [0.7, 1.2, 0.0]],
        bonds=[(0, 1), (0, 2), (1, 2)],
    )
    g, feats = prepare_inputs(m, tiny_cfg())
    src, dst = feats.local_src, feats.local_dst
    for e, t in zip(feats.two_hop_edge, feats.two_hop_target):
        assert src[e] != dst[t]  # k never equals i
        assert dst[e] == src[t]  # shared middle node
    # Read as one-hop triple (j', i, j), two-hop triple (k, j, i) sends
    # along (k -> j) = (j' -> i) into the reverse target (i -> j) = (j -> i).
    for e, t in zip(feats.two_hop_edge, feats.reverse_target):
        assert src[e] != src[t]  # j' never equals j
        assert dst[e] == dst[t]  # shared receiver


def test_forward_single_atom():
    cfg = tiny_cfg(n_layers=2)
    params = init_params(cfg, seed=17)
    m = Molecule([6], [[0.0, 0.0, 0.0]])
    y1 = forward(m, params, cfg).item()
    y2 = forward(m, params, cfg).item()
    assert np.isfinite(y1)
    assert y1 == y2


def test_forward_rejects_unknown_atomic_numbers():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=18)
    m = Molecule([60], [[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        forward(m, params, cfg)


def test_forward_rigid_motion_invariance():
    cfg = tiny_cfg(n_layers=2)
    params = init_params(cfg, seed=19)
    rng = np.random.default_rng(20)
    for m in (fixtures.water(), fixtures.methane(), fixtures.random_molecule(rng)):
        base = forward(m, params, cfg).item()
        for trial in range(2):
            rot = fixtures.random_rotation(rng)
            shift = rng.standard_normal(3) * 5.0
            moved = fixtures.rigid_transform(m, rot, shift)
            assert abs(forward(moved, params, cfg).item() - base) < 1e-8


def test_forward_relabeling_invariance():
    cfg = tiny_cfg(n_layers=2)
    params = init_params(cfg, seed=21)
    rng = np.random.default_rng(22)
    m = fixtures.methane()
    base = forward(m, params, cfg).item()
    for trial in range(5):
        perm = rng.permutation(m.n_atoms)
        relabeled = fixtures.permute_atoms(m, perm)
        assert abs(forward(relabeled, params, cfg).item() - base) < 1e-10


def test_forward_tally_matches_closed_form_counts():
    rng = np.random.default_rng(23)
    for layers in (1, 2):
        cfg = tiny_cfg(n_layers=layers)
        params = init_params(cfg, seed=24)
        for trial in range(5):
            m = fixtures.random_molecule(rng)
            g, feats = prepare_inputs(m, cfg)
            counts = count_messages(g)
            tally = MessageTally()
            forward(m, params, cfg, feats=feats, tally=tally)
            want = tuple(layers * v for v in counts.as_tuple())
            assert tally.as_tuple() == want


def test_forward_gradient_spot_check():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=29)
    m = fixtures.dihydrogen()
    g, feats = prepare_inputs(m, cfg)
    with Tape() as tape:
        y = forward(m, params, cfg, feats=feats)
    backward(y, tape)

    step = 1e-5
    rng = np.random.default_rng(30)
    for name in ("layer0/out/w3", "layer0/global/mp1/edge_w", "embed/table"):
        t = params[name]
        flat = t.data.ravel()
        gflat = t.grad.ravel() if t.grad is not None else np.zeros_like(flat)
        for pick in rng.choice(flat.size, size=4, replace=False):
            keep = flat[pick]
            flat[pick] = keep + step
            hi = forward(m, params, cfg, feats=feats).item()
            flat[pick] = keep - step
            lo = forward(m, params, cfg, feats=feats).item()
            flat[pick] = keep
            fd = (hi - lo) / (2.0 * step)
            assert abs(gflat[pick] - fd) <= 1e-6 * max(1.0, abs(fd)), name


def test_a_train_step_keeps_few_bytes_per_global_edge():
    # A global pass keeps two edge-sized arrays on the tape, each edge MLP
    # layer's pre-activation: the swish after each is folded into the
    # matmul or the gate that consumes it and recomputed in backward.  The
    # tracemalloc peak of forward plus backward, per global edge, block and
    # hidden unit, read 166 bytes when each pass also kept two sigmoids, two
    # activations and the gate, and 111 with them recomputed.
    cfg = ModelConfig(hidden_dim=32, n_layers=2, n_residuals=2)
    params = init_params(cfg, seed=0)
    params.point_grads(np.zeros_like(params.flat))
    m = fixtures.random_molecule(np.random.default_rng(0), n_atoms=40)
    g, feats = prepare_inputs(m, cfg)
    tracemalloc.start()
    try:
        with Tape() as tape:
            y = forward(m, params, cfg, feats=feats)
        backward(y, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_unit = peak / (g.global_edges.shape[0] * cfg.n_layers * cfg.hidden_dim)
    assert per_unit < 140, f"{per_unit:.1f} bytes per global edge, block and hidden unit"


def test_checkpoint_round_trip_is_exact(tmp_path):
    cfg = tiny_cfg(n_layers=2)
    params = init_params(cfg, seed=31)
    path = tmp_path / "weights.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert list(loaded.names()) == list(params.names())
    for name, t in params.items():
        other = loaded[name]
        assert other.data.dtype == np.float64
        assert other.data.shape == t.data.shape
        assert other.data.tobytes() == t.data.tobytes()

    m = fixtures.water()
    y_orig = forward(m, params, cfg).item()
    y_load = forward(m, loaded, cfg).item()
    assert y_orig == y_load


def test_an_interrupted_checkpoint_save_keeps_the_old_file(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    old, new = init_params(cfg, seed=33), init_params(cfg, seed=34)
    path = tmp_path / "weights.ckpt"
    save_checkpoint(old, path)
    blob = path.read_bytes()
    calls = []
    real = np.ascontiguousarray

    def fail_midway(a, *args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(new, path)
    monkeypatch.undo()
    assert len(calls) == 3 < len(new)  # the save stopped between records
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["weights.ckpt"]  # no temporary file left
    loaded = load_checkpoint(path)
    for name, t in old.items():
        assert loaded[name].data.tobytes() == t.data.tobytes()


def test_a_checkpoint_loads_into_a_given_vector(tmp_path, monkeypatch):
    params = init_params(tiny_cfg(n_layers=2), seed=35)
    path = tmp_path / "weights.ckpt"
    save_checkpoint(params, path)
    reads = []

    class Counted(io.BufferedReader):
        def readinto(self, b):
            reads.append(memoryview(b).nbytes)
            return super().readinto(b)

    def counted(file, mode):
        return Counted(io.FileIO(file, mode))

    monkeypatch.setattr(model, "open", counted, raising=False)
    out = np.full_like(params.flat, np.nan)
    loaded = load_checkpoint(path, out=out)
    # One read per record, straight into its parameter.
    assert reads == [t.data.nbytes for _, t in params.items()]
    assert loaded.flat is out
    assert out.tobytes() == load_checkpoint(path).flat.tobytes() == params.flat.tobytes()
    for name, t in loaded.items():
        assert np.shares_memory(t.data, out), name

    reads.clear()
    for bad in (np.zeros(out.size - 1), np.zeros(out.size, dtype=np.float32)):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: need a float64 vector"):
            load_checkpoint(path, out=bad)
        assert not bad.any()
    assert reads == []


@pytest.mark.parametrize("into", [False, True], ids=["plain", "into out"])
def test_checkpoint_rejects_garbage(tmp_path, into):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=32)
    path = tmp_path / "weights.ckpt"
    save_checkpoint(params, path)
    load = functools.partial(load_checkpoint, out=np.empty_like(params.flat) if into else None)

    blob = path.read_bytes()
    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"XX" + blob[2:])
    with pytest.raises(ValueError):
        load(bad_magic)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        load(truncated)

    # a record line holding only the parameter's name
    head, _, rest = blob.partition(b"\n")
    count, _, rest = rest.partition(b"\n")
    record, _, rest = rest.partition(b"\n")
    short = tmp_path / "short_record.ckpt"
    short.write_bytes(b"\n".join([head, count, record.split()[0], rest]))
    with pytest.raises(ValueError, match="malformed record"):
        load(short)

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(blob + b"\0")
    with pytest.raises(ValueError, match="after the last record"):
        load(trailing)

    name = params.names()[-1]
    for bad in (math.nan, math.inf, -math.inf):
        params[name].data.reshape(-1)[0] = bad
        non_finite = tmp_path / "non_finite.ckpt"
        save_checkpoint(params, non_finite)
        with pytest.raises(ValueError, match=f"non-finite value in parameter '{name}'"):
            load(non_finite)
