"""Acceptance gate: every release-blocking property, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Each test
prints its measured value next to the tolerance it must meet, then asserts
both the property and its runtime budget.
"""

import math
import time

import numpy as np
from scipy.special import spherical_jn

from mxmnet import fixtures
from mxmnet.autodiff import Tape, backward
from mxmnet.basis import bessel_roots, envelope, radial_basis, spherical_basis
from mxmnet.cli import run_bench
from mxmnet.graph import count_angles, count_messages
from mxmnet.model import (
    MessageTally,
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
    prepare_inputs,
    save_checkpoint,
)
from mxmnet.training import TrainConfig, train


def _report(ok: bool, name: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}")


def test_gradient_correctness():
    start = time.perf_counter()
    cfg = ModelConfig(hidden_dim=8, n_layers=2, n_residuals=1)
    params = init_params(cfg, seed=0)
    m = fixtures.methane()
    _, feats = prepare_inputs(m, cfg)

    with Tape() as tape:
        y = forward(m, params, cfg, feats=feats)
    backward(y, tape)

    step = 1e-5
    worst = 0.0
    n_checked = 0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        grad = np.zeros(flat.size) if t.grad is None else t.grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = forward(m, params, cfg, feats=feats).item()
            flat[i] = keep - step
            lo = forward(m, params, cfg, feats=feats).item()
            flat[i] = keep
            fd = (hi - lo) / (2.0 * step)
            rel = abs(grad[i] - fd) / max(abs(fd), abs(grad[i]), 1e-6)
            worst = max(worst, rel)
            n_checked += 1
    elapsed = time.perf_counter() - start

    assert n_checked == params.flat.size
    ok = worst < 1e-4 and elapsed < 120.0
    _report(
        ok,
        "gradient-correctness",
        f"max_rel_err={worst:.3e} tol=1.0e-04 over {n_checked} scalars "
        f"elapsed={elapsed:.1f}s budget=120s",
    )
    assert worst < 1e-4
    assert elapsed < 120.0


def test_rigid_motion_invariance():
    start = time.perf_counter()
    cfg = ModelConfig(hidden_dim=16, n_layers=2, n_residuals=1)
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(2)
    worst = 0.0
    n_transforms = 0
    for m in fixtures.fixture_set(10):
        base = forward(m, params, cfg).item()
        for _ in range(10):
            rot = fixtures.random_rotation(rng)
            shift = rng.uniform(-8.0, 8.0, size=3)
            moved = fixtures.rigid_transform(m, rot, shift)
            worst = max(worst, abs(forward(moved, params, cfg).item() - base))
            n_transforms += 1
    elapsed = time.perf_counter() - start

    assert n_transforms == 100
    ok = worst < 1e-8 and elapsed < 60.0
    _report(
        ok,
        "rigid-motion-invariance",
        f"max_drift={worst:.3e} tol=1.0e-08 over {n_transforms} transforms "
        f"elapsed={elapsed:.1f}s budget=60s",
    )
    assert worst < 1e-8
    assert elapsed < 60.0


def test_relabeling_invariance():
    cfg = ModelConfig(hidden_dim=16, n_layers=2, n_residuals=1)
    params = init_params(cfg, seed=3)
    rng = np.random.default_rng(4)
    worst = 0.0
    n_perms = 0
    for m in fixtures.fixture_set(10):
        base = forward(m, params, cfg).item()
        for _ in range(5):
            perm = rng.permutation(m.atomic_numbers.size)
            shuffled = fixtures.permute_atoms(m, perm)
            worst = max(worst, abs(forward(shuffled, params, cfg).item() - base))
            n_perms += 1

    assert n_perms == 50
    ok = worst < 1e-10
    _report(
        ok,
        "relabeling-invariance",
        f"max_drift={worst:.3e} tol=1.0e-10 over {n_perms} relabelings",
    )
    assert worst < 1e-10


def _pairs_sharing_a_node(edges) -> int:
    # every unordered pair of distinct edges with a common endpoint is one angle
    sets = [frozenset(e) for e in edges]
    hits = 0
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            if sets[a] & sets[b]:
                hits += 1
    return hits


def test_angle_count_closed_form():
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(200):
        n, edges = fixtures.random_simple_graph(rng, max_n=12)
        if count_angles(n, edges) != _pairs_sharing_a_node(edges):
            mismatches += 1
    ok = mismatches == 0
    _report(
        ok,
        "angle-count-closed-form",
        f"mismatches={mismatches} tol=0 over 200 graphs",
    )
    assert mismatches == 0


def test_message_tally_matches_closed_form():
    rng = np.random.default_rng(6)
    mismatches = 0
    n_graphs = 0
    for trial in range(100):
        rule = "bonds" if trial % 2 == 0 else "cutoff"
        layers = 1 if trial < 60 else int(rng.integers(2, 4))
        cfg = ModelConfig(
            hidden_dim=8,
            n_layers=layers,
            n_residuals=1,
            local_rule=rule,
            local_cutoff=2.0,
            global_cutoff=5.0,
        )
        params = init_params(cfg, seed=trial)
        m = fixtures.random_molecule(rng)
        g, feats = prepare_inputs(m, cfg)
        tally = MessageTally()
        forward(m, params, cfg, feats=feats, tally=tally)
        expect = tuple(layers * v for v in count_messages(g).as_tuple())
        if tally.as_tuple() != expect or tally.cross_init != 0:
            mismatches += 1
        n_graphs += 1

    assert n_graphs == 100
    ok = mismatches == 0
    _report(
        ok,
        "message-tally-closed-form",
        f"mismatches={mismatches} tol=0 over {n_graphs} multiplex graphs",
    )
    assert mismatches == 0


def test_scaling_separation():
    start = time.perf_counter()
    _, slopes = run_bench(n=512, seed=0, repeats=2)
    elapsed = time.perf_counter() - start

    ok = (
        abs(slopes["local"] - 2.0) <= 0.2
        and abs(slopes["global"] - 1.0) <= 0.1
        and abs(slopes["reference"] - 2.0) <= 0.2
        and elapsed < 300.0
    )
    _report(
        ok,
        "scaling-separation",
        f"local={slopes['local']:.3f} (2.0±0.2) global={slopes['global']:.3f} "
        f"(1.0±0.1) reference={slopes['reference']:.3f} (2.0±0.2) "
        f"elapsed={elapsed:.1f}s budget=300s",
    )
    assert abs(slopes["local"] - 2.0) <= 0.2
    assert abs(slopes["global"] - 1.0) <= 0.1
    assert abs(slopes["reference"] - 2.0) <= 0.2
    assert elapsed < 300.0


def test_overfit_sanity(tmp_path):
    # lr 1e-2 with a 100-epoch decay scale drives these 16 molecules to
    # roughly 2.5e-4 of the first-epoch error well inside 300 epochs, in
    # ~30s on one desktop core.  The averaging horizon must fit the run:
    # 0.999 would still carry ~30% of the random init after 1200 steps, so
    # the returned weights use a 100-step horizon and land near 1e-4 of the
    # first-epoch error, two orders under the 1% bar.
    start = time.perf_counter()
    ds = fixtures.dataset_from(
        fixtures.overfit_set(16, seed=7), fractions=(1.0, 0.0, 0.0), seed=0
    )
    mcfg = ModelConfig(hidden_dim=32, n_layers=2, n_residuals=1)
    tcfg = TrainConfig(
        target="u0",
        epochs=300,
        loss="mae",
        batch_group=4,
        base_lr=1e-2,
        decay_epochs=100.0,
        ema_decay=0.99,
        seed=0,
    )
    result = train(ds, mcfg, tcfg, tmp_path / "model.ckpt")
    elapsed = time.perf_counter() - start

    first = result.report.epochs[0].train_loss
    final = result.report.final_train_mae
    ratio = final / first

    losses = [row.train_loss for row in result.report.epochs]
    window_violations = sum(
        1 for t in range(len(losses) - 50) if losses[t + 50] > 1.05 * losses[t]
    )

    ok = ratio < 0.01 and window_violations == 0 and elapsed < 900.0
    _report(
        ok,
        "overfit-sanity",
        f"final/first={ratio:.3e} tol=1.0e-02 epochs={len(losses)} "
        f"window_violations={window_violations} elapsed={elapsed:.1f}s budget=900s",
    )
    assert ratio < 0.01
    assert window_violations == 0
    assert elapsed < 900.0


def test_basis_correctness():
    roots = bessel_roots()
    assert roots.shape == (7, 6)
    worst_root = 0.0
    for l in range(7):
        for k in range(6):
            worst_root = max(worst_root, abs(float(spherical_jn(l, roots[l, k]))))

    c = 5.0
    d = np.linspace(0.11, c - 0.11, 37)
    alpha = np.linspace(0.05, math.pi - 0.05, 37)
    sbf = spherical_basis(d, alpha, c)
    # degree-0 columns must reduce to the plain sine series over d
    sinc = np.empty((d.size, 6))
    for k in range(1, 7):
        sinc[:, k - 1] = (
            envelope(d / c)
            * math.sqrt(2.0 / c)
            * np.sin(k * math.pi * d / c)
            / d
            / (2.0 * math.sqrt(math.pi))
        )
    worst_sinc = float(np.max(np.abs(sbf[:, :6] - sinc)))

    at_cut = np.array([c])
    rbf_cut = radial_basis(at_cut, c)
    sbf_cut = spherical_basis(at_cut, np.array([1.0]), c)
    cut_zero = bool(np.all(rbf_cut == 0.0) and np.all(sbf_cut == 0.0))

    ok = worst_root < 1e-10 and worst_sinc < 1e-10 and cut_zero
    _report(
        ok,
        "basis-correctness",
        f"max_root_residual={worst_root:.3e} tol=1.0e-10 "
        f"max_sinc_gap={worst_sinc:.3e} tol=1.0e-10 cutoff_zeros={cut_zero}",
    )
    assert worst_root < 1e-10
    assert worst_sinc < 1e-10
    assert cut_zero


def test_checkpoint_roundtrip(tmp_path):
    cfg = ModelConfig(hidden_dim=16, n_layers=2, n_residuals=2)
    params = init_params(cfg, seed=8)
    path = tmp_path / "weights.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)

    drifted = 0
    for m in fixtures.fixture_set(10):
        before = forward(m, params, cfg).item()
        after = forward(m, loaded, cfg).item()
        if before != after:  # bit identity, no tolerance
            drifted += 1

    ok = drifted == 0
    _report(
        ok,
        "checkpoint-roundtrip",
        f"drifted_predictions={drifted} tol=0 over 10 molecules",
    )
    assert drifted == 0
