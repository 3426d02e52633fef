"""Optimizer arithmetic, schedule shape, loop behavior and metrics."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from mxmnet import fixtures, training
from mxmnet.data import Dataset, Molecule, split_dataset
from mxmnet.model import (
    ModelConfig,
    ParamStore,
    init_params,
    load_checkpoint,
    prepare_inputs,
    save_checkpoint,
)
from mxmnet.training import (
    AdamState,
    EmaWeights,
    TrainConfig,
    adam_step,
    compute_metrics,
    evaluate,
    lr_at,
    prepare_all,
    train,
)


def _store_with(value):
    return ParamStore([("p", (1,))], np.array([float(value)]))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(target="u0", loss="huber")
    with pytest.raises(ValueError):
        TrainConfig(target="u0", epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(target="u0", batch_group=0)
    with pytest.raises(ValueError):
        TrainConfig(target="u0", base_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(target="u0", ema_decay=1.0)
    for name in ("epochs", "batch_group", "seed", "patience"):
        for value in (2.5, 1.0, "3", True, False):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                TrainConfig(target="u0", **{name: value})
        assert getattr(TrainConfig(target="u0", **{name: np.int64(3)}), name) == 3
    for patience in (0, -3):
        with pytest.raises(ValueError, match=f"patience must be at least 1, got {patience}"):
            TrainConfig(target="u0", patience=patience)
    bad_schedules = [
        dict(base_lr=math.inf),
        dict(base_lr=math.nan),
        dict(decay_epochs=0.0),
        dict(decay_epochs=-600.0),
        dict(decay_epochs=math.nan),
        dict(decay_epochs=math.inf),
    ]
    for bad in bad_schedules:
        field = next(iter(bad))
        with pytest.raises(ValueError, match=field):
            TrainConfig(target="u0", **bad)
    for name in ("base_lr", "decay_epochs", "ema_decay"):
        for value in ("0.5", True, False, None):
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
                TrainConfig(target="u0", **{name: value})
        assert getattr(TrainConfig(target="u0", **{name: np.float64(0.5)}), name) == 0.5
    # The edges of each allowed range stay valid, an integer among them.
    TrainConfig(target="u0", decay_epochs=1e-3)
    TrainConfig(target="u0", ema_decay=0)


def test_adam_zero_gradient_is_a_no_op():
    store = _store_with(0.7)
    state = AdamState(store)
    adam_step(store, np.zeros(1), state, lr=0.1)
    assert store["p"].data[0] == 0.7


def test_adam_single_step_closed_form():
    # from zero state, bias correction gives a unit first step direction
    store = _store_with(0.0)
    state = AdamState(store)
    adam_step(store, np.ones(1), state, lr=0.1)
    want = -0.1 / (1.0 + 1e-8)
    assert abs(store["p"].data[0] - want) < 1e-16


def test_adam_two_steps_match_reference_loop():
    store = _store_with(0.3)
    state = AdamState(store)
    p = 0.3
    m = v = 0.0
    for step in range(1, 3):
        adam_step(store, np.full(1, 2.0), state, lr=0.05)
        m = 0.9 * m + 0.1 * 2.0
        v = 0.999 * v + 0.001 * 4.0
        mhat = m / (1.0 - 0.9**step)
        vhat = v / (1.0 - 0.999**step)
        p -= 0.05 * mhat / (math.sqrt(vhat) + 1e-8)
        assert abs(store["p"].data[0] - p) < 1e-15


def test_adam_rejects_non_finite_gradients():
    store = _store_with(0.0)
    state = AdamState(store)
    with pytest.raises(FloatingPointError) as e:
        adam_step(store, np.array([np.nan]), state, lr=0.1)
    assert "p" in str(e.value)
    # A range's update checks the whole gradient first and changes nothing;
    # the bad scalar is named by its parameter, whether it is the first or
    # the last one of it.
    store = ParamStore([("p", (1,)), ("q", (3,)), ("r", (2,))])
    state = AdamState(store)
    for bad, name in ((1, "q"), (3, "q"), (0, "p"), (5, "r")):
        grad = np.ones(6)
        grad[bad] = np.inf
        with pytest.raises(FloatingPointError, match=f"parameter '{name}'$"):
            adam_step(store, grad, state, lr=0.1, part=slice(0, 1))
    assert not store.flat.any() and not state.m.any() and state.step == 0


def _reference_adam(store, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    # One parameter at a time, as the optimizer was written before its state
    # became flat vectors: the reference for the bytes.
    c1, c2 = 1.0 - beta1**step, 1.0 - beta2**step
    for name, p in store.items():
        g, mm, vv = grads[name].data, m[name].data, v[name].data
        mm *= beta1
        mm += (1.0 - beta1) * g
        vv *= beta2
        vv += (1.0 - beta2) * g * g
        p.data -= lr * (mm / c1) / (np.sqrt(vv / c2) + eps)


def _reference_ema(shadow, store, decay):
    for name, t in store.items():
        s = shadow[name].data
        s *= decay
        s += (1.0 - decay) * t.data


def test_adam_and_ema_over_rank_ranges_match_the_per_parameter_loops(monkeypatch):
    # Ranks sharing the vectors each update their even share of the
    # scalars, in blocks of ``_BLOCK``; cuts and block edges fall inside
    # parameters, and the bytes are those of the per-parameter loops.
    monkeypatch.setattr(training, "_BLOCK", 7)
    cfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    want = init_params(cfg, seed=4)
    n = want.flat.size
    starts = set(np.cumsum([t.data.size for _, t in want.items()]).tolist())
    assert any(end % 7 for end in starts)  # a block straddles a parameter edge
    want_m, want_v = want.like(np.zeros(n)), want.like(np.zeros(n))
    want_ema = want.like(want.flat.copy())
    rng = np.random.default_rng(5)
    grads = [rng.standard_normal(n) for _ in range(3)]
    for step, g in enumerate(grads, start=1):
        _reference_adam(want, want.like(g), want_m, want_v, step, 1e-2)
        _reference_ema(want_ema, want, 0.9)
    for n_ranks in (1, 2, 3, 4):
        ranges = [training._even_share(n, n_ranks, rank) for rank in range(n_ranks)]
        if n_ranks > 1:
            assert any(r.start not in starts for r in ranges[1:])
        got = init_params(cfg, seed=4)
        states = [AdamState(got, np.zeros(n), np.zeros(n))]
        states += [AdamState(got, states[0].m, states[0].v) for _ in ranges[1:]]
        ema = EmaWeights(got, 0.9)
        for g in grads:
            for part, state in zip(ranges, states):
                adam_step(got, g, state, 1e-2, part)
                ema.update(got, part)
        assert got.flat.tobytes() == want.flat.tobytes()
        assert states[0].m.tobytes() == want_m.flat.tobytes()
        assert states[0].v.tobytes() == want_v.flat.tobytes()
        assert ema.shadow.flat.tobytes() == want_ema.flat.tobytes()


def test_lr_schedule_shape():
    base = 1e-3
    spe = 10  # steps per epoch
    assert lr_at(0, spe, base) == 0.0
    assert abs(lr_at(5, spe, base) - base / 2.0) < 1e-18
    # the ramp meets the decay curve exactly at the boundary
    assert abs(lr_at(spe, spe, base) - base) < 1e-18
    assert abs(lr_at(spe - 1, spe, base) - base * (spe - 1) / spe) < 1e-18
    # one full decay period after warmup drops the rate tenfold
    assert abs(lr_at(spe + 600 * spe, spe, base) - base * 0.1) < 1e-15
    # decay is evaluated continuously, not in stairsteps
    mid = lr_at(spe + 300 * spe, spe, base)
    assert abs(mid - base * 0.1**0.5) < 1e-15
    with pytest.raises(ValueError, match="^steps_per_epoch must be at least 1$"):
        lr_at(0, 0, base)


def test_ema_initialization_and_update():
    store = _store_with(0.0)
    ema = EmaWeights(store, decay=0.999)
    assert ema.shadow["p"].data[0] == 0.0
    store["p"].data[0] = 1.0
    ema.update(store)
    assert abs(ema.shadow["p"].data[0] - 0.001) < 1e-18


def test_ema_converges_geometrically():
    store = _store_with(1.0)
    ema = EmaWeights(store, decay=0.9)
    ema.shadow["p"].data[0] = 0.0
    gap = 1.0
    for k in range(20):
        ema.update(store)
        gap *= 0.9
        assert abs(ema.shadow["p"].data[0] - (1.0 - gap)) < 1e-14


def test_metrics_basic_cases():
    truth = np.array([1.0, 2.0, 3.0, 4.0])
    exact = compute_metrics(truth.copy(), truth, sigma=2.0)
    assert exact.mae == 0.0
    assert exact.std_mae == 0.0
    assert abs(exact.pearson_r - 1.0) < 1e-12

    affine = compute_metrics(2.0 * truth + 3.0, truth)
    assert abs(affine.pearson_r - 1.0) < 1e-12
    assert affine.std_mae is None

    flat = compute_metrics(np.zeros(4), truth)
    assert flat.pearson_r is None


def test_metrics_match_two_pass_reference():
    rng = np.random.default_rng(50)
    pred = rng.standard_normal(50)
    truth = rng.standard_normal(50)
    got = compute_metrics(pred, truth, sigma=1.7)
    mae = sum(abs(a - b) for a, b in zip(pred, truth)) / 50
    mp, mt = pred.mean(), truth.mean()
    num = sum((a - mp) * (b - mt) for a, b in zip(pred, truth))
    den = math.sqrt(
        sum((a - mp) ** 2 for a in pred) * sum((b - mt) ** 2 for b in truth)
    )
    assert abs(got.mae - mae) < 1e-12
    assert abs(got.std_mae - mae / 1.7) < 1e-12
    assert abs(got.pearson_r - num / den) < 1e-12
    assert got.n == 50


def test_metrics_rejects_bad_input():
    with pytest.raises(ValueError):
        compute_metrics(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        compute_metrics(np.empty(0), np.empty(0))
    with pytest.raises(ValueError):
        compute_metrics(np.ones(3), np.ones(3), sigma=0.0)


def test_prepare_all_preserves_order():
    cfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    mols = fixtures.fixture_set(5)
    prepared = prepare_all(mols, cfg)
    assert len(prepared) == 5
    for m, (g, feats) in zip(mols, prepared):
        assert g.n_nodes == m.n_atoms
        assert feats.n_nodes == m.n_atoms


def test_prepare_all_features_view_the_graph_edges():
    # Each molecule holds its edges once: the features' edge arrays are
    # the graph's columns, not copies of them.
    rng = np.random.default_rng(29)
    mols = fixtures.fixture_set() + [
        fixtures.random_molecule(rng, int(n), key=f"r{k}")
        for k, n in enumerate(rng.integers(2, 25, size=8))
    ]
    for rule in ("bonds", "cutoff"):
        cfg = ModelConfig(local_rule=rule)
        for m, (g, f) in zip(mols, prepare_all(mols, cfg)):
            for edges, src, dst in (
                (g.local_edges, f.local_src, f.local_dst),
                (g.global_edges, f.global_src, f.global_dst),
            ):
                for col, arr in enumerate((src, dst)):
                    # an empty layer has no memory to share
                    assert np.shares_memory(arr, edges) or not arr.size, (rule, m.key)
                    assert np.array_equal(arr, edges[:, col])
                    assert arr.dtype == np.int64


_BASES = ("rbf_local", "rbf_global", "sbf_two", "sbf_one")


def test_prepare_all_gives_each_molecule_the_bytes_of_prepare_inputs():
    rng = np.random.default_rng(71)
    mols = fixtures.fixture_set() + [
        Molecule([6], [[0.0, 0.0, 0.0]], key="atom"),
        fixtures.dihydrogen(),  # no triples
        Molecule([6, 8], [[0.0, 0.0, 0.0], [0.0, 0.0, 6.0]], key="far"),  # no edges
    ]
    sizes = rng.integers(9, 30, size=12)
    mols += [fixtures.random_molecule(rng, int(n), key=f"qm9_{k}") for k, n in enumerate(sizes)]
    mols.insert(len(mols) - 6, fixtures.random_molecule(rng, 250, key="big"))
    for rule in ("bonds", "cutoff"):
        cfg = ModelConfig(local_rule=rule)
        for m, (_, f) in zip(mols, prepare_all(mols, cfg)):
            _, alone = prepare_inputs(m, cfg)
            for name in _BASES:
                got, want = getattr(f, name), getattr(alone, name)
                assert got.shape == want.shape, (rule, m.key, name)
                assert got.tobytes() == want.tobytes(), (rule, m.key, name)
                assert got.flags.c_contiguous


def test_prepare_all_stores_no_basis_value():
    # One length per undirected pair and one angle per two-hop triple, the
    # bases evaluated from them on read: about 25 KiB per 18-atom molecule,
    # against 116 KiB with a radial row per pair and a spherical row per
    # two-hop triple stored.
    rng = np.random.default_rng(0)
    mols = [fixtures.random_molecule(rng, n_atoms=18) for _ in range(100)]
    cfg = ModelConfig()
    prepare_all(mols[:2], cfg)  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prepared = prepare_all(mols, cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(prepared) == len(mols)
    assert held / len(mols) <= 40 * 1024, f"{held / len(mols) / 1024:.1f} KiB per molecule"


def _toy_dataset(n=6, fractions=(1.0, 0.0, 0.0), seed=0):
    return fixtures.dataset_from(fixtures.overfit_set(n, seed=7), fractions, seed)


def test_budget_zero_returns_initial_weights(tmp_path):
    ds = _toy_dataset()
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    tcfg = TrainConfig(target="u0", epochs=0, seed=3)
    result = train(ds, mcfg, tcfg, tmp_path / "model.ckpt")
    assert result.report.epochs == []
    assert result.report.best_epoch == -1
    fresh = init_params(mcfg, seed=3)
    for name, t in result.params.items():
        assert t.data.tobytes() == fresh[name].data.tobytes()
    assert math.isfinite(result.report.final_train_mae)


def test_training_reduces_loss_and_is_deterministic(tmp_path):
    ds = _toy_dataset(8, fractions=(0.75, 0.25, 0.0))
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    tcfg = TrainConfig(
        target="u0", epochs=6, base_lr=5e-3, batch_group=3, seed=1, patience=50
    )
    a = train(ds, mcfg, tcfg, tmp_path / "model.ckpt")
    b = train(ds, mcfg, tcfg, tmp_path / "model.ckpt")

    assert a.report.epochs[-1].train_loss < a.report.epochs[0].train_loss
    assert len(a.report.epochs) == 6
    assert a.report.best_epoch >= 0
    assert a.report.best_val_mae == min(e.val_mae for e in a.report.epochs)

    # identical seeds and config: everything but wall time matches exactly
    for ea, eb in zip(a.report.epochs, b.report.epochs):
        assert ea.epoch == eb.epoch
        assert ea.train_loss == eb.train_loss
        assert ea.val_mae == eb.val_mae or (
            math.isnan(ea.val_mae) and math.isnan(eb.val_mae)
        )
        assert ea.lr == eb.lr
    assert a.report.final_train_mae == b.report.final_train_mae
    for name, t in a.params.items():
        assert t.data.tobytes() == b.params[name].data.tobytes()


def test_training_csv_round_trip(tmp_path):
    ds = _toy_dataset(6, fractions=(0.67, 0.33, 0.0))
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    tcfg = TrainConfig(target="u0", epochs=2, batch_group=2, seed=2)
    report = train(ds, mcfg, tcfg, tmp_path / "model.ckpt").report
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_mae,lr,seconds"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert float(row[1]) == report.epochs[0].train_loss  # repr round-trips


def test_early_stopping_counts_epochs(tmp_path):
    ds = _toy_dataset(6, fractions=(0.67, 0.33, 0.0))
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    # tiny plateau: lr 0 keeps weights frozen so validation never improves
    # after the first epoch
    tcfg = TrainConfig(
        target="u0", epochs=40, base_lr=1e-30, batch_group=6, seed=4, patience=3
    )
    report = train(ds, mcfg, tcfg, tmp_path / "model.ckpt").report
    assert len(report.epochs) == 1 + 3
    assert report.best_epoch == 0


@pytest.mark.parametrize("kind, loss", [("mae", abs), ("mse", lambda r: r * r)])
def test_loss_slope_matches_central_differences(kind, loss):
    h = 1e-6
    for r in (-2.5, -0.3, 1e-3, 0.7, 4.0):
        value, slope = training._loss(r, kind)
        assert value == loss(r)
        fd = (loss(r + h) - loss(r - h)) / (2 * h)
        assert abs(slope - fd) <= 1e-8 * max(1.0, abs(fd))
    assert training._loss(0.0, kind) == (0.0, 0.0)


def test_validation_reads_averaged_weights(tmp_path):
    # with a huge learning rate the raw weights jump far away while the
    # averaged shadow barely moves; recorded validation must track the shadow
    ds = _toy_dataset(8, fractions=(0.5, 0.5, 0.0))
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    # one optimizer step per epoch; the first step sits at zero learning
    # rate inside the warmup ramp, so the second epoch is the probe
    common = dict(target="u0", epochs=2, base_lr=0.5, batch_group=4, seed=5)

    slow = train(ds, mcfg, TrainConfig(ema_decay=0.999, **common), tmp_path / "model.ckpt").report
    fast = train(ds, mcfg, TrainConfig(ema_decay=0.0, **common), tmp_path / "model.ckpt").report

    init = init_params(mcfg, seed=5)
    val_mols = ds.subset("val")
    prepared = prepare_all(val_mols, mcfg)
    truth = np.array([m.targets["u0"] for m in val_mols])
    init_val = float(np.mean(np.abs(evaluate(init, val_mols, prepared, mcfg) - truth)))

    drift_slow = abs(slow.epochs[1].val_mae - init_val)
    drift_fast = abs(fast.epochs[1].val_mae - init_val)
    assert drift_fast > 10.0 * drift_slow


def test_validation_with_decay_zero_tracks_raw_weights(tmp_path):
    ds = _toy_dataset(6, fractions=(0.67, 0.33, 0.0))
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    tcfg = TrainConfig(
        target="u0", epochs=1, base_lr=1e-3, batch_group=6, seed=6, ema_decay=0.0
    )
    result = train(ds, mcfg, tcfg, tmp_path / "model.ckpt")
    val_mols = ds.subset("val")
    prepared = prepare_all(val_mols, mcfg)
    preds = evaluate(result.params, val_mols, prepared, mcfg)
    truth = np.array([m.targets["u0"] for m in val_mols])
    assert float(np.mean(np.abs(preds - truth))) == result.report.epochs[0].val_mae


def test_empty_validation_split_is_allowed(tmp_path):
    ds = _toy_dataset(6, fractions=(1.0, 0.0, 0.0))
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    tcfg = TrainConfig(target="u0", epochs=2, batch_group=3, seed=7)
    result = train(ds, mcfg, tcfg, tmp_path / "model.ckpt")
    assert all(math.isnan(e.val_mae) for e in result.report.epochs)
    assert math.isfinite(result.report.final_train_mae)


def test_train_rejects_missing_target(tmp_path):
    ds = _toy_dataset(6)
    tcfg = TrainConfig(target="nope", epochs=1)
    with pytest.raises(KeyError):
        train(ds, ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1), tcfg, tmp_path / "m.ckpt")


def test_train_rejects_a_negative_seed_before_featurizing(tmp_path, monkeypatch):
    # The config refuses the seed itself, so no run gets as far as
    # init_params, whose numpy error would name no field.
    calls = []
    monkeypatch.setattr(training, "prepare_all", lambda *a: calls.append(a))
    ds = _toy_dataset(6)
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        train(ds, mcfg, TrainConfig(target="u0", seed=-1), tmp_path / "m.ckpt")
    assert calls == []
    assert not (tmp_path / "m.ckpt").exists()


def test_train_rejects_unsplit_or_empty_data(tmp_path):
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    with pytest.raises(ValueError):
        train(Dataset(fixtures.overfit_set(4)), mcfg, TrainConfig(target="u0"), tmp_path / "m.ckpt")
    empty_train = split_dataset(
        Dataset(fixtures.overfit_set(4)), (0.0, 0.5, 0.5), seed=0
    )
    with pytest.raises(ValueError):
        train(empty_train, mcfg, TrainConfig(target="u0"), tmp_path / "m.ckpt")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostic(tmp_path):
    ds = _toy_dataset(4)
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    tcfg = TrainConfig(
        target="u0", epochs=5, base_lr=1e150, batch_group=1, seed=8, patience=50
    )
    with pytest.raises(FloatingPointError) as e:
        train(ds, mcfg, tcfg, tmp_path / "model.ckpt")
    assert "non-finite" in str(e.value)


def _recorded_saves(monkeypatch):
    """Paths ``train`` saves checkpoints to, in order."""
    saves = []

    def recorded(store, path):
        saves.append(str(path))
        save_checkpoint(store, path)

    monkeypatch.setattr(training, "save_checkpoint", recorded)
    return saves


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_run_that_diverges_after_improving_removes_its_best_file(tmp_path, monkeypatch):
    # One step per epoch, the first at learning rate 0: epoch 0 improves
    # on validation and saves, the second step diverges.
    ds = _toy_dataset(8, fractions=(0.5, 0.5, 0.0))
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    tcfg = TrainConfig(target="u0", epochs=5, base_lr=1e150, batch_group=4, seed=8)
    ckpt = tmp_path / "model.ckpt"
    saves = _recorded_saves(monkeypatch)
    with pytest.raises(FloatingPointError, match="non-finite"):
        train(ds, mcfg, tcfg, ckpt)
    assert saves == [f"{ckpt}.best"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("fractions", [(0.5, 0.5, 0.0), (1.0, 0.0, 0.0)], ids=["val", "no val"])
def test_train_checkpoints_the_weights_it_returns(tmp_path, monkeypatch, fractions):
    # With validation, every improvement goes to the .best file, which ends
    # as the checkpoint; without, the final EMA is saved once.  A .best file
    # left by an earlier killed run is gone either way.
    ds = _toy_dataset(8, fractions=fractions)
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    tcfg = TrainConfig(target="u0", epochs=3, base_lr=5e-3, batch_group=2, seed=9)
    ckpt = tmp_path / "model.ckpt"
    (tmp_path / "model.ckpt.best").write_bytes(b"stale")
    saves = _recorded_saves(monkeypatch)
    result = train(ds, mcfg, tcfg, ckpt)
    assert os.listdir(tmp_path) == ["model.ckpt"]
    assert load_checkpoint(ckpt).flat.tobytes() == result.params.flat.tobytes()
    if fractions[1]:
        best, improvements = math.inf, 0
        for e in result.report.epochs:
            if e.val_mae < best:
                best, improvements = e.val_mae, improvements + 1
        assert improvements >= 1
        assert saves == [f"{ckpt}.best"] * improvements
    else:
        assert saves == [str(ckpt)]
