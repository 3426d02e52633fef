"""Molecule shards across a rank group: same results, one fork, no stray
children.

Two or three ranks are forced by patching the private core count and
minimum work per rank.  These tests need an OpenBLAS whose thread count can be set;
elsewhere every run stays in one process and they are skipped.
"""

import json
import math
import os
import signal
import time

import numpy as np
import pytest

from mxmnet import cli, fixtures, training
from mxmnet.autodiff import backward
from mxmnet.model import (
    ModelConfig,
    _param_layout,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from mxmnet.training import TrainConfig, evaluate, prepare_all, train

from conftest import rel_gap

pytestmark = pytest.mark.skipif(
    training._openblas() is None,
    reason="shards need an OpenBLAS with a settable thread count",
)

TINY = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)


@pytest.fixture
def shards(monkeypatch):
    """``shards(n)`` makes every list of at least n molecules split n ways."""

    def force(n):
        monkeypatch.setattr(training, "_usable_cores", lambda: n)
        monkeypatch.setattr(training, "_MIN_SHARD_MESSAGES", 1)

    return force


@pytest.fixture(autouse=True)
def bounded():
    """Fail a test that hangs (a child never reaped, a pipe never closed)
    instead of stalling the suite; children do not inherit the alarm."""

    def expire(signum, frame):
        raise TimeoutError("test did not finish within 120 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _prepared(n=4):
    mols = fixtures.overfit_set(n, seed=7)
    return mols, prepare_all(mols, TINY)


def test_shard_bounds_are_contiguous_cover_the_input_and_balance_cost():
    rng = np.random.default_rng(0)
    for _ in range(200):
        costs = rng.integers(1, 2000, size=int(rng.integers(1, 40))).tolist()
        for n in (1, 2, 3, 4):
            bounds = training._shard_bounds(costs, n)
            assert bounds[0][0] == 0 and bounds[-1][1] == len(costs)
            assert all(lo < hi for lo, hi in bounds)
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            assert len(bounds) <= n
            # Each cut is the nearest whole item to its target, so no
            # shard is off its even share by more than one item's cost.
            if len(bounds) == n:
                share = sum(costs) / n
                for lo, hi in bounds:
                    assert abs(sum(costs[lo:hi]) - share) <= max(costs)
    assert training._shard_bounds([5, 1, 1, 1, 1, 1], 2) == [(0, 1), (1, 6)]
    # Both cuts of a three-way split land after the one heavy item.
    assert training._shard_bounds([100, 1, 1], 3) == [(0, 1), (1, 3)]


def _sizes(cfg):
    return [math.prod(shape) for _, shape, _ in _param_layout(cfg)]


def test_rank_ranges_cover_every_scalar_once_and_balance():
    # Each rank's Adam and EMA range is its even share of the scalars; a
    # cut may fall inside a parameter.
    for n in (0, 1, 5, 7, sum(_sizes(TINY)), sum(_sizes(ModelConfig()))):
        for n_ranks in (1, 2, 3, 4):
            parts = [training._even_share(n, n_ranks, rank) for rank in range(n_ranks)]
            assert parts[0].start == 0 and parts[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
            held = [p.stop - p.start for p in parts]
            assert min(held) >= 0 and max(held) - min(held) <= 1
            assert sum(held) == n
    assert [training._even_share(5, 3, rank) for rank in range(3)] == [
        slice(0, 1), slice(1, 3), slice(3, 5)
    ]


def test_small_or_single_core_work_stays_in_one_process(monkeypatch):
    _, prepared = _prepared(4)
    costs = training._message_costs(prepared)
    # Four small molecules are far below the minimum work per rank.
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
    assert training._plan_ranks(costs) == 1
    monkeypatch.setattr(training, "_MIN_SHARD_MESSAGES", 1)
    assert training._plan_ranks(costs) == 2
    assert training._shard_bounds(costs, 2) == [(0, 2), (2, 4)]
    monkeypatch.setattr(training, "_usable_cores", lambda: 1)
    assert training._plan_ranks(costs) == 1


def test_sharded_evaluate_is_bit_identical_to_one_shard(shards):
    mols, prepared = _prepared(8)
    params = init_params(TINY, 3)
    one = evaluate(params, mols, prepared, TINY)
    shards(2)
    assert training._plan_ranks(training._message_costs(prepared)) == 2
    two = evaluate(params, mols, prepared, TINY)
    assert one.shape == (8,) and one.tobytes() == two.tobytes()
    assert evaluate(params, [], [], TINY).shape == (0,)
    _no_children_left()


def test_sharded_train_matches_one_shard(tmp_path, shards):
    ds = fixtures.dataset_from(fixtures.overfit_set(8, seed=7), (0.75, 0.25, 0.0), 0)
    # Steps of four and two molecules.
    tcfg = TrainConfig(target="u0", epochs=3, base_lr=5e-3, batch_group=4, seed=1)
    one = train(ds, TINY, tcfg, tmp_path / "model.ckpt")
    shards(2)
    two = train(ds, TINY, tcfg, tmp_path / "model.ckpt")
    again = train(ds, TINY, tcfg, tmp_path / "model.ckpt")
    for name, t in one.params.items():
        assert rel_gap(two.params[name].data, t.data) <= 1e-12, name
        assert again.params[name].data.tobytes() == two.params[name].data.tobytes()
    for a, b in zip(one.report.epochs, two.report.epochs):
        assert abs(a.train_loss - b.train_loss) <= 1e-12 * abs(a.train_loss)
        assert abs(a.val_mae - b.val_mae) <= 1e-12 * abs(a.val_mae)
    assert [e.train_loss for e in again.report.epochs] == [
        e.train_loss for e in two.report.epochs
    ]
    _no_children_left()


def test_more_ranks_than_cores_sum_every_gradient(tmp_path, shards):
    # Four ranks on fewer cores, one or two molecules each per step and six
    # steps: a gradient added out of turn, cleared before every rank read
    # it, or read before every rank added to it, or a slice of the shared
    # weights read before its rank updated it, moves the weights.
    ds = fixtures.dataset_from(fixtures.overfit_set(12, seed=7), (0.5, 0.5, 0.0), 0)
    tcfg = TrainConfig(target="u0", epochs=3, base_lr=5e-3, batch_group=4, seed=2)
    one = train(ds, TINY, tcfg, tmp_path / "model.ckpt")
    shards(4)
    four = train(ds, TINY, tcfg, tmp_path / "model.ckpt")
    again = train(ds, TINY, tcfg, tmp_path / "model.ckpt")
    for name, t in one.params.items():
        assert rel_gap(four.params[name].data, t.data) <= 1e-12, name
        assert again.params[name].data.tobytes() == four.params[name].data.tobytes()
    for a, b in zip(one.report.epochs, four.report.epochs):
        assert abs(a.val_mae - b.val_mae) <= 1e-12 * abs(a.val_mae)
    _no_children_left()


def test_a_two_rank_result_outlives_its_group(tmp_path, shards):
    # With a validation split the weights returned are the best EMA weights,
    # read back into the parameter vector, without one the EMA shadow; both
    # live in the group's shared memory.
    mols = fixtures.overfit_set(8, seed=7)
    for fractions in ((0.75, 0.25, 0.0), (1.0, 0.0, 0.0)):
        ds = fixtures.dataset_from(mols, fractions, 0)
        tcfg = TrainConfig(target="u0", epochs=2, base_lr=5e-3, batch_group=6, seed=1)
        shards(1)
        one = train(ds, TINY, tcfg, tmp_path / "model.ckpt").params
        shards(2)
        result = train(ds, TINY, tcfg, tmp_path / "model.ckpt")
        two = result.params
        _no_children_left()
        # They are the weights the report's figures were measured on, and
        # the ones train checkpointed.
        report = result.report
        for split, figure in (("val", report.best_val_mae), ("train", report.final_train_mae)):
            mols_used = ds.subset(split)
            if mols_used:
                preds = evaluate(two, mols_used, prepare_all(mols_used, TINY), TINY)
                truths = np.array([m.targets["u0"] for m in mols_used])
                assert float(np.mean(np.abs(preds - truths))) == figure, split
        assert load_checkpoint(tmp_path / "model.ckpt").flat.tobytes() == two.flat.tobytes()
        ckpt = tmp_path / "two.ckpt"
        save_checkpoint(two, ckpt)
        back = load_checkpoint(ckpt)
        assert back.names() == two.names() == one.names()
        for name, t in two.items():
            assert back[name].data.tobytes() == t.data.tobytes()
            assert rel_gap(t.data, one[name].data) <= 1e-12, name


def _train_cli(tmp_path, name, *flags):
    # Six train and six validation molecules: both the steps and the
    # validation passes split in two.
    manifest = fixtures.write_molecule_dir(fixtures.overfit_set(12, seed=7), tmp_path / "mols")
    out = tmp_path / name
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(
        f"manifest = {manifest}\ntarget = u0\nhidden = 8\nlayers = 1\n"
        f"residuals = 1\nepochs = 3\ntrain_frac = 0.5\nval_frac = 0.5\n"
        f"test_frac = 0.0\nout = {out}\n"
    )
    return cli.main(["train", "--config", str(cfg), *flags]), out


def test_sharded_train_command_reruns_byte_identical(tmp_path, shards):
    shards(2)
    for name in ("a", "b"):
        assert _train_cli(tmp_path, name)[0] == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()

    def rows(out):
        # Every column but the wall-clock seconds.
        return [r.rsplit(",", 1)[0] for r in (out / "report.csv").read_text().splitlines()]

    assert rows(a) == rows(b)
    _no_children_left()


def test_a_forced_two_rank_train_counts_its_rank(tmp_path, shards):
    shards(2)
    code, out = _train_cli(tmp_path, "run")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    # Rank 1 ran a share of every step: its peak and faults are its own.
    assert summary["worker_peak_rss_mb"] > 0
    assert summary["worker_minor_page_faults"] > 0
    _no_children_left()


def test_diverging_sharded_run_names_the_same_molecule(tmp_path, capsys, shards):
    code, _ = _train_cli(tmp_path, "one", "--lr", "1e150")
    one = capsys.readouterr().err
    shards(2)
    code_two, _ = _train_cli(tmp_path, "two", "--lr", "1e150")
    two = capsys.readouterr().err
    assert code == code_two == 2
    assert "Traceback" not in two
    lines = [ln for ln in two.splitlines() if ln.startswith("error: ")]
    assert len(lines) == 1 and two.count("\n") == 1
    assert "non-finite" in lines[0] and "for molecule" in lines[0]
    assert lines[0] == one.strip()
    _no_children_left()


def test_a_non_finite_gradient_in_rank_1s_slice_fails_as_in_one_rank(
    tmp_path, capsys, monkeypatch, shards
):
    # The ranks' cut falls inside a parameter, and the bad value lies in
    # rank 1's part of it: rank 0 does not update it, but checks the whole
    # sum and names the parameter the same way.
    sizes = _sizes(TINY)
    ends = np.cumsum(sizes).tolist()
    cut = training._even_share(sum(sizes), 2, 1).start
    k = next(k for k, end in enumerate(ends) if end > cut)
    assert ends[k] - sizes[k] < cut
    name = _param_layout(TINY)[k][0]
    stores = []

    def kept(*args, **kwargs):
        stores.append(init_params(*args, **kwargs))
        return stores[-1]

    def poisoned(out, tape, grad):
        backward(out, tape, grad)
        stores[-1][name].grad.reshape(-1)[-1] = np.inf

    monkeypatch.setattr(training, "init_params", kept)
    monkeypatch.setattr(training, "backward", poisoned)
    code, _ = _train_cli(tmp_path, "one")
    one = capsys.readouterr().err
    shards(2)
    code_two, out = _train_cli(tmp_path, "two")
    two = capsys.readouterr().err
    assert code == code_two == 2
    assert one == two == f"error: non-finite gradient for parameter {name!r}\n"
    assert not (out / "model.ckpt").exists()
    _no_children_left()


def test_a_forced_two_rank_train_forks_once(tmp_path, monkeypatch, shards):
    ds = fixtures.dataset_from(fixtures.overfit_set(8, seed=7), (0.75, 0.25, 0.0), 0)
    tcfg = TrainConfig(target="u0", epochs=3, batch_group=3, seed=1)
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    shards(2)
    monkeypatch.setattr(os, "fork", counted)
    train(ds, TINY, tcfg, tmp_path / "model.ckpt")
    # Six steps, three validations and the final evaluation, one fork.
    assert forks == [os.getpid()]
    _no_children_left()


def _failing_forward(monkeypatch, fail):
    """Make ``training.forward`` call ``fail(m)`` before each molecule."""

    def patched(m, *args, **kwargs):
        fail(m)
        return forward(m, *args, **kwargs)

    monkeypatch.setattr(training, "forward", patched)


def test_earliest_failing_shard_wins_with_its_type_and_message(monkeypatch, shards):
    mols, prepared = _prepared(6)
    params = init_params(TINY, 3)
    shards(3)
    bounds = training._shard_bounds(training._message_costs(prepared), 3)
    assert len(bounds) == 3
    first = {mols[lo].key: rank for rank, (lo, _) in enumerate(bounds)}

    def fail_past_first(m):
        rank = first.get(m.key, 0)
        if rank == 1:
            time.sleep(0.5)  # rank 2 fails first, but rank 1 comes first
        if rank:
            raise KeyError(f"molecule {m.key}")

    _failing_forward(monkeypatch, fail_past_first)
    with pytest.raises(KeyError) as e:
        evaluate(params, mols, prepared, TINY)
    assert e.value.args == (f"molecule {mols[bounds[1][0]].key}",)
    _no_children_left()

    def fail_everywhere(m):
        raise FloatingPointError(f"molecule {m.key}")

    _failing_forward(monkeypatch, fail_everywhere)
    with pytest.raises(FloatingPointError, match=f"^molecule {mols[0].key}$"):
        evaluate(params, mols, prepared, TINY)
    _no_children_left()


def test_an_exception_that_cannot_be_pickled_arrives_as_its_type_and_message(
    monkeypatch, shards
):
    mols, prepared = _prepared(4)
    params = init_params(TINY, 3)
    shards(2)
    parent = os.getpid()

    class Unpicklable(Exception):  # a local class: pickle cannot find it
        pass

    def fail_past_first(m):
        if os.getpid() != parent:
            raise Unpicklable(f"molecule {m.key}")

    _failing_forward(monkeypatch, fail_past_first)
    bounds = training._shard_bounds(training._message_costs(prepared), 2)
    with pytest.raises(RuntimeError) as e:
        evaluate(params, mols, prepared, TINY)
    assert type(e.value) is RuntimeError
    assert e.value.args == (f"Unpicklable: molecule {mols[bounds[1][0]].key}",)
    _no_children_left()


def test_a_dying_child_raises_instead_of_hanging(tmp_path, monkeypatch, shards):
    ds = fixtures.dataset_from(fixtures.overfit_set(8, seed=7), (0.75, 0.25, 0.0), 0)
    tcfg = TrainConfig(target="u0", epochs=3, batch_group=4, seed=1)
    parent = os.getpid()
    shards(2)
    seen, last = [], []

    def die(m):
        if os.getpid() != parent:
            seen.append(m.key)
            if len(seen) == last[0]:
                os._exit(3)

    _failing_forward(monkeypatch, die)
    # A rank other than 0 dies on its first forward, or during the third
    # step, after it has added two gradients.
    for calls in (1, 5):
        last[:] = [calls]
        with pytest.raises(ChildProcessError, match="exit status 3"):
            train(ds, TINY, tcfg, tmp_path / "model.ckpt")
        _no_children_left()


def test_a_child_that_dies_with_a_message_unread_raises_instead_of_hanging(
    tmp_path, monkeypatch, shards
):
    # Rank 0 finishes its shard and tells rank 1 to add its gradient while
    # rank 1 is still in its first forward; rank 1 then dies without reading
    # it, which resets its end of the connection rather than closing it.
    ds = fixtures.dataset_from(fixtures.overfit_set(8, seed=7), (0.75, 0.25, 0.0), 0)
    tcfg = TrainConfig(target="u0", epochs=1, batch_group=6, seed=1)
    parent = os.getpid()
    shards(2)

    def die_late(m):
        if os.getpid() != parent:
            time.sleep(0.5)
            os._exit(3)

    _failing_forward(monkeypatch, die_late)
    with pytest.raises(ChildProcessError, match="exit status 3"):
        train(ds, TINY, tcfg, tmp_path / "model.ckpt")
    _no_children_left()


def test_interrupt_kills_and_reaps_children_and_restores_blas(monkeypatch, shards):
    mols, prepared = _prepared(4)
    params = init_params(TINY, 3)
    shards(2)
    get_threads, set_threads = training._openblas()
    original = get_threads()
    set_threads(3)  # not 1, so that a missing restore shows
    before = get_threads()
    parent = os.getpid()
    seen = []

    def interrupted(m):
        if os.getpid() != parent:
            time.sleep(60)  # killed by rank 0 long before this ends
        seen.append(get_threads())
        raise KeyboardInterrupt

    _failing_forward(monkeypatch, interrupted)
    t0 = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            evaluate(params, mols, prepared, TINY)
        after = get_threads()
    finally:
        set_threads(original)
    assert time.perf_counter() - t0 < 30
    assert seen == [1]
    assert after == before
    _no_children_left()
