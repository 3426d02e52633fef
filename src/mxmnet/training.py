"""Optimization: Adam, warmup/decay schedule, EMA weights, the train loop.

Single-target regression on molecule datasets.  Each optimizer step
averages gradients over a group of molecules: one tape per molecule holds
its forward pass, the loss is plain float arithmetic on the prediction,
and backward is seeded with the loss's slope over the group size, so the
gradients accumulate to the mean.  Targets are computed once per run.
Validation always runs on the exponential moving average of the weights;
the best-validation EMA weights are what training returns and checkpoints.
They wait on disk, in a checkpoint file saved at each improvement, not in
memory.

Work is split into contiguous shards across a rank group of processes,
one per usable core, when each gets enough work (see ``_RankGroup``).
``train`` forks its ranks once, after featurization.  The ranks share one
copy of the training state, flat vectors of the parameters, Adam's
moments and the EMA shadow; each sums its shard's gradients into one
shared vector, then updates its even share of the scalars.  A standalone
``evaluate`` forks once for its call.

Everything is seeded and single-run deterministic: two runs with the same
dataset, config, seeds and usable core count produce identical reports
apart from wall time.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import mmap
import os
import pickle
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, backward
from .data import Dataset, subtract_atomrefs
from .graph import count_messages
from .model import (
    ModelConfig,
    ParamStore,
    _integer,
    _param_layout,
    _real,
    forward,
    init_params,
    load_checkpoint,
    prepare_inputs,
    save_checkpoint,
)

__all__ = [
    "TrainConfig",
    "AdamState",
    "adam_step",
    "lr_at",
    "EmaWeights",
    "Metrics",
    "compute_metrics",
    "EpochStats",
    "TrainReport",
    "TrainResult",
    "evaluate",
    "train",
    "prepare_all",
]


def prepare_all(molecules, cfg: ModelConfig):
    """Graph + features per molecule, in input order, by ``prepare_inputs``.

    A molecule that cannot be featurized raises ``ValueError`` with its key
    in front of the reason.
    """
    prepared = []
    for m in molecules:
        try:
            prepared.append(prepare_inputs(m, cfg))
        except ValueError as e:
            raise ValueError(f"molecule {m.key!r}: {e}") from e
    return prepared


# The paper's schedule: the rate ramps up over one epoch, then falls tenfold
# every ``TrainConfig.decay_epochs``.
_WARMUP_EPOCHS = 1.0
_DECAY_RATIO = 0.1


@dataclass
class TrainConfig:
    target: str
    epochs: int = 900
    base_lr: float = 1e-3
    batch_group: int = 32
    seed: int = 0
    loss: str = "mae"
    patience: int = 50
    decay_epochs: float = 600.0
    ema_decay: float = 0.999
    atomrefs: dict[int, float] | None = None

    def __post_init__(self):
        if self.loss not in ("mae", "mse"):
            raise ValueError(f"loss must be 'mae' or 'mse', got {self.loss!r}")
        if _integer(self, "epochs") < 0:
            raise ValueError("epochs must be non-negative")
        if _integer(self, "batch_group") < 1:
            raise ValueError("batch_group must be at least 1")
        if _integer(self, "seed") < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if _integer(self, "patience") < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        if not 0.0 < _real(self, "base_lr") < math.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not 0.0 < _real(self, "decay_epochs") < math.inf:
            raise ValueError(
                f"decay_epochs must be positive and finite, got {self.decay_epochs}"
            )
        if not 0.0 <= _real(self, "ema_decay") < 1.0:
            raise ValueError("ema_decay must lie in [0, 1)")


def lr_at(
    step: int,
    steps_per_epoch: int,
    base_lr: float,
    decay_epochs: float = TrainConfig.decay_epochs,
) -> float:
    """Learning rate at a global step: linear warmup from zero across the
    first epoch, then continuous exponential decay by a factor of ten every
    ``decay_epochs`` epochs.  Continuous at the warmup boundary."""
    if steps_per_epoch < 1:
        raise ValueError("steps_per_epoch must be at least 1")
    warm_steps = _WARMUP_EPOCHS * steps_per_epoch
    if step < warm_steps:
        return base_lr * step / warm_steps
    epochs_past = (step - warm_steps) / steps_per_epoch
    return base_lr * _DECAY_RATIO ** (epochs_past / decay_epochs)


# Scalars per pass of ``adam_step`` and ``EmaWeights.update``.  A paper-dims
# train benchmark run peaked at 234 MB RSS in blocks of 2^14, 243 MB in
# blocks of 2^16 and 272 MB in one pass per rank.  At 128 KiB per array a
# block also fits a 2 MiB L2 cache: a whole paper-dims Adam step took 40 ms,
# against 67 ms in blocks of 2^16 (one Xeon core).
_BLOCK = 1 << 14


def _blocks(part: slice, n: int):
    """Consecutive slices of at most ``_BLOCK`` scalars covering ``part``."""
    lo, hi, _ = part.indices(n)
    for a in range(lo, hi, _BLOCK):
        yield slice(a, min(a + _BLOCK, hi))


class AdamState:
    """First/second moment vectors ``m`` and ``v``, laid out like
    ``store.flat`` (zeros when not given), plus the step counter."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, store: ParamStore, m=None, v=None):
        self.m = np.zeros_like(store.flat) if m is None else m
        self.v = np.zeros_like(store.flat) if v is None else v
        self.step = 0


def adam_step(store: ParamStore, grad, state: AdamState, lr: float, part=slice(None)):
    """One bias-corrected Adam update in place from ``grad``, a vector laid
    out like ``store.flat``, which is left untouched.

    Only the scalars at ``part``, a slice of ``store.flat`` (all by
    default), and their moments change, so processes that share the
    vectors can each update their own part.  The whole gradient is checked
    first: a non-finite value aborts with its parameter's name, before
    anything changes.
    """
    bad = store.first_non_finite(grad)
    if bad is not None:
        raise FloatingPointError(f"non-finite gradient for parameter {bad!r}")
    state.step += 1
    t = state.step
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for k in _blocks(part, grad.size):
        g, m, v, p = grad[k], state.m[k], state.v[k], store.flat[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


class EmaWeights:
    """Exponential moving average of a parameter store.

    ``shadow`` is a store of the same layout over ``out`` when given, or a
    fresh vector, and starts as a copy of the live weights; after every
    optimizer step ``update`` moves each shadow value by (1 - decay) toward
    the live one, for the scalars at ``part`` as in ``adam_step``.
    """

    def __init__(
        self, store: ParamStore, decay: float = TrainConfig.ema_decay, out=None
    ):
        self.decay = float(decay)
        self.shadow = store.like(np.empty_like(store.flat) if out is None else out)
        self.shadow.flat[...] = store.flat

    def update(self, store: ParamStore, part=slice(None)):
        d = self.decay
        for k in _blocks(part, store.flat.size):
            s = self.shadow.flat[k]
            s *= d
            s += (1.0 - d) * store.flat[k]


@dataclass
class Metrics:
    mae: float
    std_mae: float | None  # mae / population std of the train targets
    pearson_r: float | None  # None when either side has zero variance
    n: int


def compute_metrics(pred, truth, sigma: float | None = None) -> Metrics:
    """Aggregate error metrics; degenerate denominators yield None fields."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("metrics need at least one sample")
    mae = float(np.mean(np.abs(pred - truth)))
    std_mae = None
    if sigma is not None:
        if sigma <= 0:
            raise ValueError("normalized MAE undefined: training std is zero")
        std_mae = mae / sigma
    pc = pred - pred.mean()
    tc = truth - truth.mean()
    denom = math.sqrt(float(pc @ pc) * float(tc @ tc))
    pearson = float(pc @ tc) / denom if denom > 0 else None
    return Metrics(mae=mae, std_mae=std_mae, pearson_r=pearson, n=pred.size)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_mae: float  # nan when the validation split is empty
    lr: float
    seconds: float


@dataclass
class TrainReport:
    """Per-epoch log plus end-of-run summary values.

    ``final_train_mae`` is the returned (best EMA) weights evaluated on the
    train split, the same computation the eval command performs.
    """

    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_mae: float = math.nan
    final_train_mae: float = math.nan

    CSV_COLUMNS = ("epoch", "train_loss", "val_mae", "lr", "seconds")

    def to_csv(self, path):
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_COLUMNS)
            for e in self.epochs:
                w.writerow(
                    [
                        e.epoch,
                        repr(e.train_loss),
                        repr(e.val_mae),
                        repr(e.lr),
                        repr(e.seconds),
                    ]
                )


@dataclass
class TrainResult:
    report: TrainReport
    params: ParamStore  # best-validation EMA weights (final EMA if no val)


def evaluate(
    params: ParamStore,
    molecules,
    prepared,
    model_cfg: ModelConfig,
    ranks: _RankGroup | None = None,
):
    """Predictions over a molecule list, one per molecule in an array, no
    tape, fixed weights.

    A non-finite prediction raises ``FloatingPointError`` naming the
    molecule.  The molecules are split across the processes of ``ranks``,
    the rank group of a running ``train`` whose every rank makes the same
    call; without it the call opens a group of its own when the work is
    large enough (``_plan_ranks``).  Each prediction is the same either way.
    """
    n = len(molecules)
    costs = _message_costs(prepared)

    def predict(lo, hi, row):
        for k in range(lo, hi):
            m = molecules[k]
            row[k] = forward(m, params, model_cfg, feats=prepared[k][1]).item()
            if not math.isfinite(row[k]):
                raise FloatingPointError(f"non-finite prediction for molecule {m.key!r}")

    if ranks is None:
        group = _RankGroup(_plan_ranks(costs), 0, n)
    else:
        group = contextlib.nullcontext(ranks)
    with group as ranks:
        return ranks.run(costs, predict)[:n].copy()


def train(
    ds: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig, checkpoint
) -> TrainResult:
    """Run the full loop, write the best EMA weights to ``checkpoint`` and
    return them with the report.

    The dataset must be split with a non-empty train subset.  An empty
    validation subset is allowed: validation, early stopping and best-model
    tracking then degrade to keeping the final EMA weights.

    Each validation improvement saves the EMA weights to
    ``<checkpoint>.best`` (``save_checkpoint``), so no vector holds them
    while training runs.  At the end they are read back into the parameter
    vector, which no step reads any more, for the final train-split
    evaluation, and the file is renamed onto ``checkpoint``.  A run that
    raises removes ``<checkpoint>.best`` and leaves ``checkpoint`` as it
    was; a killed run leaves its best weights so far in the ``.best`` file.

    When the heaviest possible step holds enough work for several cores
    (``_plan_ranks``), the run forks once, after featurization and after
    the parameters, Adam's moments and the EMA shadow are made in the rank
    group's shared memory: every rank runs this loop over its shard of each
    step, validation and the final evaluation, and updates its own range
    of the scalars of the shared parameters, moments and shadow (see
    ``_RankGroup``).  Rank 0 alone writes the files.  The returned weights
    view that memory.
    """
    if ds.split is None:
        raise ValueError("dataset must be split before training")
    train_mols = ds.subset("train")
    val_mols = ds.subset("val")
    if not train_mols:
        raise ValueError("training split is empty")
    # Once per run, and before any featurization: a bad target name fails fast.
    target, refs = train_cfg.target, train_cfg.atomrefs
    truths = np.array([subtract_atomrefs(m, target, refs) for m in train_mols])
    val_truths = np.array([subtract_atomrefs(m, target, refs) for m in val_mols])

    train_prep = prepare_all(train_mols, model_cfg)
    val_prep = prepare_all(val_mols, model_cfg)

    n = len(train_mols)
    group = min(train_cfg.batch_group, n)
    steps_per_epoch = math.ceil(n / group)
    costs = _message_costs(train_prep)
    n_scalars = sum(math.prod(shape) for _, shape, _ in _param_layout(model_cfg))
    size = _plan_ranks(sorted(costs)[-group:])
    ranks = _RankGroup(size, n_scalars, max(n, len(val_mols)), n_state=4)
    # One copy of the training state, in the group's memory and filled
    # before the fork.  Each rank writes only its own range of it
    # (``mine``), and every ``ranks.run`` starts at a barrier, so no rank
    # reads a range that another is still writing.
    live, adam_m, adam_v, shadow = ranks.state
    params = init_params(model_cfg, train_cfg.seed, out=live)
    state = AdamState(params, adam_m, adam_v)
    ema = EmaWeights(params, train_cfg.ema_decay, out=shadow)
    rng = np.random.default_rng(train_cfg.seed)
    best_file = f"{os.fspath(checkpoint)}.best"

    # Ranks past the first leave through ``os._exit`` when ``ranks`` closes,
    # so only rank 0 removes the file a failed run leaves.
    with _removed_at_exit(best_file), ranks:
        mine = _even_share(n_scalars, ranks.size, ranks.rank)
        params.point_grads(ranks.own_grad)
        report = TrainReport()
        best_val = math.inf
        since_best = 0

        for epoch in range(train_cfg.epochs):
            t0 = time.perf_counter()
            order = rng.permutation(n)
            losses = np.empty(n, dtype=np.float64)
            lr = 0.0
            for lo in range(0, n, group):
                chunk = order[lo : lo + group]

                def accumulate(a, b, row, chunk=chunk):
                    for pos in range(a, b):
                        idx = chunk[pos]
                        m = train_mols[idx]
                        with Tape() as tape:
                            y = forward(m, params, model_cfg, feats=train_prep[idx][1])
                        loss, slope = _loss(y.item() - truths[idx], train_cfg.loss)
                        if not math.isfinite(loss):
                            raise FloatingPointError(
                                f"non-finite loss for molecule {m.key!r} at epoch {epoch}"
                            )
                        backward(y, tape, (1.0 / len(chunk)) * slope)
                        row[pos] = loss

                row = ranks.run([costs[i] for i in chunk], accumulate, grads=True)
                losses[chunk] = row[: len(chunk)]
                lr = lr_at(
                    state.step, steps_per_epoch, train_cfg.base_lr, train_cfg.decay_epochs
                )
                adam_step(params, ranks.grad, state, lr, mine)
                ema.update(params, mine)
            val_mae = math.nan
            if val_mols:
                preds = evaluate(ema.shadow, val_mols, val_prep, model_cfg, ranks)
                val_mae = float(np.mean(np.abs(preds - val_truths)))
            report.epochs.append(
                EpochStats(
                    epoch=epoch,
                    train_loss=float(losses.mean()),
                    val_mae=val_mae,
                    lr=lr,
                    seconds=time.perf_counter() - t0,
                )
            )
            if val_mols:
                if val_mae < best_val:
                    best_val = val_mae
                    # The validation pass ended at a barrier, so every
                    # rank's range of the shadow is in place, and none
                    # changes it before the next step's opening barrier.
                    if ranks.rank == 0:
                        save_checkpoint(ema.shadow, best_file)
                    report.best_epoch = epoch
                    report.best_val_mae = val_mae
                    since_best = 0
                else:
                    since_best += 1
                    if since_best >= train_cfg.patience:
                        break

        if report.best_epoch >= 0:
            best = params.like(live)
            if ranks.rank == 0:
                load_checkpoint(best_file, out=live)
        else:
            best = ema.shadow
            if report.epochs:
                report.best_epoch = report.epochs[-1].epoch
        preds = evaluate(best, train_mols, train_prep, model_cfg, ranks)
        report.final_train_mae = float(np.mean(np.abs(preds - truths)))
        if ranks.rank == 0:
            if best is ema.shadow:
                save_checkpoint(best, checkpoint)
            else:
                os.replace(best_file, checkpoint)
        return TrainResult(report=report, params=best)


@contextlib.contextmanager
def _removed_at_exit(path):
    """Remove ``path``, if it is there, when the block ends."""
    try:
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _loss(r: float, kind: str) -> tuple[float, float]:
    """A molecule's loss for the residual ``r`` (prediction minus truth)
    and its slope d(loss)/dr: absolute, with slope 0 at ``r == 0``, for
    ``mae``; squared for ``mse``."""
    if kind == "mae":
        return abs(r), np.sign(r)
    return r * r, 2 * r


# --- rank group --------------------------------------------------------------

# Fewest closed-form messages per block (``graph.count_messages``) that each
# rank must get from a train run's heaviest step, or from a standalone
# ``evaluate``, for the work to fork: about eight QM9-sized molecules, which
# with bonds as the local layer have about 900 each.  At 260 MB RSS a fork
# and its reap cost about 10 ms, and the copy-on-write faults it leaves on
# the heap about 35 ms more.
_MIN_SHARD_MESSAGES = 7_500

# Messages on a rank's connection.  Up, to rank 0: the rank has reached the
# barrier, or the exception it failed with.  Down, from rank 0: add your
# gradient now; every rank has reached the barrier.
_DONE = b"K"
_ADD, _READY = b"A", b"R"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return 1


@functools.cache
def _openblas():
    """(get, set) of the loaded OpenBLAS's thread count, or None.

    The library is found in ``/proc/self/maps``; numpy's wheels load it as
    ``scipy_openblas`` with a ``64_`` symbol suffix.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted(
                {f[5] for f in map(str.split, fh) if len(f) == 6 and "openblas" in f[5]}
            )
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("", ""), ("scipy_", "64_")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


def _message_costs(prepared) -> list[int]:
    return [count_messages(g, feats).total for g, feats in prepared]


def _shard_bounds(costs, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges covering ``costs``, with cost sums as
    even as whole items allow; empty ranges are dropped."""
    prefix = np.concatenate(([0], np.cumsum(costs, dtype=np.int64)))
    targets = prefix[-1] * np.arange(1, n_shards) / n_shards
    cuts = np.searchsorted(prefix, targets)
    # Step back one item where that lands nearer the target.
    cuts -= (targets - prefix[cuts - 1]) < (prefix[cuts] - targets)
    # A set, not np.unique: its first call imports numpy.ma, about 30 ms.
    edges = sorted({0, len(costs), *cuts.tolist()})
    return list(zip(edges[:-1], edges[1:]))


def _even_share(n: int, n_ranks: int, rank: int) -> slice:
    """Rank ``rank``'s part of ``range(n)`` when ``n_ranks`` ranks split it
    into contiguous parts whose sizes differ by at most one."""
    return slice(n * rank // n_ranks, n * (rank + 1) // n_ranks)


def _plan_ranks(costs) -> int:
    """Ranks for work of these costs: one per usable core, each with at
    least ``_MIN_SHARD_MESSAGES``; one where no OpenBLAS thread count can be
    pinned (MKL, Accelerate, hosts without ``/proc``, which also lack
    ``os.fork``)."""
    cores = _usable_cores()
    if cores < 2 or _openblas() is None:
        return 1
    return max(1, min(cores, sum(costs) // _MIN_SHARD_MESSAGES))


class _RankGroup:
    """``size`` processes that run the same code, each over its own shards.

    Entering forks ranks 1 to ``size - 1`` (none for one rank), with BLAS
    pinned to one thread until the group closes: two processes on two
    cores with two BLAS threads each ran several times slower than one
    process.  Each new rank carries on from the ``with`` statement like
    rank 0 and leaves through ``os._exit`` at its end, so only rank 0
    returns from it, and nothing of the caller's (atexit handlers, buffered
    output, test runners) runs twice.  What a rank builds inside the block
    is its own.  The ranks share one ``MAP_SHARED`` anonymous mapping made
    before the fork: the summed gradient ``grad`` of ``n_grads`` values,
    ``n_state`` more vectors of that length (``state``, zeros until the
    caller fills them), and one row of ``n_rows`` values, one per item of
    a ``run`` (a loss or a prediction).  A one-rank group holds them on
    the heap.  Each rank accumulates into ``own_grad``, ``grad`` itself on
    rank 0.  Every ``run`` starts at a barrier, so no rank writes the row,
    the gradient vectors, or its own part of ``state`` while another still
    reads what it held before.

    Rank 0 holds one duplex ``multiprocessing.connection`` to each other
    rank, and each end lives in one process only, so a rank that ends
    shows as the end of its connection.  A rank's exception reaches rank 0
    at the next barrier as a message, ranks in order, so the earliest
    failing shard's wins; a rank that ends without a result raises
    ``ChildProcessError``.  Rank 0 always reaps the other ranks, and
    SIGKILLs them first when it leaves the block by an exception or an
    interrupt.
    """

    def __init__(self, size: int, n_grads: int, n_rows: int, n_state: int = 0):
        self.size = size
        self.rank = 0
        words = (1 + n_state) * n_grads + n_rows
        if size > 1:
            mem = mmap.mmap(-1, 8 * max(words, 1), flags=mmap.MAP_SHARED)
            flat = np.frombuffer(mem, dtype=np.float64, count=words)
        else:
            # Nothing to share: the heap, where numpy asks for huge pages.  A
            # shared mapping (shmem) usually gets none: first touch 2-3x slower.
            flat = np.zeros(words)
        vectors = flat[: (1 + n_state) * n_grads].reshape(1 + n_state, n_grads)
        self.grad, self.state = vectors[0], vectors[1:]
        self._row = flat[(1 + n_state) * n_grads :]
        self.own_grad = self.grad  # a private vector past rank 0 (``_fork``)
        self._others = []  # rank 0: (pid, connection) of ranks 1, 2, ...
        self._status = {}  # rank 0: wait status of each reaped rank
        self._conn = None  # rank k > 0: its connection to rank 0
        self._threads = None

    def __enter__(self):
        if self.size > 1:
            get_threads, set_threads = _openblas()
            self._threads = get_threads()
            set_threads(1)
            try:
                for rank in range(1, self.size):
                    if self._fork(rank):
                        break
            except BaseException:
                self._close(kill=True)
                raise
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.rank:
            os._exit(0 if exc_type is None else 1)
        if self.size > 1:
            self._close(kill=exc_type is not None)
        return False

    def _fork(self, rank: int) -> bool:
        """Start ``rank``; True in the new process."""
        # Imported here: only a group that forks pays its 12-17 ms.
        from multiprocessing.connection import Pipe

        here, there = Pipe()
        try:
            pid = os.fork()
        except OSError:
            here.close()
            there.close()
            raise
        if pid == 0:
            try:
                # Rank 0's ends, so that each connection has one end per side.
                for _, conn in self._others:
                    conn.close()
                here.close()
            except BaseException:
                os._exit(1)
            self.rank, self._others, self._conn = rank, [], there
            self.own_grad = np.empty_like(self.grad)
            return True
        there.close()
        self._others.append((pid, here))
        return False

    def _close(self, kill: bool):
        try:
            for rank, (_, conn) in enumerate(self._others, start=1):
                conn.close()
                self._reap(rank, kill)
        finally:
            _openblas()[1](self._threads)

    def _reap(self, rank: int, kill: bool) -> int:
        """Wait for ``rank``, killing it first if asked; once only."""
        if rank not in self._status:
            pid = self._others[rank - 1][0]
            if kill:
                os.kill(pid, signal.SIGKILL)
            self._status[rank] = os.waitpid(pid, 0)[1]
        return self._status[rank]

    # --- messages ------------------------------------------------------------

    def _tell(self, rank: int, msg: bytes):
        try:
            self._others[rank - 1][1].send(msg)
        except OSError:
            pass  # the rank has ended; its answer, or its absence, says how

    def _hear(self, rank: int, want: bytes):
        """Take ``rank``'s next message, which must be ``want``; raise the
        exception the rank sent instead, or ``ChildProcessError`` if it
        ended."""
        try:
            msg = self._others[rank - 1][1].recv()
        except (EOFError, ConnectionResetError):
            # A rank that exits with a message of ours unread resets its end.
            msg = None
        if isinstance(msg, BaseException):
            raise msg
        if msg == want:
            return
        code = os.waitstatus_to_exitcode(self._reap(rank, kill=msg is not None))
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise ChildProcessError(f"rank {rank} of {self.size} ended without a result ({how})")

    def _await(self, want: bytes):
        if self._conn.recv() != want:
            raise ChildProcessError("rank 0 left the group")

    def _fail(self, e: Exception):
        try:
            self._conn.send(e)
        except (pickle.PicklingError, TypeError, AttributeError):
            self._conn.send(RuntimeError(f"{type(e).__name__}: {e}"))

    # --- work ----------------------------------------------------------------

    def run(self, costs, work, grads: bool = False):
        """Run ``work(lo, hi, row)`` on this rank's shard of a list of
        items with these costs (contiguous, balanced by ``_shard_bounds``),
        then wait for every rank's; return ``row`` filled by all.

        It starts at a barrier, so whatever the ranks wrote to the group's
        memory before the call is in place for all of them.  ``row`` holds
        one value per item, and each rank writes its own items' entries;
        the next call reuses it.  With ``grads``, ``work`` also accumulates
        gradients into ``own_grad``, zeroed first, and on return ``grad``
        holds the total, shard 0 + shard 1 + ..., until the next call.
        """
        if self.size > 1:
            self._meet(False)
        if grads:
            self.own_grad.fill(0.0)
        bounds = _shard_bounds(costs, self.size)  # a rank past the last gets none
        lo, hi = bounds[self.rank] if self.rank < len(bounds) else (len(costs),) * 2
        try:
            work(lo, hi, self._row)
        except Exception as e:
            if self.rank:
                self._fail(e)
            raise
        if self.size > 1:
            self._meet(grads)
        return self._row

    def _meet(self, grads: bool):
        """Wait until every rank is here.  With ``grads``, the ranks past
        the first add ``own_grad`` to ``grad`` first, in rank order."""
        if self.rank == 0:
            for rank in range(1, self.size):
                if grads:
                    self._tell(rank, _ADD)
                self._hear(rank, _DONE)
            for rank in range(1, self.size):
                self._tell(rank, _READY)
        else:
            if grads:
                self._await(_ADD)
                self.grad += self.own_grad
            self._conn.send(_DONE)
            self._await(_READY)
