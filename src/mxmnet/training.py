"""Optimization: Adam, warmup/decay schedule, EMA weights, the train loop.

Single-target regression on molecule datasets.  Each optimizer step
averages gradients over a group of molecules (one tape and one backward
per molecule, losses scaled by 1/group so grads accumulate to the mean).
Validation always runs on the exponential moving average of the weights;
the best-validation EMA snapshot is what training returns and checkpoints.

A step's group and an ``evaluate`` call are split into contiguous shards,
one per usable core, when each shard gets enough work; shards past the
first run in forked processes (see ``_run_sharded``).

Everything is seeded and single-run deterministic: two runs with the same
dataset, config, seeds and usable core count produce identical reports
apart from wall time.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor, abs_val, backward, mul, scale, sub
from .data import Dataset, subtract_atomrefs
from .graph import count_messages
from .model import ModelConfig, ParamStore, forward, init_params, prepare_inputs

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
    """Graph + features per molecule, in input order.

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


@dataclass
class TrainConfig:
    target: str
    epochs: int = 900
    base_lr: float = 1e-3
    batch_group: int = 32
    seed: int = 0
    loss: str = "mae"
    patience: int = 50
    warmup_epochs: float = 1.0
    decay_ratio: float = 0.1
    decay_epochs: float = 600.0
    ema_decay: float = 0.999
    atomrefs: dict[int, float] | None = None

    def __post_init__(self):
        if self.loss not in ("mae", "mse"):
            raise ValueError(f"loss must be 'mae' or 'mse', got {self.loss!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_group < 1:
            raise ValueError("batch_group must be at least 1")
        if not 0.0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not 0.0 <= self.warmup_epochs < math.inf:
            raise ValueError(
                f"warmup_epochs must be non-negative and finite, got {self.warmup_epochs}"
            )
        if not 0.0 < self.decay_ratio <= 1.0:
            raise ValueError(f"decay_ratio must lie in (0, 1], got {self.decay_ratio}")
        if not 0.0 < self.decay_epochs < math.inf:
            raise ValueError(
                f"decay_epochs must be positive and finite, got {self.decay_epochs}"
            )
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in [0, 1)")


def lr_at(
    step: int,
    steps_per_epoch: int,
    base_lr: float,
    warmup_epochs: float = TrainConfig.warmup_epochs,
    decay_ratio: float = TrainConfig.decay_ratio,
    decay_epochs: float = TrainConfig.decay_epochs,
) -> float:
    """Learning rate at a global step: linear warmup from zero across the
    first epoch, then continuous exponential decay by ``decay_ratio`` every
    ``decay_epochs`` epochs.  Continuous at the warmup boundary."""
    if steps_per_epoch < 1:
        raise ValueError("steps_per_epoch must be at least 1")
    warm_steps = warmup_epochs * steps_per_epoch
    if step < warm_steps:
        return base_lr * step / warm_steps
    epochs_past = (step - warm_steps) / steps_per_epoch
    return base_lr * decay_ratio ** (epochs_past / decay_epochs)


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, store: ParamStore):
        self.m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.step = 0


def adam_step(store: ParamStore, state: AdamState, lr: float):
    """One bias-corrected Adam update in place; grads are left untouched.

    A parameter with no grad buffer counts as zero gradient.  Non-finite
    gradients abort with the parameter's name.
    """
    state.step += 1
    t = state.step
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name, p in store.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


class EmaWeights:
    """Exponential moving average of a parameter store.

    Initialized to a copy of the live weights; after every optimizer step
    ``update`` moves each shadow value by (1 - decay) toward the live one.
    """

    def __init__(self, store: ParamStore, decay: float = TrainConfig.ema_decay):
        self.decay = float(decay)
        self.shadow = store.copy()

    def update(self, store: ParamStore):
        d = self.decay
        for name, t in store.items():
            s = self.shadow[name].data
            s *= d
            s += (1.0 - d) * t.data


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
    train_cfg: TrainConfig,
):
    """Predictions and truths over a molecule list, no tape, fixed weights.

    A non-finite prediction raises ``FloatingPointError`` naming the
    molecule.  The molecules may be split across processes (see
    ``_run_sharded``); each prediction is the same either way.
    """
    preds = np.empty(len(molecules), dtype=np.float64)
    truth = np.empty(len(molecules), dtype=np.float64)

    def predict(lo, hi):
        for k in range(lo, hi):
            m = molecules[k]
            preds[k] = forward(m, params, model_cfg, feats=prepared[k][1]).item()
            if not math.isfinite(preds[k]):
                raise FloatingPointError(f"non-finite prediction for molecule {m.key!r}")
            truth[k] = subtract_atomrefs(m, train_cfg.target, train_cfg.atomrefs)
        return [preds[lo:hi], truth[lo:hi]]

    def absorb(lo, hi, read):
        preds[lo:hi] = read(hi - lo)
        truth[lo:hi] = read(hi - lo)

    _run_sharded(prepared, predict, absorb)
    return preds, truth


def train(
    ds: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig
) -> TrainResult:
    """Run the full loop and return the report plus the best EMA weights.

    The dataset must be split with a non-empty train subset.  An empty
    validation subset is allowed: validation, early stopping and best-model
    tracking then degrade to keeping the final EMA weights.
    """
    if ds.split is None:
        raise ValueError("dataset must be split before training")
    train_mols = ds.subset("train")
    val_mols = ds.subset("val")
    if not train_mols:
        raise ValueError("training split is empty")
    # Fail fast on a bad target name, before any featurization.
    target, refs = train_cfg.target, train_cfg.atomrefs
    truths = [subtract_atomrefs(m, target, refs) for m in train_mols]
    for m in val_mols:
        subtract_atomrefs(m, target, refs)

    params = init_params(model_cfg, train_cfg.seed)
    state = AdamState(params)
    ema = EmaWeights(params, train_cfg.ema_decay)

    train_prep = prepare_all(train_mols, model_cfg)
    val_prep = prepare_all(val_mols, model_cfg)

    n = len(train_mols)
    group = min(train_cfg.batch_group, n)
    steps_per_epoch = math.ceil(n / group)
    rng = np.random.default_rng(train_cfg.seed)

    report = TrainReport()
    best: ParamStore | None = None
    best_val = math.inf
    since_best = 0

    for epoch in range(train_cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        losses = np.empty(n, dtype=np.float64)
        lr = 0.0
        for lo in range(0, n, group):
            chunk = order[lo : lo + group]
            params.zero_grads()

            def accumulate(a, b, chunk=chunk):
                for idx in chunk[a:b]:
                    m = train_mols[idx]
                    with Tape() as tape:
                        y = forward(m, params, model_cfg, feats=train_prep[idx][1])
                        err = sub(y, _scalar(truths[idx]))
                        loss = abs_val(err) if train_cfg.loss == "mae" else mul(err, err)
                        scaled = scale(loss, 1.0 / len(chunk))
                    backward(scaled, tape)
                    val = loss.item()
                    if not math.isfinite(val):
                        raise FloatingPointError(
                            f"non-finite loss for molecule {m.key!r} at epoch {epoch}"
                        )
                    losses[idx] = val
                grads = (p.grad if p.grad is not None else np.zeros_like(p.data)
                         for _, p in params.items())
                return [losses[chunk[a:b]], *grads]

            def absorb(a, b, read, chunk=chunk):
                # A shard's gradient sum is added to this process's own,
                # one parameter at a time.
                losses[chunk[a:b]] = read(b - a)
                for _, p in params.items():
                    g = read(p.data.shape)
                    if p.grad is None:
                        p.grad = g
                    else:
                        p.grad += g

            _run_sharded([train_prep[i] for i in chunk], accumulate, absorb)
            lr = lr_at(
                state.step,
                steps_per_epoch,
                train_cfg.base_lr,
                train_cfg.warmup_epochs,
                train_cfg.decay_ratio,
                train_cfg.decay_epochs,
            )
            adam_step(params, state, lr)
            ema.update(params)
        val_mae = math.nan
        if val_mols:
            preds, vt = evaluate(ema.shadow, val_mols, val_prep, model_cfg, train_cfg)
            val_mae = float(np.mean(np.abs(preds - vt)))
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
                best = ema.shadow.copy()
                report.best_epoch = epoch
                report.best_val_mae = val_mae
                since_best = 0
            else:
                since_best += 1
                if since_best >= train_cfg.patience:
                    break

    if best is None:
        best = ema.shadow.copy()
        if report.epochs:
            report.best_epoch = report.epochs[-1].epoch
    preds, tt = evaluate(best, train_mols, train_prep, model_cfg, train_cfg)
    report.final_train_mae = float(np.mean(np.abs(preds - tt)))
    return TrainResult(report=report, params=best)


def _scalar(x: float) -> Tensor:
    return Tensor(np.asarray(x, dtype=np.float64))


# --- shards ------------------------------------------------------------------

# Fewest closed-form messages per block (``graph.count_messages``) that a
# shard must get: about eight QM9-sized molecules, which with bonds as the
# local layer have about 900 each.  At 260 MB RSS a fork and its reap cost
# about 10 ms, and the copy-on-write faults it leaves on the next writes to
# the parameters and the heap about 35 ms more.
_MIN_SHARD_MESSAGES = 7_500

# A child's first byte: its arrays follow, or a pickled exception does.
_DONE, _FAILED = b"K", b"E"


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


def _shard_bounds(costs, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges covering ``costs``, with cost sums as
    even as whole items allow; empty ranges are dropped."""
    prefix = np.concatenate(([0], np.cumsum(costs, dtype=np.int64)))
    targets = prefix[-1] * np.arange(1, n_shards) / n_shards
    cuts = np.searchsorted(prefix, targets)
    # Step back one item where that lands nearer the target.
    cuts -= (targets - prefix[cuts - 1]) < (prefix[cuts] - targets)
    edges = np.unique(np.concatenate(([0], cuts, [len(costs)])))
    return [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]


def _plan_shards(prepared) -> list[tuple[int, int]]:
    """One shard per usable core, each with at least ``_MIN_SHARD_MESSAGES``;
    one shard where no OpenBLAS thread count can be pinned (MKL,
    Accelerate, hosts without ``/proc``, which also lack ``os.fork``)."""
    whole = [(0, len(prepared))]
    cores = _usable_cores()
    if cores < 2 or _openblas() is None:
        return whole
    costs = [count_messages(g, feats).total for g, feats in prepared]
    n_shards = min(cores, sum(costs) // _MIN_SHARD_MESSAGES)
    return _shard_bounds(costs, n_shards) if n_shards > 1 else whole


class _Child:
    """A forked shard: its pid, its range and the read end of its pipe."""

    def __init__(self, work, lo, hi):
        self.lo, self.hi = lo, hi
        self.status = None
        r, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if self.pid == 0:
            os.close(r)
            _serve(work, lo, hi, w)  # never returns
        os.close(w)
        self.pipe = open(r, "rb", buffering=0)

    def receive(self, absorb):
        """Hand the child's arrays to ``absorb``, or raise what it raised."""
        tag = self.pipe.read(1)
        if tag == _FAILED:
            raise pickle.loads(self.pipe.readall())
        if tag != _DONE:
            self._died()

        def read(shape):
            out = np.empty(shape, dtype=np.float64)
            view = memoryview(out.reshape(-1)).cast("B")
            got = 0
            while got < len(view):
                n = self.pipe.readinto(view[got:])
                if not n:
                    self._died()
                got += n
            return out

        absorb(self.lo, self.hi, read)

    def _died(self):
        code = os.waitstatus_to_exitcode(self.reap(kill=False))
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise ChildProcessError(
            f"shard worker for items {self.lo}-{self.hi - 1} ended without a result ({how})"
        )

    def reap(self, kill: bool) -> int:
        """Wait for the child, killing it first if asked; once only."""
        if self.status is None:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            self.status = os.waitpid(self.pid, 0)[1]
        return self.status


def _serve(work, lo, hi, fd):
    """The body of a forked shard: run ``work``, write its result to ``fd``
    and leave through ``os._exit``, so nothing of the parent's (atexit
    handlers, buffered output, test runners) runs twice."""
    code = 1
    try:
        with open(fd, "wb") as fh:
            try:
                arrays = work(lo, hi)
            except Exception as e:  # sent to the parent, which raises it
                try:
                    blob = pickle.dumps(e)
                except (pickle.PicklingError, TypeError, AttributeError):
                    blob = pickle.dumps(RuntimeError(f"{type(e).__name__}: {e}"))
                fh.write(_FAILED + blob)
            else:
                fh.write(_DONE)
                for a in arrays:
                    a = np.ascontiguousarray(a, dtype=np.float64)
                    fh.write(memoryview(a.reshape(-1)).cast("B"))
        code = 0
    finally:
        os._exit(code)


def _run_sharded(prepared, work, absorb):
    """Run ``work(lo, hi)`` over contiguous shards of a molecule list.

    ``prepared`` holds the list's ``(graph, features)`` pairs; shards are
    balanced by closed-form message counts (``_plan_shards``).  This
    process runs shard 0 itself.  Each other shard runs in an ``os.fork()``
    child, which inherits parameters and features copy-on-write and sends
    the float64 arrays its ``work`` returns over a pipe; ``absorb(lo, hi,
    read)`` takes them in shard order, ``read(shape)`` giving the next one.
    With one shard, ``work`` simply runs here.

    An exception in a shard is raised here with its type and message, and
    shards report in order, so the earliest failing item wins.  A child
    that ends without a result raises ``ChildProcessError``.  Children are
    always reaped, and killed first if this process fails or is
    interrupted.  BLAS is pinned to one thread from before the fork until
    the children are reaped: two processes on two cores with two BLAS
    threads each ran several times slower than one process.
    """
    shards = _plan_shards(prepared)
    if len(shards) == 1:
        work(0, len(prepared))
        return
    get_threads, set_threads = _openblas()
    threads = get_threads()
    set_threads(1)
    children = []
    finished = False
    try:
        for lo, hi in shards[1:]:
            children.append(_Child(work, lo, hi))
        work(*shards[0])
        for child in children:
            child.receive(absorb)
        finished = True
    finally:
        for child in children:
            child.pipe.close()
            child.reap(kill=not finished)
        set_threads(threads)
