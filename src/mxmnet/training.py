"""Optimization: Adam, warmup/decay schedule, EMA weights, the train loop.

Single-target regression on molecule datasets.  Each optimizer step
averages gradients over a group of molecules (one tape and one backward
per molecule, losses scaled by 1/group so grads accumulate to the mean).
Validation always runs on the exponential moving average of the weights;
the best-validation EMA snapshot is what training returns and checkpoints.

Everything is seeded and single-run deterministic: two runs with the same
dataset, config and seeds produce identical reports apart from wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor, abs_val, backward, mul, scale, sub
from .data import Dataset, subtract_atomrefs
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
    """Graph + features per molecule, in input order."""
    return [prepare_inputs(m, cfg) for m in molecules]


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
    warmup_epochs: float = 1.0,
    decay_ratio: float = 0.1,
    decay_epochs: float = 600.0,
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

    def __init__(self, store: ParamStore, decay: float = 0.999):
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
    target: str = ""
    seed: int = 0

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
    molecule.
    """
    preds = np.empty(len(molecules), dtype=np.float64)
    truth = np.empty(len(molecules), dtype=np.float64)
    for k, (m, (_, feats)) in enumerate(zip(molecules, prepared)):
        preds[k] = forward(m, params, model_cfg, feats=feats).item()
        if not math.isfinite(preds[k]):
            raise FloatingPointError(f"non-finite prediction for molecule {m.key!r}")
        truth[k] = subtract_atomrefs(m, train_cfg.target, train_cfg.atomrefs)
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

    report = TrainReport(target=train_cfg.target, seed=train_cfg.seed)
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
            for idx in chunk:
                idx = int(idx)
                m = train_mols[idx]
                _, feats = train_prep[idx]
                with Tape() as tape:
                    y = forward(m, params, model_cfg, feats=feats)
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
