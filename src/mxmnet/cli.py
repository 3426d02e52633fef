"""Command-line entry points: featurize, train, eval, verify, bench.

Configuration is a flat key=value text file.  Each key is declared once, in
``_KEYS``, with its type, its default and the ``ModelConfig`` or
``TrainConfig`` field it sets, whose default is its own; both configs are
built from that table.  The command line can override the common keys, and
unknown keys are rejected.
All outputs land inside the configured output directory.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import resource
import sys
import time
from typing import NamedTuple

import numpy as np

from . import basis, fixtures, graph as graphmod
from .autodiff import Tape, backward
from .data import (
    DEFAULT_FRACTIONS,
    Dataset,
    load_atomrefs,
    load_manifest,
    read_lines,
    split_dataset,
    subtract_atomrefs,
    target_stats,
    write_csv,
)
from .model import (
    MessageTally,
    ModelConfig,
    check_params,
    forward,
    init_params,
    load_checkpoint,
    prepare_inputs,
    save_checkpoint,
)
from .training import (
    TrainConfig,
    compute_metrics,
    evaluate,
    prepare_all,
    train,
)


class _Key(NamedTuple):
    type: type
    default: object
    field: str | None = None  # the ModelConfig or TrainConfig field it sets
    flag: bool = False  # also a command-line option
    help: str | None = None


def _sets(type_, owner, field: str, **kw) -> _Key:
    """The key that sets ``owner``'s ``field``, with the field's default
    (``None`` for a field without one)."""
    return _Key(type_, getattr(owner, field, None), field, **kw)


# Every config key once: its type, its default, the config field it sets
# and whether the command line can override it.
_KEYS: dict[str, _Key] = {
    "seed": _sets(int, TrainConfig, "seed", flag=True),
    "target": _sets(str, TrainConfig, "target", flag=True),
    "dg": _sets(float, ModelConfig, "global_cutoff", flag=True, help="global cutoff, Angstrom"),
    "dl": _sets(float, ModelConfig, "local_cutoff", flag=True, help="local cutoff, Angstrom"),
    "layers": _sets(int, ModelConfig, "n_layers", flag=True),
    "hidden": _sets(int, ModelConfig, "hidden_dim", flag=True),
    "lr": _sets(float, TrainConfig, "base_lr", flag=True),
    "epochs": _sets(int, TrainConfig, "epochs", flag=True),
    "out": _Key(str, "mxm_out", flag=True),
    "manifest": _Key(str, None),
    "local_rule": _sets(str, ModelConfig, "local_rule"),
    "residuals": _sets(int, ModelConfig, "n_residuals"),
    "batch_group": _sets(int, TrainConfig, "batch_group"),
    "loss": _sets(str, TrainConfig, "loss"),
    "patience": _sets(int, TrainConfig, "patience"),
    "train_frac": _Key(float, DEFAULT_FRACTIONS[0]),
    "val_frac": _Key(float, DEFAULT_FRACTIONS[1]),
    "test_frac": _Key(float, DEFAULT_FRACTIONS[2]),
    "atomrefs": _Key(str, None),  # a path; TrainConfig takes what it holds
}


def _defaults() -> dict:
    return {key: spec.default for key, spec in _KEYS.items()}


class ConfigError(ValueError):
    pass


def parse_config(path) -> dict:
    """Read a flat key=value config, where ``#`` starts a comment anywhere
    on a line; unknown keys and a key given twice are errors."""
    cfg = _defaults()
    lines = {}  # the line each key was given on
    for num, text in read_lines(path):
        line = text.split("#", 1)[0].rstrip()
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep:
            raise ConfigError(f"{path}:{num}: expected key=value, got {line!r}")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{num}: unknown config key {key!r}")
        first = lines.setdefault(key, num)
        if first != num:
            raise ConfigError(
                f"{path}:{num}: config key {key!r} given twice, lines {first} and {num}"
            )
        try:
            cfg[key] = _KEYS[key].type(value)
        except ValueError:
            raise ConfigError(f"{path}:{num}: bad value for {key!r}: {value!r}") from None
    return cfg


def _settings(args) -> dict:
    cfg = parse_config(args.config) if args.config else _defaults()
    for key, spec in _KEYS.items():
        if spec.flag and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg['seed']}")
    return cfg


def _config(cls, cfg: dict, **given):
    """A ``cls`` whose fields are set from the keys that name them, and
    from ``given``."""
    names = {f.name for f in dataclasses.fields(cls)}
    keys = {spec.field: cfg[key] for key, spec in _KEYS.items() if spec.field in names}
    return cls(**keys, **given)


def _model_config(cfg: dict) -> ModelConfig:
    return _config(ModelConfig, cfg)


def _train_config(cfg: dict) -> TrainConfig:
    if not cfg["target"]:
        raise ConfigError("a target name is required (config key 'target')")
    refs = load_atomrefs(cfg["atomrefs"]) if cfg["atomrefs"] else None
    return _config(TrainConfig, cfg, atomrefs=refs)


def _load_split(cfg: dict) -> Dataset:
    if not cfg["manifest"]:
        raise ConfigError("a manifest path is required (config key 'manifest')")
    ds = load_manifest(cfg["manifest"])
    fracs = (cfg["train_frac"], cfg["val_frac"], cfg["test_frac"])
    return split_dataset(ds, fracs, cfg["seed"])


def _out_dir(cfg: dict) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_featurize(args) -> int:
    cfg = _settings(args)
    if not cfg["manifest"]:
        raise ConfigError("featurize needs a manifest (config key 'manifest')")
    ds = load_manifest(cfg["manifest"])
    mcfg = _model_config(cfg)
    out = _out_dir(cfg)
    prepared = prepare_all(ds.molecules, mcfg)
    # Node columns, then the basis values of each edge or triple.
    pair = ["j", "i"] + [f"rbf_{k + 1:02d}" for k in range(basis.N_RBF)]
    triple = ["k", "j", "i"] + [
        f"sbf_l{l}n{n + 1}" for l in range(basis.N_SHBF) for n in range(basis.N_SRBF)
    ]
    for k, (m, (g, feats)) in enumerate(zip(ds.molecules, prepared)):
        stem = os.path.splitext(os.path.basename(m.key or f"mol{k}"))[0]
        base = os.path.join(out, f"{k:04d}_{stem}")
        with open(base + ".graph.txt", "w", encoding="utf-8") as fh:
            fh.write(graphmod.dump_graph(g))
        local_edges = np.stack([feats.local_src, feats.local_dst], axis=1)
        global_edges = np.stack([feats.global_src, feats.global_dst], axis=1)
        for name, header, idx, mat in (
            ("rbf_local", pair, local_edges, feats.rbf_local),
            ("rbf_global", pair, global_edges, feats.rbf_global),
            ("sbf_two", triple, _triple_nodes(feats), feats.sbf_two),
        ):
            rows = (ids + vals for ids, vals in zip(idx.tolist(), mat.tolist()))
            write_csv(f"{base}.{name}.csv", header, rows)
        print(
            f"{m.key or stem}: N={feats.n_nodes} El={feats.local_src.size} "
            f"Eg={feats.global_src.size} T2={feats.two_hop_edge.size}"
        )
    return 0


def _triple_nodes(feats):
    """Atom rows (k, j, i) of the angle triples, read off their local edge
    ids (k -> j) and (j -> i): the rows of ``graph.enumerate_angle_triples``,
    in its order."""
    src, dst = feats.local_src, feats.local_dst
    e, t = feats.two_hop_edge, feats.two_hop_target
    return np.stack([src[e], dst[e], dst[t]], axis=1)


def _fp_checked():
    """Silence numpy's overflow and invalid-value warnings.

    A diverging run overflows inside the model before any check sees it.
    Every non-finite value is then caught by a named check (the loss,
    Adam's gradient and the prediction checks) and reported as one
    ``error:`` line, so numpy's warnings would only print ahead of it.
    """
    return np.errstate(over="ignore", invalid="ignore")


def cmd_train(args) -> int:
    cfg = _settings(args)
    ds = _load_split(cfg)
    mcfg = _model_config(cfg)
    tcfg = _train_config(cfg)
    out = _out_dir(cfg)
    ckpt = os.path.join(out, "model.ckpt")
    t0 = time.perf_counter()
    with _fp_checked():
        result = train(ds, mcfg, tcfg, ckpt)
    wall = time.perf_counter() - t0
    result.report.to_csv(os.path.join(out, "report.csv"))
    stats = target_stats(ds, tcfg.target, tcfg.atomrefs)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    summary = {
        "target": tcfg.target,
        "seed": tcfg.seed,
        "epochs_run": len(result.report.epochs),
        "best_epoch": result.report.best_epoch,
        "best_val_mae": _none_if_nan(result.report.best_val_mae),
        "final_train_mae": result.report.final_train_mae,
        "n_parameters": result.params.flat.size,
        "checkpoint": ckpt,
        "wall_seconds": wall,
        # Linux reports ru_maxrss in KiB.  The ranks this run forked are
        # counted apart, from their own usage when they were reaped: the
        # largest peak of them, and all their faults.
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "worker_peak_rss_mb": max((rss for rss, _ in result.workers), default=0) / 1024,
        "minor_page_faults": usage.ru_minflt,
        "worker_minor_page_faults": sum(faults for _, faults in result.workers),
        "train_target_std": stats.std,
    }
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(
        f"trained {summary['epochs_run']} epochs, "
        f"final train MAE {summary['final_train_mae']:.6g}, "
        f"checkpoint {ckpt}"
    )
    return 0


def _none_if_nan(x: float):
    return None if isinstance(x, float) and math.isnan(x) else x


def cmd_eval(args) -> int:
    cfg = _settings(args)
    ds = _load_split(cfg)
    mcfg = _model_config(cfg)
    tcfg = _train_config(cfg)
    params = load_checkpoint(args.checkpoint)
    try:
        check_params(params, mcfg)
    except ValueError as e:
        raise ConfigError(f"checkpoint {args.checkpoint} does not fit: {e}") from None
    mols = ds.subset(args.split)
    if not mols:
        raise ConfigError(f"split {args.split!r} is empty")
    # Before any featurization, so a bad target or atom reference fails fast.
    truth = np.array([subtract_atomrefs(m, tcfg.target, tcfg.atomrefs) for m in mols])
    sigma = None  # std_mae is null without train targets or with a zero std
    if ds.subset("train"):
        stats = target_stats(ds, tcfg.target, tcfg.atomrefs)
        sigma = None if stats.degenerate else stats.std
    prepared = prepare_all(mols, mcfg)
    with _fp_checked():
        preds = evaluate(params, mols, prepared, mcfg)
    met = compute_metrics(preds, truth, sigma)
    print(
        json.dumps(
            {
                "split": args.split,
                "n": met.n,
                "mae": met.mae,
                "std_mae": met.std_mae,
                "pearson_r": met.pearson_r,
            }
        )
    )
    return 0


# --- verify -----------------------------------------------------------------

_TINY = dict(hidden_dim=8, n_layers=1, n_residuals=1)


def _tiny_model(seed: int):
    mcfg = ModelConfig(**_TINY)
    params = init_params(mcfg, seed)
    return mcfg, params


def _check_gradients(seed: int):
    rng = np.random.default_rng(seed)
    mcfg, params = _tiny_model(seed)
    m = fixtures.random_molecule(rng, n_atoms=4, key="gradcheck")
    _, feats = prepare_inputs(m, mcfg)
    with Tape() as tape:
        y = forward(m, params, mcfg, feats=feats)
    backward(y, tape)
    step = 1e-4
    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1) if t.grad is not None else np.zeros_like(flat)
        take = min(8, flat.size)
        for j in rng.choice(flat.size, size=take, replace=False):
            keep = flat[j]
            flat[j] = keep + step
            hi = forward(m, params, mcfg, feats=feats).item()
            flat[j] = keep - step
            lo = forward(m, params, mcfg, feats=feats).item()
            flat[j] = keep
            fd = (hi - lo) / (2 * step)
            err = abs(grad[j] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
    return worst, 1e-4


def _check_drift(seed: int, move, tol: float):
    """The largest change in the tiny model's prediction for a fixture
    molecule ``m`` over three copies ``move(m, rng)`` of it, and ``tol``."""
    rng = np.random.default_rng(seed)
    mcfg, params = _tiny_model(seed)
    worst = 0.0
    for m in fixtures.fixture_set(5, seed=seed):
        y0 = forward(m, params, mcfg).item()
        for _ in range(3):
            y1 = forward(move(m, rng), params, mcfg).item()
            worst = max(worst, abs(y0 - y1))
    return worst, tol


def _check_rigid(seed: int):
    def move(m, rng):
        rot = fixtures.random_rotation(rng)
        return fixtures.rigid_transform(m, rot, rng.uniform(-8, 8, size=3))

    return _check_drift(seed, move, 1e-8)


def _check_permutation(seed: int):
    def move(m, rng):
        return fixtures.permute_atoms(m, rng.permutation(m.n_atoms))

    return _check_drift(seed, move, 1e-10)


def _check_angle_count(seed: int):
    rng = np.random.default_rng(seed)
    worst = 0
    for _ in range(50):
        n, edges = fixtures.random_simple_graph(rng)
        expected = 0
        for a in range(len(edges)):
            for b in range(a + 1, len(edges)):
                if set(edges[a]) & set(edges[b]):
                    expected += 1
        worst = max(worst, abs(graphmod.count_angles(n, edges) - expected))
    return worst, 0


def _check_message_count(seed: int):
    rng = np.random.default_rng(seed)
    mcfg, params = _tiny_model(seed)
    worst = 0
    for k in range(10):
        m = fixtures.random_molecule(rng, key=f"msg{k}")
        g, feats = prepare_inputs(m, mcfg)
        tally = MessageTally()
        forward(m, params, mcfg, feats=feats, tally=tally)
        expect = graphmod.count_messages(g)
        got = tally.as_tuple()
        want = tuple(v * mcfg.n_layers for v in expect.as_tuple())
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    return worst, 0


def _check_bessel_roots(_seed: int):
    roots = basis.bessel_roots()
    worst = max(
        abs(basis.spherical_jl(l, roots[l, k]))
        for l in range(basis.N_SHBF)
        for k in range(basis.N_SRBF)
    )
    return worst, 1e-10


def _check_cutoff(_seed: int):
    c = 5.0
    r = basis.radial_basis(np.array([c, c * 1.2]), c)
    s = basis.spherical_basis(np.array([c]), np.array([1.0]), c)
    worst = max(float(np.abs(r).max()), float(np.abs(s).max()))
    near = float(np.abs(basis.radial_basis(np.array([c - 1e-9]), c)).max())
    return max(worst, 0.0 if near < 1e-6 else near), 0


def _check_checkpoint(seed: int, tmp_dir: str):
    mcfg, params = _tiny_model(seed)
    m = fixtures.water()
    y0 = forward(m, params, mcfg).item()
    path = os.path.join(tmp_dir, "verify.ckpt")
    save_checkpoint(params, path)
    y1 = forward(m, load_checkpoint(path), mcfg).item()
    return abs(y0 - y1), 0


def cmd_verify(args) -> int:
    cfg = _settings(args)
    out = _out_dir(cfg)
    seed = cfg["seed"]
    checks = [
        ("gradient-check", lambda: _check_gradients(seed)),
        ("rigid-invariance", lambda: _check_rigid(seed)),
        ("permutation-invariance", lambda: _check_permutation(seed)),
        ("angle-count", lambda: _check_angle_count(seed)),
        ("message-count", lambda: _check_message_count(seed)),
        ("bessel-roots", lambda: _check_bessel_roots(seed)),
        ("basis-cutoff", lambda: _check_cutoff(seed)),
        ("checkpoint-roundtrip", lambda: _check_checkpoint(seed, out)),
    ]
    failures = 0
    for name, fn in checks:
        try:
            measured, tol = fn()
            ok = measured <= tol
        except Exception as e:  # a crashed check is a failed check
            print(f"FAIL {name} error={e}")
            failures += 1
            continue
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict} {name} measured={measured:.3e} tol={tol:.1e}" if tol else
              f"{verdict} {name} measured={measured:.3e} tol=0 (exact)")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


# --- bench -------------------------------------------------------------------


def run_bench(n: int = 512, seed: int = 0, repeats: int = 2):
    """Message-count scaling measurements on random point clouds.

    Returns (rows, slopes).  Rows: scheme, n, cutoff, mean directed degree,
    message count, seconds.  The local scheme counts angle triples, the
    global scheme the two passes over global edges, and the reference
    scheme two-hop triples enumerated over the global layer, the cost an
    angle-aware scheme would pay without the two-layer split.  Each
    scheme's slope is fitted over the cutoffs that gave messages; a scheme
    left with fewer than two raises ``ValueError``, as does ``n`` below 2.
    """
    if n < 2:
        raise ValueError(f"bench needs at least 2 points (--n), got {n}")
    side = 16.0
    local_cutoffs = (1.5, 1.8, 2.1, 2.4, 2.7)
    global_cutoffs = (2.5, 3.0, 3.5, 4.0, 4.5)
    rows = []
    series: dict[str, list[tuple[float, float]]] = {
        "local": [],
        "global": [],
        "reference": [],
    }
    for rep in range(repeats):
        rng = np.random.default_rng(seed + rep)
        pts = fixtures.random_points(n, side, rng)
        for c in local_cutoffs:
            t0 = time.perf_counter()
            edges = graphmod.neighbor_search(pts, c)
            g = graphmod.MultiplexGraph(n, edges, np.empty((0, 2), dtype=np.int64))
            triples = graphmod.enumerate_angle_triples(g)
            dt = time.perf_counter() - t0
            msgs = 2 * int(triples.two_hop.shape[0])  # both angle steps, one per triple
            k_mean = edges.shape[0] / n
            rows.append(("local", n, c, k_mean, msgs, dt))
            if msgs:
                series["local"].append((c, k_mean, msgs))
        for c in global_cutoffs:
            t0 = time.perf_counter()
            edges = graphmod.neighbor_search(pts, c)
            deg = np.bincount(edges[:, 1], minlength=n)
            dt = time.perf_counter() - t0
            k_mean = edges.shape[0] / n
            msgs = 2 * edges.shape[0]
            rows.append(("global", n, c, k_mean, msgs, dt))
            if msgs:
                series["global"].append((c, k_mean, msgs))
            ref = int((deg * (deg - 1)).sum())
            rows.append(("reference", n, c, k_mean, ref, dt))
            if ref:
                series["reference"].append((c, k_mean, ref))
    slopes = {}
    for scheme, points in series.items():
        k = [p[1] for p in points]
        if len(set(k)) < 2:
            raise ValueError(
                f"bench: the {scheme} scheme has {len(points)} fit points (cutoffs "
                f"with messages: {sorted({p[0] for p in points})}) at {len(set(k))} "
                f"distinct mean degrees; a slope needs 2, so raise --n"
            )
        v = [p[2] for p in points]
        slopes[scheme] = float(np.polyfit(np.log(k), np.log(v), 1)[0])
    return rows, slopes


def cmd_bench(args) -> int:
    cfg = _settings(args)
    out = _out_dir(cfg)
    rows, slopes = run_bench(n=args.n, seed=cfg["seed"])
    path = os.path.join(out, "bench.csv")
    write_csv(path, ["scheme", "n_nodes", "cutoff", "mean_degree", "messages", "seconds"], rows)
    with open(os.path.join(out, "bench_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(slopes, fh, indent=2)
        fh.write("\n")
    print(
        f"slopes: local {slopes['local']:.3f} (expect ~2), "
        f"global {slopes['global']:.3f} (expect ~1), "
        f"reference {slopes['reference']:.3f} (expect ~2); rows in {path}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mxmnet",
        description="Multiplex molecular message passing: featurize, train, "
        "evaluate, verify, benchmark.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        for key, spec in _KEYS.items():
            if spec.flag:
                p.add_argument(f"--{key}", type=spec.type, help=spec.help)

    p = sub.add_parser("featurize", help="write graphs and basis embeddings")
    common(p)
    p.set_defaults(fn=cmd_featurize)

    p = sub.add_parser("train", help="train on a manifest dataset")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run the self-check suite")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="message-count scaling benchmark")
    common(p)
    p.add_argument("--n", type=int, default=512, help="point count")
    p.set_defaults(fn=cmd_bench)

    return ap


# glibc's mallopt parameters (malloc.h) and the largest mmap threshold it
# accepts on 64-bit hosts.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


def _keep_freed_memory() -> None:
    """Keep the memory numpy frees in this process for its next arrays.

    Every model op returns a fresh edge-sized array (0.1-0.8 MB on QM9-sized
    molecules).  By default glibc maps such blocks with mmap and unmaps them
    when freed, or trims the heap top, so the next op faults the same pages
    back in, one by one.  Raising the mmap threshold to its maximum and the
    trim threshold out of reach serves those arrays from the heap and keeps
    it.  Only ``main`` calls this, once per command: importing the package
    leaves the host process's allocator alone.  Where libc has no
    ``mallopt`` (macOS, musl) it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _keep_freed_memory()
    try:
        return args.fn(args)
    except (
        ConfigError,
        OSError,
        KeyError,
        ValueError,
        FloatingPointError,
    ) as e:
        # str() of a KeyError is the repr of its message, quotes and all.
        msg = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
