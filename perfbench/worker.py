"""One workload process: set up, run the workload closed loop, check outputs.

Usage (run.py starts it; ``PYTHONPATH`` must reach ``src``)::

    python3 perfbench/worker.py --plan WORK/plan.json --mode measure \
        --seconds 30 --result WORK/result.json

Modes:

* ``setup``: time the set-up only (``import mxmnet``, the Bessel-root
  cache, one untimed warm-up of the workload path on a tiny input);
* ``measure``: set up, then invoke the workload back to back for about
  ``--seconds`` seconds; an invocation starts only if one more of median
  length still fits, and the first always runs;
* ``trace``: set up, run two untraced invocations, then one under the
  span tracer, whose every ``model.forward`` call must have had its
  ``MessageTally`` checked; writes the span file next to the result.

Every invocation's outputs are checked after its clock stops.  The result
JSON holds set-up time, peak RSS of this process, one record per invocation
and, when tracing, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402  (never imports mxmnet itself)


def _quiet_call(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fn(*args)
    return rc, out.getvalue(), err.getvalue()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


class TrainJob:
    """``mxmnet train`` through ``cli.main`` at paper dims."""

    def __init__(self, plan):
        self.plan = plan
        self.molecules = plan["epochs"] * plan["split"]["train"]

    def _run(self, config, out):
        from mxmnet import cli

        shutil.rmtree(out, ignore_errors=True)
        return _quiet_call(cli.main, ["train", "--config", config])

    def warm_up(self):
        rc, _, err = self._run(self.plan["warm_config"], self.plan["warm_out"])
        return [] if rc == 0 else [f"warm-up train exited {rc}: {err.strip()}"]

    def invoke(self):
        return self._run(self.plan["config"], self.plan["out"])

    def check(self, result):
        rc, _, err = result
        if rc != 0:
            return [f"train exited {rc}: {err.strip()}"], None
        out = self.plan["out"]
        errors = []
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary.get("epochs_run") != self.plan["epochs"]:
            errors.append(f"epochs_run {summary.get('epochs_run')} != {self.plan['epochs']}")
        for key in ("final_train_mae", "best_val_mae"):
            if not _finite(summary.get(key)):
                errors.append(f"summary {key} not finite: {summary.get(key)!r}")
        with open(os.path.join(out, "report.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != self.plan["epochs"]:
            errors.append(f"report.csv has {len(rows)} epoch rows")
        for row in rows:
            loss = float(row.split(",")[1])
            if not math.isfinite(loss):
                errors.append(f"non-finite train loss in report row {row!r}")
        with open(os.path.join(out, "model.ckpt"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return errors, digest


class EvalJob:
    """``mxmnet eval`` through ``cli.main`` on the seeded checkpoint."""

    def __init__(self, plan):
        self.plan = plan
        self.molecules = plan["split"]["test"]

    def _run(self, config):
        from mxmnet import cli

        ckpt = self.plan["checkpoint"]
        argv = ["eval", "--config", config, "--checkpoint", ckpt, "--split", "test"]
        return _quiet_call(cli.main, argv)

    def warm_up(self):
        rc, _, err = self._run(self.plan["warm_config"])
        return [] if rc == 0 else [f"warm-up eval exited {rc}: {err.strip()}"]

    def invoke(self):
        return self._run(self.plan["config"])

    def check(self, result):
        rc, out, err = result
        if rc != 0:
            return [f"eval exited {rc}: {err.strip()}"], None
        line = out.strip().splitlines()[-1]
        report = json.loads(line)
        errors = []
        if report.get("n") != self.molecules:
            errors.append(f"eval n {report.get('n')} != split size {self.molecules}")
        for key in ("mae", "std_mae", "pearson_r"):
            if not _finite(report.get(key)):
                errors.append(f"eval {key} not finite: {report.get(key)!r}")
        return errors, hashlib.sha256(line.encode()).hexdigest()


class FeaturizeJob:
    """``data.load_manifest`` then ``training.prepare_all``, no model."""

    def __init__(self, plan):
        self.plan = plan
        self.molecules = plan["molecules"]

    def _run(self, manifest):
        from mxmnet import data, model, training

        ds = data.load_manifest(manifest)
        return ds.molecules, training.prepare_all(ds.molecules, model.ModelConfig())

    def warm_up(self):
        mols, prepared = self._run(self.plan["warm_manifest"])
        return [] if len(prepared) == len(mols) else ["warm-up featurize lost molecules"]

    def invoke(self):
        return self._run(self.plan["manifest"])

    def check(self, result):
        import numpy as np

        mols, prepared = result
        errors = []
        if len(mols) != self.molecules or len(prepared) != self.molecules:
            errors.append(f"{len(prepared)} featurized of {self.molecules} molecules")
        digest = hashlib.sha256()
        for m, bonds, (_, f) in zip(mols, self.plan["bonds"], prepared):
            e_l, e_g = f.local_src.size, f.global_src.size
            # Directed angle triples at a node of degree d: d (d - 1),
            # for both the two-hop and the one-hop family.
            deg = np.bincount(f.local_dst, minlength=f.n_nodes)
            angles = int((deg * (deg - 1)).sum())
            shapes_ok = (
                f.n_nodes == m.n_atoms
                and e_l == 2 * bonds  # every bond the inputs were built with
                and f.rbf_local.shape == (e_l, 16)
                and f.rbf_global.shape == (e_g, 16)
                and f.sbf_two.shape == (angles, 42)
                and f.sbf_one.shape == (angles, 42)
            )
            if not shapes_ok:
                errors.append(f"{m.key}: feature shapes do not match the graph")
                continue
            for arr in (f.rbf_local, f.rbf_global, f.sbf_two, f.sbf_one):
                if not np.all(np.isfinite(arr)):
                    errors.append(f"{m.key}: non-finite features")
                digest.update(arr.tobytes())
        return errors, digest.hexdigest()


JOBS = {"train": TrainJob, "eval": EvalJob, "featurize": FeaturizeJob}


def _timed_invocation(job):
    t0 = perf_counter()
    result = job.invoke()
    wall = perf_counter() - t0
    try:
        errors, digest = job.check(result)
    except (OSError, ValueError, KeyError, IndexError) as e:
        errors, digest = [f"output check crashed: {e!r}"], None
    return {"wall_s": wall, "molecules": job.molecules, "errors": errors, "digest": digest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    t0 = perf_counter()
    import mxmnet
    from mxmnet import basis

    basis.bessel_roots()
    job = JOBS[plan["workload"]](plan)
    warm_errors = job.warm_up()
    setup_s = perf_counter() - t0

    result = {"setup_s": setup_s, "warm_errors": warm_errors, "mxmnet": mxmnet.__version__}
    invocations = []
    if args.mode == "measure":
        start = perf_counter()
        while True:
            invocations.append(_timed_invocation(job))
            typical = statistics.median(r["wall_s"] for r in invocations)
            if perf_counter() - start + typical > args.seconds:
                break
    elif args.mode == "trace":
        # The first full-size invocation runs slower (cold heap and caches),
        # so the untraced reference is the second one.
        invocations += [_timed_invocation(job), _timed_invocation(job)]
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = _timed_invocation(job)
        finally:
            tr.uninstall()
        result["spans"] = tr.span_table()
        result["tally_checks"] = tr.counts["model.tally_checks"]
        forwards = result["spans"].get("model.forward", {}).get("calls", 0)
        traced["errors"] += tr.mismatches
        if result["tally_checks"] != forwards:
            traced["errors"].append(
                f"MessageTally checked on {result['tally_checks']} of {forwards} forward calls"
            )
        invocations.append(traced)
        result["per_layer"] = tr.per_layer_metrics(
            traced["wall_s"], invocations[1]["wall_s"], plan
        )
        result["absent"] = tr.absent()
        tr.write_spans(os.path.splitext(args.result)[0] + ".spans.csv")
    result["invocations"] = invocations
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
