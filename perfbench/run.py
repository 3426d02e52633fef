"""The mxmnet benchmark: one seeded workload per run, checked, one JSON line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads are ``train``, ``eval`` and ``featurize`` (see README.md beside
this file).  The run writes its seeded inputs under ``.bench_work/`` in the
checkout, runs the fixed canary, then starts the workload in its own
process with ``MXM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` pinned to the usable core count.  With ``--trace 0``
three more processes time set-up alone, and the last line printed holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced invocation.  Full results, the environment and the span file land in
``.bench_work/results/``.  ``--scale tiny`` shrinks the inputs for the
smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 3
DEADLINE_S = 170.0

def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_threads() -> dict:
    n = str(_cores())
    env = dict(os.environ)
    for key in ("MXM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[key] = n
        os.environ[key] = n
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "seed": seed,
    }


def _worker(env, plan_path, mode, seconds, result_path, timeout):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--plan", plan_path,
        "--mode", mode,
        "--seconds", str(seconds),
        "--result", result_path,
    ]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{mode} worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mxmnet benchmark")
    ap.add_argument("--workload", required=True, choices=("train", "eval", "featurize"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mxmnet", "__init__.py")):
        print(f"error: no mxmnet sources under {SRC}", file=sys.stderr)
        return 2
    env = _pin_threads()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    # Imported only now: numpy reads the thread pins when it is first loaded.
    import canary
    import inputs

    started = perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = os.path.join(ROOT, ".bench_work", "results")
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    try:
        plan = inputs.write_inputs(args.workload, args.seed, args.scale, work)
        plan_path = os.path.join(work, "plan.json")
        attempted, errors = canary.check()
        failed = len(errors)

        setups = []
        if not args.trace:
            for k in range(SETUP_PROBES):
                probe, err = _worker(
                    env, plan_path, "setup", 0, os.path.join(work, f"setup{k}.json"), 60
                )
                attempted += 1
                if err:
                    errors.append(err)
                    failed += 1
                    continue
                setups.append(probe["setup_s"])
                errors.extend(probe["warm_errors"])
                failed += bool(probe["warm_errors"])
        mode = "trace" if args.trace else "measure"
        remaining = DEADLINE_S - (perf_counter() - started)
        main_result, err = _worker(
            env, plan_path, mode, args.seconds, os.path.join(results_dir, f"{tag}.json"), remaining
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    errors.extend(main_result["warm_errors"])
    attempted += 1
    failed += bool(main_result["warm_errors"])
    setups.append(main_result["setup_s"])
    runs = main_result["invocations"]
    for r in runs:
        attempted += r["molecules"]
        if r["digest"] != runs[0]["digest"]:
            r["errors"].append("output differs from the first invocation")
        if r["errors"]:
            errors.extend(r["errors"])
            failed += r["molecules"]
    failed = min(failed, attempted)

    info = {
        "environment": _environment(args.seed),
        "inputs": {"molecules": plan["molecules"], "atoms": plan["atoms"]},
        "invocations": len(runs),
        "errors": errors,
    }
    print(f"perfbench {tag} scale={args.scale}")
    print("env " + json.dumps(info["environment"], sort_keys=True))
    print("inputs " + json.dumps(info["inputs"], sort_keys=True))
    for e in errors:
        print(f"FAIL {e}")
    if args.trace:
        metrics = main_result["per_layer"]
        info["absent"] = main_result["absent"]
        if main_result["absent"]:
            print("absent " + " ".join(main_result["absent"]))
        print(f"tally_checks {main_result['tally_checks']}")
    else:
        rates = [r["molecules"] / r["wall_s"] for r in runs]
        metrics = {
            "mol_per_s": {"value": statistics.median(rates), "unit": "mol/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": main_result["peak_rss_mb"], "unit": "MB"},
        }
        info["samples"] = {"mol_per_s": rates, "setup_s": setups}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_ratio {failed / attempted!r} ratio")
    with open(os.path.join(results_dir, f"{tag}.summary.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(info, metrics=metrics, attempted=attempted, failed=failed), fh, indent=1)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
