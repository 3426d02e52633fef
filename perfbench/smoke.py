"""Tiny-size self-test of the benchmark.

Run from the repository root::

    python3 perfbench/smoke.py

Checks that ``BENCHMARK.json`` names exactly the metrics the benchmark
emits, that every workload emits every named metric with its unit in both
modes and passes its correctness checks, that ``trace.coverage`` is at
least 0.9, that the model workloads checked their message tallies, that the
counts repeat exactly across two traced runs on one seed, and that the
command fails without a result when the sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402

EXACT = ("autodiff.tape_ops", "model.messages", "inputs.molecules", "inputs.atoms")


def _run(workload, trace, seed=3, cwd=ROOT):
    cmd = [
        sys.executable, os.path.join(os.path.relpath(HERE, ROOT), "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if want[1] != dict(tracer.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    traced = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = _run(w["name"], trace)
            label = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics {sorted(got)} != {sorted(want[trace])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correctness failed:\n{proc.stdout}")
            if trace:
                traced[w["name"]] = result["metrics"]
                coverage = result["metrics"]["trace.coverage"]["value"]
                if coverage < 0.9:
                    problems.append(f"{label}: trace.coverage {coverage} < 0.9")
                if w["name"] != "featurize" and not result["metrics"]["model.messages"]["value"]:
                    problems.append(f"{label}: no MessageTally was checked")
            print(f"ok {label}", flush=True)

    again = json.loads(_run("train", 1).stdout.strip().splitlines()[-1])["metrics"]
    counts = [n for n in want[1] if n.startswith("graph.") and not n.endswith(".s")]
    for name in list(EXACT) + counts:
        if again[name]["value"] != traced["train"][name]["value"]:
            problems.append(f"{name} differs between two traced runs of one seed")

    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path),
                os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        proc = _run("train", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without sources did not fail silently")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("\n".join(problems) or "smoke test passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
