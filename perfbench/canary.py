"""Fixed correctness canary at paper dims, independent of the workload seed.

Runs ``fixtures.fixture_set()`` through ``forward`` on a tape with
``init_params(ModelConfig(), 0)`` and takes the gradient of the summed
predictions in one backward step.  The predictions and every parameter's
gradient norm are compared with ``canary_ref.json`` to 1e-9 relative, and
each forward's ``MessageTally`` must equal ``graph.count_messages`` times
the block count exactly.

Regenerate the reference only when the model is meant to change::

    PYTHONPATH=src python3 perfbench/canary.py --write
"""

from __future__ import annotations

import json
import os
import sys

REF_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "canary_ref.json")
RTOL = 1e-9


def compute() -> dict:
    import numpy as np
    from mxmnet import autodiff, fixtures, graph, model

    cfg = model.ModelConfig()
    params = model.init_params(cfg, 0)
    preds, tallies = {}, {}
    for m in fixtures.fixture_set():
        g, feats = model.prepare_inputs(m, cfg)
        tally = model.MessageTally()
        with autodiff.Tape() as tape:
            y = model.forward(m, params, cfg, feats=feats, tally=tally)
        autodiff.backward(y, tape)
        preds[m.key] = y.item()
        want = [v * cfg.n_layers for v in graph.count_messages(g).as_tuple()]
        tallies[m.key] = (list(tally.as_tuple()), want)
    norms = {
        name: float(np.linalg.norm(t.grad)) if t.grad is not None else 0.0
        for name, t in params.items()
    }
    return {"predictions": preds, "grad_norms": norms, "tallies": tallies}


def _close(got, want) -> bool:
    return abs(got - want) <= RTOL * abs(want)


def check(ref_path: str = REF_PATH):
    """Return (attempted, errors) for the canary against its reference."""
    with open(ref_path, encoding="utf-8") as fh:
        ref = json.load(fh)
    got = compute()
    errors = []
    attempted = 0
    for kind in ("predictions", "grad_norms"):
        want = ref[kind]
        if set(got[kind]) != set(want):
            errors.append(f"canary {kind}: names differ from the reference")
        for name, value in want.items():
            attempted += 1
            if name in got[kind] and not _close(got[kind][name], value):
                errors.append(f"canary {kind} {name}: {got[kind][name]!r} vs {value!r}")
    for name, (tally, closed) in got["tallies"].items():
        attempted += 1
        if tally != closed:
            errors.append(f"canary tally {name}: {tally} vs closed form {closed}")
    return attempted, errors


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args != ["--write"]:
        attempted, errors = check()
        print("\n".join(errors) or f"canary ok ({attempted} checks)")
        return 1 if errors else 0
    out = compute()
    del out["tallies"]
    with open(REF_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REF_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
