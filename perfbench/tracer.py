"""Span tracer that wraps mxmnet's public functions from outside the package.

``Tracer.install`` finds its targets at run time: every function named in
the ``__all__`` of each layer module (for a module without ``__all__``,
every public function it defines), plus ``training.EmaWeights.update``.
Each target is rebound at every ``mxmnet.*`` module attribute that holds
it, so calls through ``from .x import f`` names are traced too.  A function
that a later version removes is reported as absent; a new one shows up under
its own name in the span file.

Backward time per op comes from wrapping ``autodiff.backward``: before the
original runs, each ``TapeOp.backward_fn`` on the tape it receives is
wrapped in a span named after ``TapeOp.name``.  Nothing else about the tape
is used.

Spans are kept in memory as (id, name, start, end, parent, thread) and
written out by ``write_spans`` when the run ends.  A span's self time is its
duration minus the spans nested in it on the same thread; spans that a pool
thread opens record the caller's open span as parent but are not subtracted
from it, so per-layer seconds add busy time over threads.
"""

from __future__ import annotations

import collections
import csv
import importlib
import inspect
import itertools
import sys
import threading
import weakref
from time import perf_counter

LAYERS = ("autodiff", "data", "graph", "basis", "model", "training", "cli")

# Ops reported in the per-layer metrics; any other op still gets spans.
OPS = (
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "add_bias",
    "concat",
    "gather",
    "segment_sum",
    "swish",
    "sum_all",
    "abs_val",
)

# (metric, unit, kind, span or counter).  Kinds: "calls" counts spans,
# "total" sums span durations, "self" sums self time, "count" reads a
# counter.  Derived metrics are filled in by ``per_layer_metrics``.
_SPAN_METRICS = [
    m
    for op in OPS
    for m in (
        (f"autodiff.{op}.calls", "count", "calls", f"autodiff.{op}"),
        (f"autodiff.{op}.fwd_s", "s", "total", f"autodiff.{op}"),
        (f"autodiff.{op}.bwd_s", "s", "total", f"autodiff.{op}.bwd"),
    )
] + [
    ("autodiff.tape_ops", "count", "count", "autodiff.tape_ops"),
    ("autodiff.matmul.gflop", "GFLOP", "count", "autodiff.matmul.gflop"),
    ("model.forward.s", "s", "self", "model.forward"),
    ("model.global_mp.s", "s", "self", "model.global_mp"),
    ("model.local_mp.s", "s", "self", "model.local_mp"),
    ("model.cross_layer_map.s", "s", "self", "model.cross_layer_map"),
    ("model.output_head.s", "s", "self", "model.output_head"),
    ("model.residual_update.s", "s", "self", "model.residual_update"),
    ("model.messages", "count", "count", "model.messages"),
    ("model.save_checkpoint.s", "s", "total", "model.save_checkpoint"),
    ("model.load_checkpoint.s", "s", "total", "model.load_checkpoint"),
    ("graph.build_multiplex.s", "s", "total", "graph.build_multiplex"),
    ("graph.enumerate_angle_triples.s", "s", "total", "graph.enumerate_angle_triples"),
    ("graph.local_edges", "count", "count", "graph.local_edges"),
    ("graph.global_edges", "count", "count", "graph.global_edges"),
    ("graph.two_hop_triples", "count", "count", "graph.two_hop_triples"),
    ("graph.one_hop_triples", "count", "count", "graph.one_hop_triples"),
    ("basis.featurize.s", "s", "self", "basis.featurize"),
    ("basis.spherical_basis.s", "s", "total", "basis.spherical_basis"),
    ("basis.radial_basis.s", "s", "total", "basis.radial_basis"),
    ("data.load_manifest.s", "s", "total", "data.load_manifest"),
    ("training.prepare_all.s", "s", "total", "training.prepare_all"),
    ("training.evaluate.s", "s", "total", "training.evaluate"),
    ("training.adam_step.s", "s", "total", "training.adam_step"),
    ("training.adam_step.calls", "count", "calls", "training.adam_step"),
    ("training.ema_update.s", "s", "total", "training.ema_update"),
    ("cli.main.self_s", "s", "self", "cli.main"),
]

_DERIVED = [
    ("autodiff.matmul.gflop_per_s", "GFLOP/s"),
    ("model.messages_per_s", "1/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
    ("inputs.molecules", "count"),
    ("inputs.atoms", "count"),
]

PER_LAYER = [(name, unit) for name, unit, _, _ in _SPAN_METRICS] + _DERIVED

# Spans whose time a named metric reports: their own self time, and with
# _TOTALS everything nested in them on the same thread.  ``trace.coverage``
# counts only that time, so the root ``cli.main`` and unlisted spans
# (``cli.cmd_*``, ``training.train``, ``autodiff.backward`` ...) hold
# whatever the named layers do not explain.
_ATTRIBUTED = {
    key for _, _, kind, key in _SPAN_METRICS if kind != "count" and key != "cli.main"
}
_TOTALS = {key for _, _, kind, key in _SPAN_METRICS if kind == "total"}

# Counters and the wrapped function whose hook feeds them.
_COUNTER_SOURCE = {
    "autodiff.tape_ops": "autodiff.backward",
    "autodiff.matmul.gflop": "autodiff.matmul",
    "model.messages": "model.forward",
    "graph.local_edges": "graph.build_multiplex",
    "graph.global_edges": "graph.build_multiplex",
    "graph.two_hop_triples": "graph.enumerate_angle_triples",
    "graph.one_hop_triples": "graph.enumerate_angle_triples",
}


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        fn = getattr(mod, name, None)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield name, fn


class Tracer:
    """Records a span per call of every wrapped mxmnet function."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.mismatches: list[str] = []
        self.wrapped: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []
        self._mods: dict = {}
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._triples: dict[int, object] = {}
        self._closed: dict[int, tuple] = {}
        self._count_messages = None
        self.counting_messages = False
        self.origin = perf_counter()

    # --- spans ---------------------------------------------------------------

    def _timed(self, name, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        main_stack = self._main_stack

        def call(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, threading.get_ident()))

        return call

    def _count(self, key, value):
        with self._lock:
            self.counts[key] += value

    # --- wrappers with hooks -------------------------------------------------

    def _wrap(self, name, fn):
        timed = self._timed(name, fn)
        hook = {
            "autodiff.backward": self._wrap_backward,
            "autodiff.matmul": self._wrap_matmul,
            "graph.build_multiplex": self._wrap_build,
            "graph.enumerate_angle_triples": self._wrap_triples,
            "model.prepare_inputs": self._wrap_prepare,
            "model.forward": self._wrap_forward,
        }.get(name)
        return hook(fn, timed) if hook else timed

    def _wrap_backward(self, fn, timed):
        def call(*args, **kwargs):
            for arg in itertools.chain(args, kwargs.values()):
                ops = getattr(arg, "ops", None)
                if isinstance(ops, list):
                    self._count("autodiff.tape_ops", len(ops))
                    for op in ops:
                        op.backward_fn = self._timed(
                            f"autodiff.{op.name}.bwd", op.backward_fn
                        )
            return timed(*args, **kwargs)

        return call

    def _wrap_matmul(self, fn, timed):
        def call(a, b, *args, **kwargs):
            out = timed(a, b, *args, **kwargs)
            (m, k), n = a.data.shape, b.data.shape[1]
            self._count("autodiff.matmul.gflop", 2e-9 * m * k * n)
            return out

        return call

    def _wrap_build(self, fn, timed):
        def call(*args, **kwargs):
            g = timed(*args, **kwargs)
            self._count("graph.local_edges", int(g.local_edges.shape[0]))
            self._count("graph.global_edges", int(g.global_edges.shape[0]))
            return g

        return call

    def _wrap_triples(self, fn, timed):
        def call(g, *args, **kwargs):
            t = timed(g, *args, **kwargs)
            self._count("graph.two_hop_triples", int(t.two_hop.shape[0]))
            self._count("graph.one_hop_triples", int(t.one_hop.shape[0]))
            self._triples[id(g)] = t
            return t

        return call

    def _wrap_prepare(self, fn, timed):
        # Remember the closed-form message counts of each prepared molecule,
        # from the triples its featurization enumerated, for model.forward.
        def call(*args, **kwargs):
            out = timed(*args, **kwargs)
            g, feats = out
            triples = self._triples.pop(id(g), None)
            if triples is not None and self._count_messages is not None:
                try:
                    ref = weakref.ref(feats)
                except TypeError:
                    return out
                self._closed[id(feats)] = (ref, self._count_messages(g, triples))
            return out

        return call

    def _wrap_forward(self, fn, timed):
        # Count closed-form messages per call and check them against a
        # MessageTally handed to the original forward.
        sig = inspect.signature(fn)
        tally_cls = getattr(self._mods["model"], "MessageTally", None)
        if tally_cls is None or not {"feats", "cfg", "tally"} <= set(sig.parameters):
            return timed
        self.counting_messages = True

        def call(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            feats = bound.arguments.get("feats")
            entry = self._closed.get(id(feats)) if feats is not None else None
            given = bound.arguments.get("tally")
            if entry is None or entry[0]() is not feats or given is not None:
                return timed(*args, **kwargs)
            layers = bound.arguments["cfg"].n_layers
            tally = tally_cls()
            bound.arguments["tally"] = tally
            out = timed(*bound.args, **bound.kwargs)
            counts = entry[1]
            want = tuple(v * layers for v in counts.as_tuple())
            if tally.as_tuple() != want:
                self.mismatches.append(f"tally {tally.as_tuple()} != closed form {want}")
            self._count("model.messages", counts.total * layers)
            self._count("model.tally_checks", 1)
            return out

        return call

    # --- install / uninstall -------------------------------------------------

    def install(self):
        targets = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"mxmnet.{layer}")
            except ImportError:
                continue
            self._mods[layer] = mod
            for fname, fn in _public_functions(mod):
                targets[id(fn)] = (fn, f"{layer}.{fname}")
        graph = self._mods.get("graph")
        self._count_messages = getattr(graph, "count_messages", None)
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        self.wrapped = {name for _, name in targets.values()}
        for mname, mod in list(sys.modules.items()):
            if mname != "mxmnet" and not mname.startswith("mxmnet."):
                continue
            for attr, val in list(vars(mod).items()):
                key = id(val)
                if key in wrappers and targets[key][0] is val:
                    setattr(mod, attr, wrappers[key])
                    self._undo.append((mod, attr, val))
        ema = getattr(self._mods.get("training"), "EmaWeights", None)
        update = getattr(ema, "update", None)
        if inspect.isfunction(update):
            setattr(ema, "update", self._timed("training.ema_update", update))
            self._undo.append((ema, "update", update))
            self.wrapped.add("training.ema_update")
        self._local.stack = self._main_stack
        self.origin = perf_counter()

    def uninstall(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()
        self._triples.clear()
        self._closed.clear()

    # --- results -------------------------------------------------------------

    def times(self):
        """Per span name: call count, total seconds, self seconds; and the
        self seconds on the calling thread that a named metric reports."""
        info = {
            sid: (name, t1 - t0, parent, tid)
            for sid, name, t0, t1, parent, tid in self.spans
        }
        own = {sid: dur for sid, (_, dur, _, _) in info.items()}
        inside = {}  # nested, on the same thread, in a span in _TOTALS
        for sid in sorted(info):
            _, dur, parent, tid = info[sid]
            p = info.get(parent)
            same = p is not None and p[3] == tid
            if same:
                own[parent] -= dur
            inside[sid] = same and (p[0] in _TOTALS or inside.get(parent, False))
        calls = collections.Counter()
        total = collections.Counter()
        self_s = collections.Counter()
        attributed = 0.0
        for sid, name, t0, t1, _, tid in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += own[sid]
            if tid == self._main_thread and (name in _ATTRIBUTED or inside[sid]):
                attributed += own[sid]
        return calls, total, self_s, attributed

    def absent(self):
        """Metric names whose function was not found to wrap."""
        out = []
        for name, _, kind, key in _SPAN_METRICS:
            source = _COUNTER_SOURCE.get(key, key) if kind == "count" else key
            if source.endswith(".bwd"):
                source = "autodiff.backward"
            if source not in self.wrapped:
                out.append(name)
        if not self.counting_messages:
            out.append("model.messages")
        return sorted(set(out))

    def per_layer_metrics(self, traced_wall, untraced_wall, inputs):
        """Every PER_LAYER metric as {name: {"value", "unit"}}."""
        calls, total, self_s, attributed = self.times()
        tables = {"calls": calls, "total": total, "self": self_s, "count": self.counts}
        out = {}
        for name, unit, kind, key in _SPAN_METRICS:
            out[name] = {"value": tables[kind].get(key, 0), "unit": unit}
        mm = total.get("autodiff.matmul", 0.0)
        fw = total.get("model.forward", 0.0)
        derived = {
            "autodiff.matmul.gflop_per_s": self.counts["autodiff.matmul.gflop"] / mm if mm else 0.0,
            "model.messages_per_s": self.counts["model.messages"] / fw if fw else 0.0,
            "trace.coverage": attributed / traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "inputs.molecules": inputs["molecules"],
            "inputs.atoms": inputs["atoms"],
        }
        for name, unit in _DERIVED:
            out[name] = {"value": derived[name], "unit": unit}
        return out

    def span_table(self):
        """Every span name seen, with calls, total and self seconds."""
        calls, total, self_s, _ = self.times()
        return {
            name: {"calls": calls[name], "total_s": total[name], "self_s": self_s[name]}
            for name in sorted(calls)
        }

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_s", "end_s", "parent", "thread"])
            for sid, name, t0, t1, parent, tid in self.spans:
                start, end = t0 - self.origin, t1 - self.origin
                w.writerow([sid, name, f"{start:.9f}", f"{end:.9f}", parent, tid])
