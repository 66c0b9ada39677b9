"""Span tracing of compedge, installed from the benchmark's side.

``Tracer.install`` wraps every public function of the six package modules and
rebinds each wrapper in every ``compedge`` namespace that holds the original.
``hochster_betti`` lives in ``homology`` but ``invariants`` and ``cli`` import
it by name, so patching only its home module would let nested calls escape.
Spans stay in memory as ``(name, start_ns, end_ns, parent, op)`` and are
written out once, after the run.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("graphs", "ideals", "homology", "invariants", "experiments", "cli")

BETTI = "homology.hochster_betti"
PREDICT = "invariants.predict_invariants"
QUOTIENTS = "ideals.has_linear_quotients"
ESTIMATE = "experiments.estimate_licci_probability"

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    + [(f"{BETTI}.{f}.{k}", u, "lower") for f in ("gf2", "q") for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"{BETTI}.repeat_ratio", "ratio", "lower"),
       ("homology.has_linear_resolution.calls", "count", "lower"),
       ("homology.is_componentwise_linear.self_ms", "ms", "lower"),
       ("ideals.minimal_vertex_covers.calls", "count", "lower"),
       ("ideals.minimal_vertex_covers.self_ms", "ms", "lower"),
       (f"{QUOTIENTS}.calls", "count", "lower"),
       (f"{QUOTIENTS}.self_ms", "ms", "lower"),
       (f"{QUOTIENTS}.nodes", "count", "lower"),
       (f"{QUOTIENTS}.inconclusive", "count", "lower"),
       ("ideals.squarefree_component.self_ms", "ms", "lower")]
    + [(f"invariants.{f}.{k}", u, "lower")
       for f in ("predict_invariants", "cross_validate", "implication_suite", "is_licci")
       for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"{PREDICT}.repeat_ratio", "ratio", "lower"),
       ("graphs.connected_components.calls", "count", "lower"),
       ("graphs.connected_components.self_ms", "ms", "lower")]
    + [(f"experiments.{f}.{k}", u, "lower")
       for f in ("estimate_licci_probability", "threshold_sweep")
       for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("experiments.trials_per_busy_s", "1/s", "higher"),
       ("cli.run.calls", "count", "lower"),
       ("cli.run.self_ms", "ms", "lower"),
       ("cli.interpreter_ms", "ms", "lower"),
       ("cli.import_ms", "ms", "lower"),
       ("cli.command_ms", "ms", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def _argument(fn, name):
    """Getter for parameter ``name`` of ``fn`` from a call's args and kwargs."""
    params = inspect.signature(fn).parameters
    index = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[index] if index < len(args) else default
    return get


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: Counter = Counter()
        self._seen: dict[str, set] = defaultdict(set)
        self._restore: list = []

    def _repeat(self, name, key):
        seen = self._seen[name]
        self.counters[f"{name}.repeats"] += key in seen
        seen.add(key)

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        before = after = None
        if name == BETTI:
            get_ideal, get_field = _argument(fn, "ideal"), _argument(fn, "field")

            def before(args, kwargs):
                field = get_field(args, kwargs)
                tag = getattr(field, "value", str(field))
                self._repeat(name, (get_ideal(args, kwargs), tag))
                return f"{name}.{tag}"
        elif name == PREDICT:
            get_graph = _argument(fn, "graph")

            def before(args, kwargs):
                self._repeat(name, get_graph(args, kwargs))
                return name
        elif name == QUOTIENTS:
            def after(result):
                counters[f"{name}.nodes"] += result.nodes
                counters[f"{name}.inconclusive"] += result.status == "inconclusive"
        elif name == ESTIMATE:
            def after(result):
                counters[f"{name}.trials"] += result.config.trials

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = before(args, kwargs) if before else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.op)
            if after:
                after(result)
            return result
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"compedge.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "compedge" and not name.startswith("compedge."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in self._restore:
            setattr(module, attr, obj)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans; cli.* and trace.* are added by the caller."""
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        busy_ns: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(spans):
            own = end - start - child[k]
            parts = name.split(".")
            for key in {parts[0], ".".join(parts[:2]), name}:
                self_ns[key] += own
                calls[key] += 1
                busy_ns[key] += end - start
        out = {}
        for name, _, _ in PER_LAYER:
            key, _, kind = name.rpartition(".")
            if kind == "self_ms":
                out[name] = self_ns[key] / 1e6
            elif kind == "calls":
                out[name] = calls[key]
            elif kind == "repeat_ratio":
                out[name] = self.counters[f"{key}.repeats"] / calls[key] if calls[key] else 0.0
            elif kind in ("nodes", "inconclusive"):
                out[name] = self.counters[name]
        trials = self.counters[f"{ESTIMATE}.trials"]
        busy = busy_ns[ESTIMATE] / 1e9
        out["experiments.trials_per_busy_s"] = trials / busy if busy else 0.0
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
