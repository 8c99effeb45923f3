"""Span tracer that wraps optishape's public functions from outside.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span, and rebinds it wherever a module of the
package holds it under any name (``problems.golden_section_min`` as well as
``optimize.golden_section_min``), so calls between modules are caught too.
Names starting with ``_`` are never touched; the verify suites are wrapped
through the public ``verify.SUITES`` mapping.  A module that no longer
exists is recorded as absent.

A span is ``[name, start, end, parent_index, op_id]``; spans stay in memory
and ``dump`` writes them out once, at exit.  Stdlib only.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

LAYERS = ("cli", "problems", "optimize", "geometry", "oracle", "verify")

# Functions whose first positional argument is the objective or predicate
# they drive: calls to that argument are counted as ``<name>.arg_calls``.
COUNT_ARG_CALLS = frozenset({
    "optimize.bisect_boundary",
    "oracle.brute_min",
    "oracle.brute_min_2d",
})


class Tracer:
    def __init__(self, op: int = 0) -> None:
        self.op = op
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self, package: str = "optishape") -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                self.absent.append(layer)
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        suites = getattr(modules.get("verify"), "SUITES", None)
        if isinstance(suites, dict):
            for name, fn in list(suites.items()):
                suites[name] = self._wrap(f"verify.suite.{name}", fn)
        for module in (importlib.import_module(package), *modules.values()):
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        self.wrapped.append(name)
        arg_key = name + ".arg_calls" if name in COUNT_ARG_CALLS else None
        eval_key = name + ".evaluations"
        counts.setdefault(eval_key, 0)
        if arg_key:
            counts.setdefault(arg_key, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if arg_key and args and callable(args[0]):
                inner = args[0]

                def counted(*a, **k):
                    counts[arg_key] += 1
                    return inner(*a, **k)

                args = (counted, *args[1:])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            evaluations = getattr(result, "evaluations", None)
            if type(evaluations) is int:
                counts[eval_key] += evaluations
            return result

        return functools.update_wrapper(traced, fn)

    def dump(self, path: str) -> None:
        counts = {k: v for k, v in self.counts.items() if v}
        doc = {"wrapped": self.wrapped, "absent": self.absent, "counts": counts,
               "spans": self.spans}
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        end - start - _covered(children.get(i, []), start, end)
        for i, (name, start, end, parent, op) in enumerate(spans)
    ]


class Profile:
    """Spans and counts merged over any number of traced processes."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}
        self.layer_calls: dict[str, int] = {}
        self.layer_self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.wrapped: set[str] = set()
        self.spans = 0

    def add(self, doc: dict) -> None:
        self.wrapped.update(doc["wrapped"])
        for key, value in doc["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        spans = doc["spans"]
        self.spans += len(spans)
        for (name, start, end, _, _), own in zip(spans, self_times(spans)):
            layer = name.split(".", 1)[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.durations.setdefault(name, []).append(end - start)
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.layer_calls[layer] = self.layer_calls.get(layer, 0) + 1
            self.layer_self_s[layer] = self.layer_self_s.get(layer, 0.0) + own

    def add_file(self, path: str) -> None:
        with open(path) as handle:
            self.add(json.load(handle))
