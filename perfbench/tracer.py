"""Span tracing of lcframe's layers from outside the package.

``Tracer.installed()`` wraps the public functions of the traced modules
and rebinds every name that refers to them in every ``lcframe`` module
namespace, because modules import the functions they call by name
(``basic_invariants_at`` and ``curvature_packet`` are bound in five
modules).  ``SurfaceDef.__init__`` is wrapped on the class, and
``CompiledField.eval_derivative`` gets a counter only: it runs about
fifty times per grid point, too often for a span.  Leaving the context
restores every original object.

A span records its name, parent and duration; self time is the
duration minus the time covered by child spans.  The program is single
threaded, so one stack describes the open spans.  A dense grid opens
millions of spans, so spans are aggregated in memory by name and by
(parent, child) edge; the caller keeps one record per job span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: Modules whose public functions are traced; the layer is the suffix.
TRACED_MODULES = ("surface", "curvature", "classify", "limits", "cli")

#: Global counters each span snapshots, so inclusive counts come free.
INCLUSIVE = ("surface.basic_invariants_at", "curvature.curvature_packet", "evals")


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "self_evals", "inclusive")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.self_evals = 0
        self.inclusive = Counter()

    def to_dict(self):
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                "self_evals": self.self_evals, "inclusive": dict(self.inclusive)}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.edges = Counter()
        self.counts = Counter()  # span calls plus "evals" and "eval_errors"
        self.results = Counter()  # facts read from return values
        self._stack = []  # frames: [name, start, child_s, self_evals, snapshot]

    def _frame_closed(self, frame, end):
        name, start, child_s, self_evals, snapshot = frame
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child_s
        st.self_evals += self_evals
        for key, before in zip(INCLUSIVE, snapshot):
            st.inclusive[key] += self.counts[key] - before
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.edges[(parent[0] if parent else None, name)] += 1

    def span(self, name, fn, on_result=None):
        counts = self.counts
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            frame = [name, 0.0, 0.0, 0, tuple(counts[k] for k in INCLUSIVE)]
            stack.append(frame)
            frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._frame_closed(frame, end)
            if on_result is not None:
                on_result(self.results, result)
            return result

        return wrapper

    def counted_eval(self, fn, domain_error):
        counts = self.counts
        stack = self._stack

        @functools.wraps(fn)
        def eval_derivative(field, du, dv, u, v):
            counts["evals"] += 1
            if stack:
                stack[-1][3] += 1
            try:
                return fn(field, du, dv, u, v)
            except domain_error:
                counts["eval_errors"] += 1
                raise

        return eval_derivative

    @contextmanager
    def installed(self):
        """Wrap lcframe's layers for the duration of the block."""
        from lcframe.expr import CompiledField, EvalDomainError
        from lcframe.surface import SurfaceDef

        wrappers = {}
        for layer in TRACED_MODULES:
            module = sys.modules[f"lcframe.{layer}"]
            for attr in module.__all__:
                obj = getattr(module, attr)
                if callable(obj) and not isinstance(obj, type) \
                        and getattr(obj, "__module__", None) == module.__name__:
                    wrappers[id(obj)] = self.span(f"{layer}.{attr}", obj, _HOOKS.get(attr))

        patched = []  # (namespace, attribute, original)
        for modname, module in list(sys.modules.items()):
            if modname != "lcframe" and not modname.startswith("lcframe."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for cls, attr, wrap in (
                (SurfaceDef, "__init__",
                 lambda fn: self.span("surface.SurfaceDef", fn)),
                (CompiledField, "eval_derivative",
                 lambda fn: self.counted_eval(fn, EvalDomainError))):
            original = cls.__dict__[attr]
            patched.append((cls, attr, original))
            setattr(cls, attr, wrap(original))
        try:
            yield self
        finally:
            for namespace, attr, original in reversed(patched):
                setattr(namespace, attr, original)

    def summary(self):
        return {
            "spans": {name: st.to_dict() for name, st in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": n}
                      for (p, c), n in sorted(self.edges.items(), key=str)],
            "counts": dict(self.counts),
            "results": dict(self.results),
        }


def _on_trace(results, polylines):
    results["trace_polylines"] += len(polylines)
    results["trace_vertices"] += sum(len(p.vertices) for p in polylines)


def _on_report(results, report):
    results["rays_attempted"] += len(report.outcomes)
    for oc in report.outcomes:
        if oc.error is None and oc.verdicts:
            results["rays_completed"] += 1
            results["samples_completed"] += len(next(iter(oc.verdicts.values())).distances)


def _on_limit(results, verdict):
    results["verdicts"] += 1
    if verdict.verdict.value == "inconclusive":
        results["verdicts_inconclusive"] += 1


_HOOKS = {
    "trace_zero_set": _on_trace,
    "boundedness_report": _on_report,
    "limit_along": _on_limit,
}
