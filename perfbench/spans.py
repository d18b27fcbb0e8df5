"""Outside-in span recording for the traced benchmark run.

The benchmark does not rely on instrumentation inside infoeq. Instead,
`instrument` replaces, for the duration of a `with` block, every function
that `infoeq.cli`, `infoeq.fitting` and `infoeq.macro` import from a lower
package module, plus `infoeq.fitting.minimize`, with a wrapper that
records a span. Callers look these names up as module globals at call
time, so the wrappers see every call that crosses a layer boundary. The
original attributes are put back in a `finally`.

A span is named `<layer>.<function>`, where the layer is the module that
defines the function. Spans are kept in memory; per-layer metrics are
computed from them after the run.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from dataclasses import dataclass

import numpy as np

PATCHED_MODULES = ("infoeq.cli", "infoeq.fitting", "infoeq.macro")
# defined in fitting itself, but the fit functions call it through the module global
EXTRA_TARGETS = (("infoeq.fitting", "minimize"),)


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    work: float | None = None  # runs, points or rows handled, by span kind

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _measure(name: str):
    """How to count the units of work a span of this kind handled, if any."""
    if name == "ensemble.monte_carlo":
        return lambda args, out: float(args[0].runs)
    if name == "timeseries.loess_smooth":
        return lambda args, out: float(len(args[0]))
    if name == "timeseries.load_csv":
        return lambda args, out: float(len(out))
    if name.startswith("fitting.fit_") and name != "fitting.fit_report":
        return lambda args, out: float(out.iterations)
    if name.startswith("macro."):
        return lambda args, out: float(_points(out))
    return None


def _points(out) -> int:
    """Values a model call produced: array size, series length, or curve rows."""
    if hasattr(out, "t") and hasattr(out, "v"):
        return len(out.t)
    if hasattr(out, "__dataclass_fields__"):
        return sum(len(getattr(out, f)) for f in out.__dataclass_fields__)
    return int(np.size(out))


class Recorder:
    """In-memory span list with a parent stack; one client, one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, name: str, fn):
        spans, stack, clock, measure = self.spans, self._stack, time.perf_counter, _measure(name)

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:
                span.work = measure(args, out)
            return out

        traced.__wrapped__ = fn
        return traced


def targets(modules) -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every function to wrap."""
    out = []
    for module in modules.values():
        for attr, obj in vars(module).items():
            home = getattr(obj, "__module__", "") or ""
            if inspect.isfunction(obj) and home.startswith("infoeq.") and home != module.__name__:
                out.append((module, attr, f"{home.split('.')[1]}.{obj.__name__}"))
    for module_name, attr in EXTRA_TARGETS:
        if hasattr(modules[module_name], attr):  # a span the code no longer has stays absent
            out.append((modules[module_name], attr, f"{module_name.split('.')[1]}.{attr}"))
    return out


@contextlib.contextmanager
def instrument(recorder: Recorder, modules):
    """Wrap the layer-boundary names of `modules` (name -> module) while active."""
    saved = []
    try:
        for module, attr, name in targets(modules):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, recorder.wrap(name, getattr(module, attr)))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap and
    their durations add up to the time they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, covered)]


def ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent is not None:
        yield spans[parent].name
        parent = spans[parent].parent
