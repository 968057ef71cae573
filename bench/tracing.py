"""Spans around the public functions of each ``snapslam`` module.

The wrappers live here, not in the package: ``install`` replaces every
module attribute under ``snapslam`` that refers to a traced function, so a
caller that imported the function by name (``robust`` imports
``landmark_refine``, ``detector`` and ``evaluation`` import
``robust_solve``, ...) reaches the wrapper too. ``uninstall`` puts every
original back. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, function) pairs that are traced; the span name is "module.function"
TARGETS = (
    ("sim", "generate_dataset"),
    ("sim", "trace_paths"),
    ("dataio", "write_dataset"),
    ("dataio", "read_dataset"),
    ("dataio", "write_jsonl"),
    ("dataio", "write_metrics_csv"),
    ("estimator", "orientation_grid"),
    ("estimator", "landmark_refine"),
    ("robust", "enumerate_combinations"),
    ("robust", "robust_solve"),
    ("detector", "los_test"),
    ("detector", "mixed_solve"),
    ("evaluation", "solve_snapshot"),
    ("cli", "main"),
)


class Span:
    """One call: name, interval, parent span index, snapshot and phase."""

    __slots__ = ("name", "start", "end", "parent", "snap", "phase", "error", "info")

    def __init__(self, name, start, end=0.0, parent=-1, snap=-1, phase=""):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.snap = snap
        self.phase = phase
        self.error = None       # exception type name, if the call raised
        self.info = None        # what the call's result says; see _result_info

    @property
    def duration(self) -> float:
        return self.end - self.start


def _hypothesis_suffix(args, kwargs) -> str:
    hyp = args[1] if len(args) > 1 else kwargs.get("hypothesis")
    return "." + getattr(hyp, "value", str(hyp))


def _result_info(name: str, result):
    """What a span keeps of its call's result, by function."""
    if name in ("robust.enumerate_combinations", "estimator.orientation_grid",
                "sim.trace_paths"):
        return len(result)
    if name == "estimator.landmark_refine":
        return (result.iterations, result.converged)
    if name == "detector.los_test":
        return result.decided.value
    return None


class Tracer:
    """Collects spans; ``snap`` and ``phase`` tag the spans opened next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.snap = -1
        self.phase = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        split = name == "robust.robust_solve"

        def traced(*args, **kwargs):
            full = name + _hypothesis_suffix(args, kwargs) if split else name
            span = Span(full, time.perf_counter(),
                        parent=stack[-1] if stack else -1,
                        snap=self.snap, phase=self.phase)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _result_info(name, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "snapslam" or n.startswith("snapslam."))]


def install(tracer: Tracer) -> list:
    """Wrap every lookup site of every target; return what ``uninstall`` needs."""
    modules = _package_modules()
    replaced = []
    for mod_name, fn_name in TARGETS:
        original = getattr(sys.modules["snapslam." + mod_name], fn_name)
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
    return replaced


def uninstall(replaced: list) -> None:
    for module, attr, original in reversed(replaced):
        setattr(module, attr, original)


@contextmanager
def installed(tracer: Tracer):
    replaced = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(replaced)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out
