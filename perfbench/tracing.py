"""Spans around the calls into each ``els`` layer, recorded from outside.

The tracer replaces public functions by timing wrappers in every ``els``
module that holds them, because a module that did ``from .solver import
solve_cr`` looks the name up in its own namespace.  Private helpers are not
wrapped.  Each wrapped call records a span: layer, function, start, end,
parent span and instance id, plus what was counted while it was the
innermost open span.

Two hot leaves are folded into the innermost open span instead of being
recorded one by one, since a single oracle pass makes tens of thousands of
calls:

* ``ElsProblem.constraint_values`` (layer ``problem``): call count and time,
  which also count as child time of the enclosing span;
* every ``numpy.linalg`` function called through the module (layer
  ``linalg``): call count and time.  These are kernels the caller invokes,
  so their time stays in the caller's self time.

With ``memory=True`` the outermost ``solver`` and ``reduction`` spans also
run under ``tracemalloc`` and record its peak.  Allocation tracing slows
them, so the benchmark takes memory from a separate pass.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np

# layer -> public functions wrapped in every els module that binds them
WRAPPED = {
    "pipeline": ("solve_report",),
    "solver": ("solve_cr",),
    "lift": ("lift_constraints", "lift_point"),
    "reduction": ("reduce_to_stiefel", "find_direction"),
    "certificate": ("certify_global",),
    "oracle": ("oracle_solve",),
}
MEMORY_LAYERS = ("solver", "reduction")
LINALG_FUNCTIONS = (
    "cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "norm", "pinv", "qr", "slogdet", "solve", "svd",
)


class Span:
    __slots__ = (
        "layer", "name", "start", "end", "parent", "instance", "child_s",
        "linalg_calls", "linalg_s", "cv_calls", "cv_s", "peak_mb",
    )

    def __init__(self, layer, name, parent, instance):
        self.layer, self.name, self.parent, self.instance = layer, name, parent, instance
        self.start = self.end = self.child_s = self.linalg_s = self.cv_s = 0.0
        self.linalg_calls = self.cv_calls = 0
        self.peak_mb = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self, index: int) -> dict:
        return {
            "id": index, "layer": self.layer, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "instance": self.instance,
            "self_s": self.self_s, "linalg_calls": self.linalg_calls,
            "linalg_s": self.linalg_s, "constraint_values_calls": self.cv_calls,
            "constraint_values_s": self.cv_s, "peak_alloc_mb": self.peak_mb,
        }


class Tracer:
    """Install with ``with Tracer() as tracer:``; spans land in ``spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = -1
        self.memory = False
        self._stack: list[tuple[int, Span]] = []
        self._outside = Span("outside", "outside", None, -1)  # calls outside any span
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        els_modules = [m for name, m in sys.modules.items() if name == "els" or name.startswith("els.")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"els.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._span_wrapper(layer, name, original)
                for module in els_modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        problem_cls = sys.modules["els.problem"].ElsProblem
        self._patch(problem_cls, "constraint_values", self._leaf_wrapper(problem_cls.constraint_values))
        for name in LINALG_FUNCTIONS:
            self._patch(np.linalg, name, self._linalg_wrapper(getattr(np.linalg, name)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- wrappers -------------------------------------------------------------

    def _top(self) -> Span:
        return self._stack[-1][1] if self._stack else self._outside

    def _span_wrapper(self, layer, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        watch = layer in MEMORY_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, stack[-1][0] if stack else None, self.instance)
            index = len(spans)
            spans.append(span)
            started_memory = watch and self.memory and not tracemalloc.is_tracing()
            if started_memory:
                tracemalloc.start()
            stack.append((index, span))
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if started_memory:
                    span.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                if stack:
                    stack[-1][1].child_s += span.end - span.start

        return traced

    def _leaf_wrapper(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                top = self._top()
                top.cv_calls += 1
                top.cv_s += elapsed
                top.child_s += elapsed

        return traced

    def _linalg_wrapper(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                top = self._top()
                top.linalg_calls += 1
                top.linalg_s += clock() - t0

        return traced


def layer_metrics(spans: list[Span], reports: list[dict]) -> dict[str, float]:
    """Per-layer totals for one pass: its spans and its solve reports."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name, attr="duration"):
        return float(sum(getattr(s, attr) for s in by_name.get(name, [])))

    def layer_linalg(layer):
        return sum(s.linalg_calls for s in spans if s.layer == layer)

    certified = [r["certificate"] for r in reports if r.get("certificate") is not None]
    # The oracle confirms a recovered optimum when it lands within 1e-5 of it.
    oracle_runs = [r for r in reports if r.get("oracle") is not None and r["recovered"] is not None]
    matches = sum(
        1 for r in oracle_runs
        if r["oracle"].get("value") is not None
        and abs(r["oracle"]["value"] - r["recovered"]["objective"]) <= 1e-5
    )
    return {
        "pipeline.self_s": total("solve_report", "self_s"),
        "problem.constraint_values_calls": sum(s.cv_calls for s in spans),
        "problem.constraint_values_s": float(sum(s.cv_s for s in spans)),
        "solver.solve_cr_s": total("solve_cr"),
        "solver.solve_cr_calls": len(by_name.get("solve_cr", [])),
        "solver.linalg_calls": layer_linalg("solver"),
        "lift.lift_s": total("lift_constraints") + total("lift_point"),
        "reduction.reduce_s": total("reduce_to_stiefel", "self_s"),
        "reduction.find_direction_s": total("find_direction"),
        "reduction.steps": sum(max(len(r["reduction"]["trace"]) - 1, 0) for r in reports),
        "reduction.linalg_calls": layer_linalg("reduction"),
        "certificate.certify_s": total("certify_global"),
        "certificate.global_ratio": (
            sum(1 for c in certified if c["global"]) / len(certified) if certified else 0.0
        ),
        "oracle.oracle_s": total("oracle_solve"),
        "oracle.linalg_calls": layer_linalg("oracle"),
        "oracle.match_ratio": matches / len(oracle_runs) if oracle_runs else 0.0,
        "linalg.calls": sum(s.linalg_calls for s in spans),
        "linalg.busy_s": float(sum(s.linalg_s for s in spans)),
    }


def memory_metrics(spans: list[Span]) -> dict[str, float]:
    """Largest tracemalloc peak of the outermost solver and reduction spans."""
    out = {}
    for layer in MEMORY_LAYERS:
        peaks = [s.peak_mb for s in spans if s.layer == layer and s.peak_mb is not None]
        out[f"{layer}.peak_alloc_mb"] = max(peaks) if peaks else 0.0
    return out
