"""Spans around calls into the package's layers, recorded from outside it.

A function is wrapped at the name its caller looks up: ``approx.py`` does
``from .simplices import deepest_point_exact``, so the span sits on
``productdesign.approx.deepest_point_exact``, not on the simplices module.
``Market`` construction is caught on ``Market.__init__``, which every
caller's ``Market(...)`` reaches.  Wrappers are installed only around a
traced op and removed after it, so untraced ops run the plain functions.

Each span records its name, start, end and parent; a layer's self time is
its spans' durations minus the time their direct children cover.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)
    args: tuple = ()


def _rows(args, result):
    return {"rows": len(result)}


def _sweep(args, result):
    stats = result[1]
    return {
        k: getattr(stats, attr)
        for k, attr in (
            ("events", "events"),
            ("candidates_appended", "appended"),
            ("duplicate_skips", "duplicate_skips"),
            ("certificate_pushes", "certificate_pushes"),
        )
    }


def _approx(args, result):
    levels = result[1]
    return {"levels": len(levels), "simplices": sum(lv.simplex_count for lv in levels)}


def _one(args, result):
    return {"calls": 1}


# (module, attribute path, span name, counters taken from (args, result))
WRAP_POINTS = (
    ("productdesign.cli", "main", "cli", None),
    ("productdesign.cli", "parse_customers_json", "market.parse", _rows),
    ("productdesign.market", "Market.__init__", "market.build", None),
    ("productdesign.cli", "evaluate", "market.evaluate", _one),
    ("productdesign.approx", "evaluate", "market.evaluate", _one),
    ("productdesign.sweep", "evaluate", "market.evaluate", _one),
    ("productdesign.cli", "solve_exact_1d_with_stats", "sweep.solve", _sweep),
    ("productdesign.sweep", "solve_exact_1d_with_stats", "sweep.solve", _sweep),
    ("productdesign.cli", "solve_approx_detailed", "approx.solve", _approx),
    ("productdesign.approx", "project_customers", "approx.project", None),
    ("productdesign.approx", "deepest_point_exact", "simplices.depth", None),
)


class Tracer:
    """Records spans for the calls made between :meth:`install` and
    :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counter):
        spans, stack = self.spans, self._stack
        # A depth call's input is kept so its grid work can be computed
        # after the op, outside every span.
        keep_args = name == "simplices.depth"

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, stack[-1] if stack else None)
            if keep_args:
                span.args = args
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.end - span.start
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return wrapper

    def install(self):
        for module, path, name, counter in WRAP_POINTS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def op_metrics(self, guard: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far, then forget them."""
        self_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        works = []
        for span in self.spans:
            self_s[span.name] = self_s.get(span.name, 0.0) + (
                span.end - span.start - span.child_s
            )
            for k, v in span.counts.items():
                key = f"{span.name}.{k}"
                counts[key] = counts.get(key, 0) + v
            if span.args:
                works.append(_grid_work(span.args[0]))
        self.spans.clear()
        return {
            "market.parse_s": self_s.get("market.parse", 0.0),
            "market.parse_rows": counts.get("market.parse.rows", 0),
            "market.build_s": self_s.get("market.build", 0.0),
            "market.evaluate_s": self_s.get("market.evaluate", 0.0),
            "market.evaluate_calls": counts.get("market.evaluate.calls", 0),
            "sweep.solve_s": self_s.get("sweep.solve", 0.0),
            "sweep.events": counts.get("sweep.solve.events", 0),
            "sweep.candidates_appended": counts.get("sweep.solve.candidates_appended", 0),
            "sweep.duplicate_skips": counts.get("sweep.solve.duplicate_skips", 0),
            "sweep.certificate_pushes": counts.get("sweep.solve.certificate_pushes", 0),
            "approx.self_s": self_s.get("approx.solve", 0.0),
            "approx.project_s": self_s.get("approx.project", 0.0),
            "approx.levels": counts.get("approx.solve.levels", 0),
            "approx.simplices": counts.get("approx.solve.simplices", 0),
            "simplices.depth_s": self_s.get("simplices.depth", 0.0),
            "simplices.depth_calls": len(works),
            "simplices.grid_work": sum(works),
            "simplices.guard_headroom": max(works, default=0) / guard,
            "cli.self_s": self_s.get("cli", 0.0),
        }


def _grid_work(simplices) -> int:
    """Corner-value grid cells times simplices: the exact scan's work for one
    call, computed by the benchmark from the call's input."""
    corners = np.array([s.corner for s in simplices], dtype=float)
    cells = 1
    for k in range(corners.shape[1]):
        cells *= int(np.unique(corners[:, k]).size)
    return cells * len(simplices)
