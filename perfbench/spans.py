"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, an optional label (for
example the claim a ``verify`` call checks), start, end and the id of the
span that was open when it began. Every span of one run shares the run id.
Calls made millions of times per run (the structural gates of a labeled
scan) would not fit in memory one by one, so those wrappers fold their calls
into one aggregate per (name, parent span): a call count and a total time.

Self time of a span is its duration minus the time its child spans and child
aggregates cover; calls are sequential, so children never overlap.

Nothing here knows about totaldom: the benchmark hands in the module
attributes to wrap, and ``installed`` restores every one of them on exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Wrap:
    """One module attribute to wrap during a traced run.

    ``aggregate`` folds calls into per-parent totals instead of keeping a
    span per call. ``label`` maps the call's arguments to the span label;
    ``on_result`` receives each return value and the tracer's counters.
    """

    module: object
    attr: str
    name: str
    aggregate: bool = False
    label: Callable | None = None
    on_result: Callable | None = None


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    ROOT = 0  # parent id of spans opened outside any other span

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (id, name, label, start, end, parent)
        self.spans: list[tuple[int, str, object, float, float, int]] = []
        # (name, parent) -> [calls, total seconds]
        self.aggregates: dict[tuple[str, int], list] = {}
        # exact counts reported by on_result hooks and raised exceptions
        self.counters: dict[str, int] = {}
        self._stack = [self.ROOT]
        self._next_id = self.ROOT + 1

    # -- wrappers --------------------------------------------------------------

    def span_wrapper(self, w: Wrap, fn: Callable) -> Callable:
        counters = self.counters
        name, label_of, on_result = w.name, w.label, w.on_result
        raised_key = name + ".raised"

        def wrapper(*args, **kwargs):
            label = label_of(*args, **kwargs) if label_of is not None else None
            try:
                with self.span(name, label):
                    result = fn(*args, **kwargs)
            except BaseException:
                counters[raised_key] = counters.get(raised_key, 0) + 1
                raise
            if on_result is not None:
                on_result(result, counters)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate_wrapper(self, w: Wrap, fn: Callable) -> Callable:
        aggregates, stack = self.aggregates, self._stack
        clock = time.perf_counter
        name = w.name

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                key = (name, stack[-1])
                cell = aggregates.get(key)
                if cell is None:
                    aggregates[key] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, wraps: list[Wrap]):
        """Replace each attribute by its wrapper; restore all on exit."""
        saved = []
        try:
            for w in wraps:
                fn = getattr(w.module, w.attr)
                saved.append((w.module, w.attr, fn))
                make = self.aggregate_wrapper if w.aggregate else self.span_wrapper
                setattr(w.module, w.attr, make(w, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextmanager
    def span(self, name: str, label: object = None):
        """Record one span around the block."""
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, label, start, end, parent))

    # -- summaries -------------------------------------------------------------

    def _covered(self) -> dict[int, float]:
        covered: dict[int, float] = {}
        for _, _, _, start, end, parent in self.spans:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
        for (_, parent), (_, total) in self.aggregates.items():
            covered[parent] = covered.get(parent, 0.0) + total
        return covered

    def totals(self) -> dict[str, Totals]:
        """Calls, inclusive time and self time per span or aggregate name."""
        covered = self._covered()
        out: dict[str, Totals] = {}
        for sid, name, _, start, end, _ in self.spans:
            t = out.setdefault(name, Totals())
            t.calls += 1
            t.total_s += end - start
            t.self_s += (end - start) - covered.get(sid, 0.0)
        for (name, _), (calls, total) in self.aggregates.items():
            t = out.setdefault(name, Totals())
            t.calls += calls
            t.total_s += total
            t.self_s += total
        return out

    def by_label(self, name: str) -> dict[object, float]:
        """Inclusive seconds per label of the spans called ``name``."""
        out: dict[object, float] = {}
        for _, span_name, label, start, end, _ in self.spans:
            if span_name == name:
                out[label] = out.get(label, 0.0) + (end - start)
        return out

    def write(self, path) -> None:
        """Write every span, aggregate and counter as one JSON document."""
        doc = {
            "run_id": self.run_id,
            "spans": [
                {
                    "run": self.run_id,
                    "id": sid,
                    "name": name,
                    "label": label,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                for sid, name, label, start, end, parent in self.spans
            ],
            "aggregates": [
                {"name": name, "parent": parent, "calls": calls, "total_s": total}
                for (name, parent), (calls, total) in self.aggregates.items()
            ],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
