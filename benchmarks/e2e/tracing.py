"""Benchmark-side span recorder.

Spans are recorded from outside the program: the harness sets wrappers
on *instances* around public methods (``sim.evaluate_global``,
``backend.run_jobs``, ...), so no file under ``src/`` knows it is being
traced.  Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    cycle: int

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """In-memory spans with a parent stack (single-threaded callers)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Optional[Span]] = []
        #: Cycle the spans being recorded belong to (0 = setup/teardown).
        self.cycle = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.cycle)

    def wrap(self, obj: Any, attr: str, name: str,
             after: Optional[Callable[[tuple, dict, Any], None]] = None
             ) -> None:
        """Shadow ``obj.attr`` with a traced instance attribute.

        ``after(args, kwargs, result)`` runs outside the span, for
        counters read at the same boundary.
        """
        method = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = method(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(obj, attr, traced)

    # ------------------------------------------------------------------ #
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times_ms(self) -> List[float]:
        """Per span: its duration minus what its direct children cover."""
        own = [span.ms for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.ms
        return own

    def per_cycle_ms(self, name: str, self_time: bool = False
                     ) -> Dict[int, float]:
        """Total (or self) time of ``name`` spans, summed per cycle."""
        own = self.self_times_ms() if self_time else None
        totals: Dict[int, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span.name == name:
                totals[span.cycle] += own[index] if self_time else span.ms
        return dict(totals)

    def coverage_pct(self, root_name: str) -> float:
        """Share of the ``root_name`` span its direct children cover."""
        roots = [index for index, span in enumerate(self.spans)
                 if span.name == root_name]
        if not roots:
            return 0.0
        root = roots[0]
        covered = sum(span.ms for span in self.spans if span.parent == root)
        return 100.0 * covered / self.spans[root].ms

    def self_time_table(self) -> List[Dict[str, Any]]:
        """One row per span name: count, total and self milliseconds."""
        own = self.self_times_ms()
        rows: Dict[str, Dict[str, Any]] = {}
        for index, span in enumerate(self.spans):
            row = rows.setdefault(span.name, {"name": span.name, "count": 0,
                                              "total_ms": 0.0,
                                              "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += span.ms
            row["self_ms"] += own[index]
        return sorted(rows.values(), key=lambda row: -row["self_ms"])

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "workload": self.workload, "cycle": span.cycle}) + "\n")
