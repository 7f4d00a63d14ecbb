"""In-memory spans and counters for the traced in-process pass.

A span records (name, detail, start, end, parent) around one call from
the benchmark into a spintrng layer.  Spans stay in memory until the
run ends; per-layer numbers are self times, i.e. a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict


class Tracer:
    """Collects spans and counts for one pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, detail: str = ""):
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "detail": detail,
                "start_ns": time.perf_counter_ns(),
                "end_ns": None,
                "parent": self._open[-1] if self._open else None,
            }
        )
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end_ns"] = time.perf_counter_ns()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> list[float]:
        """Self time in seconds of each span, in span order."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        return [
            (s["end_ns"] - s["start_ns"] - c) / 1e9
            for s, c in zip(self.spans, child_ns)
        ]

    def self_time_by_name(self, detail: str | None = None) -> dict[str, float]:
        """Summed self time per span name, optionally for one detail only."""
        totals: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            if detail is None or s["detail"] == detail:
                totals[s["name"]] += t
        return dict(totals)


class NullTracer:
    """Stand-in for the untraced pass: same interface, records nothing."""

    def span(self, name: str, detail: str = ""):
        return contextlib.nullcontext()

    def count(self, name: str, amount: int = 1) -> None:
        pass
