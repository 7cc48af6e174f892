"""In-memory spans for the traced run, and the arithmetic over them.

A span is a plain dict: ``id``, ``name``, ``start``, ``end`` (seconds
from a monotonic clock), ``parent`` (the enclosing span's id or None),
``workload`` and ``counts`` (integers recorded at the same boundary).
Spans are kept in a list and written out once, when the run ends.
Standard library only, so importing this module loads nothing that the
traced import of the package would otherwise have to load.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.workload: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body; yields the span's ``counts`` dict to fill in."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "workload": self.workload, "counts": {},
                  "start": None, "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = self.clock()
        try:
            yield record["counts"]
        finally:
            record["end"] = self.clock()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: duration(s) - _covered(children.get(s["id"], ()),
                                             s["start"], s["end"])
            for s in spans}


def top_level_coverage(spans: list[dict], start: float, end: float) -> float:
    """Share of the wall interval [start, end] under top-level spans."""
    tops = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return _covered(tops, start, end) / (end - start)


def total_time(spans: list[dict], name: str) -> float:
    return sum(duration(s) for s in spans if s["name"] == name)


def call_count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def count_sum(spans: list[dict], key: str, prefix: str = "") -> int:
    """Sum of ``counts[key]`` over spans whose name starts with prefix."""
    return sum(s["counts"].get(key, 0) for s in spans
               if s["name"].startswith(prefix))
