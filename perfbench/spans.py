"""Span recording and self-time arithmetic for the traced benchmark run.

A span is one timed call into a layer: its name, start and end on the
`time.perf_counter` clock, the index of the span that was open when it
began (its parent), and the work counts recorded at the same boundary.
Spans stay in memory and are written out once, when the traced process
ends.  A span's self time is its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, counts]
        self._open = []

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent, {}])
        self._open.append(index)
        return index

    def end(self, index: int):
        if self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self._open.pop()
        self.spans[index][2] = time.perf_counter()

    def count(self, index: int, counts: dict):
        """Add work counts to a span (after it ends, so counting is not timed)."""
        self.spans[index][4].update(counts)

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "counts": c}
            for n, s, e, p, c in self.spans
        ]

    def write(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.to_json(), **extra}, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        kids = [
            (max(lo, spans[j]["start"]), min(hi, spans[j]["end"]))
            for j in children[i]
            if spans[j]["end"] > lo and spans[j]["start"] < hi
        ]
        out.append((hi - lo) - _covered(kids))
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name."""
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"]] += own
    return dict(totals)


def counts_by_name(spans: list[dict]) -> dict[str, float]:
    """Summed work counts over all spans, keyed by counter name."""
    totals = defaultdict(float)
    for span in spans:
        for key, value in span["counts"].items():
            totals[key] += value
    return dict(totals)


def root_duration(spans: list[dict]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
