"""In-memory spans around the benchmark's calls into pairdesign.

A span records its name, start, end, parent span and job id, plus any counts
the caller attaches.  Spans are kept in memory and written out once, when the
benchmark ends.  ``NullTracer`` has the same interface and records nothing;
untraced passes use it so that their timings carry no tracing cost.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans; nesting follows the order in which ``span`` is entered."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, job: str):
        """Time the body; the yielded dict takes counts recorded with the span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        counts: dict = {}
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": span_id, "parent": parent, "name": name, "job": job,
                 "start": start, "end": end, "counts": counts}
            )


class NullTracer:
    """Tracer stand-in for untraced passes."""

    spans: list[dict] = []

    @contextmanager
    def span(self, name: str, job: str):
        yield {}


def layer_of(span: dict) -> str:
    """Layer a span belongs to: the part of its name before the first dot."""
    return span["name"].split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span run one after another, never overlapping, because
    every call the benchmark makes is sequential.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def write_spans(path: str, spans: list[dict]) -> None:
    """Write spans as JSON lines, ordered by start time."""
    with open(path, "w") as handle:
        for span in sorted(spans, key=lambda s: s["start"]):
            handle.write(json.dumps(span, sort_keys=True) + "\n")
