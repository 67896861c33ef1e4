"""The benchmark's own span log: one span per call into a layer.

Spans live in memory and are written out when the run ends.  A span's
parent is the span that was open on the same thread when it started, or,
for the first span a request causes on another thread, the request's root.
A layer's self time is its span minus the part its children cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: int | None


class SpanLog:
    """Append-only span recorder, safe to use from several threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._open = threading.local()
        self._roots: dict[int, int] = {}
        self._rid_of: dict[int, int] = {}

    def _new(self, name: str, parent: int | None, rid: int | None) -> Span:
        with self._lock:
            span = Span(len(self.spans), name, self._clock(), float("nan"), parent, rid)
            self.spans.append(span)
        return span

    # ------------------------------------------------------------ requests
    def open_request(self, rid: int, carrier: object) -> Span:
        """Start request ``rid``'s root span; ``carrier`` is the object the
        program will hand back at each layer boundary (the image array)."""
        span = self._new("request", None, rid)
        self._roots[rid] = span.sid
        self._rid_of[id(carrier)] = rid
        return span

    def close_request(self, span: Span, carrier: object) -> None:
        span.end = self._clock()
        self._rid_of.pop(id(carrier), None)

    def rid_of(self, carrier: object) -> int | None:
        return self._rid_of.get(id(carrier))

    # --------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str, rid: int | None = None) -> Iterator[Span]:
        stack: list[Span] | None = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        if stack:
            parent: int | None = stack[-1].sid
            rid = stack[-1].rid if rid is None else rid
        else:
            parent = self._roots.get(rid) if rid is not None else None
        span = self._new(name, parent, rid)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            stack.pop()

    # ------------------------------------------------------------- queries
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children are clipped to the parent and overlapping children are merged
    first, so two children covering the same instant are not subtracted
    twice.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = (span.end - span.start) - covered
    return out
