"""Request-scoped distributed tracing (DESIGN.md §5h).

Every image admitted to either backend is assigned a :class:`TraceContext`
— a ``(trace_id, span_id, start)`` triple minted once at the entry point
(:meth:`ServingFrontEnd.submit`, ``StreamEngine.dispatch``, or the DES
dispatch/arrival path) and then *propagated*, never re-minted: it rides the
``BatchTask`` messages across the fork/IPC boundary, is echoed back on each
``BatchResult``, and tags every span the drivers record for that image.  The
result is one flat span tree per image: a single ``request`` root covering
the request's whole residence in the system, with every pipeline stage
(queue-wait → partition → transfer → conv_compute → compress →
result_transfer → merge → central_layers) a child of that root.

Span events reuse the ordinary telemetry schema — they are plain dicts with
``trace_id`` / ``span_id`` / ``parent_id`` fields added — so every existing
exporter (Chrome trace, JSONL, report) keeps working untouched, and
sim-time traces are bit-compatible with wall-clock ones.

Post-hoc analysis lives here too: :func:`assemble_traces` groups a run's
span events into :class:`TraceTree` objects (detecting orphans and missing
roots), and :func:`critical_path` attributes each request's end-to-end
latency to its dominant stage with a sweep-line over the root interval, so
the per-stage attribution sums *exactly* to the root duration.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from .recorder import (
    STAGE_CENTRAL,
    STAGE_COMPRESS,
    STAGE_CONV_COMPUTE,
    STAGE_MERGE,
    STAGE_PARTITION,
    STAGE_QUEUE_WAIT,
    STAGE_REQUEST,
    STAGE_RESULT_TRANSFER,
    STAGE_TRANSFER,
)

__all__ = [
    "TraceContext",
    "TraceScope",
    "Span",
    "TraceTree",
    "CriticalPath",
    "assemble_traces",
    "critical_path",
]

#: span id reserved for the per-request root (``request``) span.
ROOT_SPAN_ID = 0

#: When two stage spans overlap in time (pipelining makes this routine),
#: the critical-path sweep credits the elementary interval to the stage
#: *furthest along* the pipeline — the downstream stage is the one whose
#: completion actually gates the request.  ``queue_wait`` sits below every
#: processing stage; unknown span kinds rank lowest of all.
ATTRIBUTION_ORDER: tuple[str, ...] = (
    STAGE_QUEUE_WAIT,
    STAGE_PARTITION,
    STAGE_TRANSFER,
    STAGE_CONV_COMPUTE,
    STAGE_COMPRESS,
    STAGE_RESULT_TRANSFER,
    STAGE_MERGE,
    STAGE_CENTRAL,
)

#: Bucket for root time covered by no child span (scheduler gaps, queue
#: waits inside the cluster, result-sweep latency).
WAIT_BUCKET = "wait"


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Immutable trace identity that crosses process boundaries.

    ``span_id`` is the id of the span that parents any work performed
    under this context — for contexts minted at admission it is the
    ``request`` root (:data:`ROOT_SPAN_ID`).  ``start`` is the clock
    reading (``perf_counter`` in the process backend, sim-time in the
    DES) at which the request entered the system; the driver uses it to
    place the root span and the ``queue_wait`` child.
    """

    trace_id: int
    span_id: int = ROOT_SPAN_ID
    start: float = 0.0


class TraceScope:
    """Driver-side span-id allocator for one request.

    Lives only in the driver process (it is mutable and never pickled);
    workers see the frozen :class:`TraceContext` instead.  All stage spans
    are allocated here so ids are unique within the trace without any
    cross-process coordination.
    """

    __slots__ = ("trace_id", "start", "root_id", "_next")

    def __init__(self, trace_id: int, start: float, root_id: int = ROOT_SPAN_ID) -> None:
        self.trace_id = trace_id
        self.start = start
        self.root_id = root_id
        self._next = root_id + 1

    @classmethod
    def from_context(cls, ctx: TraceContext) -> TraceScope:
        return cls(ctx.trace_id, ctx.start, ctx.span_id)

    def context(self) -> TraceContext:
        """The frozen context tasks carry on the wire."""
        return TraceContext(self.trace_id, self.root_id, self.start)

    def next_span_id(self) -> int:
        nid = self._next
        self._next += 1
        return nid

    def child_fields(self) -> dict[str, int]:
        """Trace fields for one new stage span parented to the root."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.next_span_id(),
            "parent_id": self.root_id,
        }

    def root_fields(self) -> dict[str, int]:
        """Trace fields for the ``request`` root span (no ``parent_id``)."""
        return {"trace_id": self.trace_id, "span_id": self.root_id}


@dataclass(frozen=True, slots=True)
class Span:
    """One span event, parsed out of the flat telemetry schema."""

    kind: str
    start: float
    duration: float
    trace_id: int
    span_id: int
    parent_id: int | None
    node: str | None
    image_id: int | None
    event: Mapping[str, Any]

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(slots=True)
class TraceTree:
    """All spans sharing one trace id, with structural diagnostics."""

    trace_id: int
    spans: list[Span] = field(default_factory=list)

    @property
    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    @property
    def orphans(self) -> list[Span]:
        """Spans whose parent id does not name any span in this trace."""
        ids = {s.span_id for s in self.spans}
        return [s for s in self.spans if s.parent_id is not None and s.parent_id not in ids]

    @property
    def root(self) -> Span | None:
        roots = self.roots
        return roots[0] if len(roots) == 1 else None

    @property
    def image_id(self) -> int | None:
        root = self.root
        return root.image_id if root is not None else None

    @property
    def complete(self) -> bool:
        """Exactly one ``request`` root and zero orphan spans."""
        root = self.root
        return root is not None and root.kind == STAGE_REQUEST and not self.orphans

    def children(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def stages(self) -> list[Span]:
        """Non-root spans in start order (the pipeline stages)."""
        return sorted((s for s in self.spans if s.parent_id is not None), key=lambda s: s.start)


def _parse_span(ev: Mapping[str, Any]) -> Span | None:
    if "trace_id" not in ev or "span_id" not in ev or "duration" not in ev:
        return None
    image = ev.get("image_id")
    parent = ev.get("parent_id")
    return Span(
        kind=str(ev.get("kind", "?")),
        start=float(ev["time"]),
        duration=float(ev["duration"]),
        trace_id=int(ev["trace_id"]),
        span_id=int(ev["span_id"]),
        parent_id=None if parent is None else int(parent),
        node=None if ev.get("node") is None else str(ev["node"]),
        image_id=None if image is None else int(image),
        event=ev,
    )


def assemble_traces(events: Iterable[Mapping[str, Any]]) -> dict[int, TraceTree]:
    """Group a run's span events into per-request trees, keyed by trace id.

    Only events carrying the trace triple are considered; everything else
    (metrics rows, ``record()`` events, untraced spans) is ignored, so the
    function can be pointed at a raw JSONL artifact unfiltered.
    """
    trees: dict[int, TraceTree] = {}
    for ev in events:
        span = _parse_span(ev)
        if span is None:
            continue
        trees.setdefault(span.trace_id, TraceTree(span.trace_id)).spans.append(span)
    return trees


@dataclass(frozen=True, slots=True)
class CriticalPath:
    """Latency attribution for one request: stage → seconds on the path.

    ``breakdown`` partitions the root span's duration exactly — the values
    sum to ``total`` by construction (sweep-line over the root interval,
    no double counting) — so "where did this image's latency go?" always
    has a complete answer.
    """

    breakdown: dict[str, float]
    total: float

    @property
    def dominant(self) -> str:
        """The stage carrying the most end-to-end time."""
        if not self.breakdown:
            return WAIT_BUCKET
        return max(self.breakdown.items(), key=lambda kv: kv[1])[0]


def critical_path(tree: TraceTree) -> CriticalPath:
    """Attribute a trace's end-to-end latency to its pipeline stages.

    Sweep-line over the root ``request`` interval: child spans are clipped
    to the root, and each elementary interval is credited to the covering
    stage ranked furthest along :data:`ATTRIBUTION_ORDER` (the downstream
    stage gates completion when stages overlap under pipelining).  Root
    time covered by no child lands in the :data:`WAIT_BUCKET`, so the
    breakdown sums exactly to the root duration.
    """
    root = tree.root
    if root is None:
        raise ValueError(f"trace {tree.trace_id} has no unique root span")
    r0, r1 = root.start, root.end
    rank = {stage: i for i, stage in enumerate(ATTRIBUTION_ORDER)}
    clipped: list[tuple[float, float, str]] = []
    for span in tree.spans:
        if span.parent_id is None:
            continue
        lo, hi = max(span.start, r0), min(span.end, r1)
        if hi > lo:
            clipped.append((lo, hi, span.kind))
    points = sorted({r0, r1, *(p for lo, hi, _ in clipped for p in (lo, hi))})
    breakdown: dict[str, float] = {}
    for seg_lo, seg_hi in zip(points, points[1:]):
        width = seg_hi - seg_lo
        if width <= 0.0:
            continue
        active = [kind for lo, hi, kind in clipped if lo <= seg_lo and hi >= seg_hi]
        winner = max(active, key=lambda k: rank.get(k, -1)) if active else WAIT_BUCKET
        breakdown[winner] = breakdown.get(winner, 0.0) + width
    return CriticalPath(breakdown=breakdown, total=r1 - r0)
