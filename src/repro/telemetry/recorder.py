"""Backend-agnostic span + event recording.

One event schema serves both runtime backends: the process backend records
wall-clock (``time.perf_counter`` — CLOCK_MONOTONIC, comparable across
forked workers on Linux), the DES backend records simulated seconds.  An
event is a flat dict with at least ``time`` (seconds) and ``kind``; *span*
events additionally carry ``duration`` plus the ``node`` track and
``image_id`` they belong to.  Stage kinds follow the Figure 8/9 pipeline:

    partition → compress → transfer → conv_compute → result_transfer
    → merge → central_layers

Instrumentation is zero-cost when disabled: the default sink is
:class:`NullRecorder`, whose methods are no-ops, and hot paths guard any
extra measurement behind ``recorder.enabled``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Protocol, runtime_checkable

from .metrics import MetricsRegistry

__all__ = [
    "STAGES",
    "STAGE_REQUEST",
    "STAGE_QUEUE_WAIT",
    "STAGE_PARTITION",
    "STAGE_COMPRESS",
    "STAGE_TRANSFER",
    "STAGE_CONV_COMPUTE",
    "STAGE_RESULT_TRANSFER",
    "STAGE_MERGE",
    "STAGE_CENTRAL",
    "Recorder",
    "NullRecorder",
    "LabeledRecorder",
    "TelemetryRecorder",
]

# Request-envelope spans (DESIGN.md §5h): ``request`` is the per-image
# root span covering admission → final output; ``queue_wait`` covers
# admission → dispatch.  Neither is a pipeline *processing* stage, so they
# are deliberately NOT part of :data:`STAGES` (report row order, RL004's
# closed span schema for processing stages).
STAGE_REQUEST = "request"
STAGE_QUEUE_WAIT = "queue_wait"

STAGE_PARTITION = "partition"
STAGE_COMPRESS = "compress"
STAGE_TRANSFER = "transfer"
STAGE_CONV_COMPUTE = "conv_compute"
STAGE_RESULT_TRANSFER = "result_transfer"
STAGE_MERGE = "merge"
STAGE_CENTRAL = "central_layers"

#: Pipeline stages in execution order (also the report's row order).
STAGES = (
    STAGE_PARTITION,
    STAGE_COMPRESS,
    STAGE_TRANSFER,
    STAGE_CONV_COMPUTE,
    STAGE_RESULT_TRANSFER,
    STAGE_MERGE,
    STAGE_CENTRAL,
)


@runtime_checkable
class Recorder(Protocol):
    """Structural type of a telemetry sink (what instrumented code calls).

    Both :class:`NullRecorder` and :class:`TelemetryRecorder` satisfy it;
    runtime components annotate their ``telemetry`` parameters with this
    protocol so either sink (or a test double) slots in.
    """

    enabled: bool

    def record(self, time: float, kind: str, **fields: Any) -> None: ...

    def span(self, kind: str, start: float, duration: float, node: str | None = None,
             image_id: int | None = None, **fields: Any) -> None: ...

    def count(self, name: str, value: float = 1.0, **labels: Any) -> None: ...

    def gauge(self, name: str, value: float, **labels: Any) -> None: ...

    def observe(self, name: str, value: float, **labels: Any) -> None: ...


class NullRecorder:
    """No-op telemetry sink — the default everywhere.

    Every method accepts the full recording interface and does nothing, so
    call sites can stay unconditional for low-frequency events; per-tile
    hot paths should additionally check :attr:`enabled` before doing any
    extra clock reads or bookkeeping.
    """

    enabled = False

    def record(self, time: float, kind: str, **fields: Any) -> None:
        pass

    def span(self, kind: str, start: float, duration: float, node: str | None = None,
             image_id: int | None = None, **fields: Any) -> None:
        pass

    def count(self, name: str, value: float = 1.0, **labels: Any) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, **labels: Any) -> None:
        pass

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


class LabeledRecorder:
    """Recorder decorator that stamps fixed labels onto everything it relays.

    The sharding layer gives every cluster a ``LabeledRecorder(shared,
    cluster="shard0")`` view of one shared sink, so metric series, events,
    and spans from different shards stay distinguishable without any change
    to the emission sites.  When a ``cluster`` label is present, ``node``
    values (span tracks and ``node=`` metric labels) are additionally
    prefixed ``<cluster>/<node>`` — the Chrome-trace tracks, per-node
    utilization, and ``repro.telemetry.top`` then attribute work to shards
    for free.

    Fixed labels win over same-named fields supplied at the call site, so a
    wrapped component cannot accidentally escape its shard attribution.
    Unknown attributes (``bind_decisions``, ``events``, ``metrics``, the
    ``write_*`` exporters) are delegated to the wrapped sink.
    """

    __slots__ = ("_inner", "_labels", "_prefix", "enabled")

    def __init__(self, inner: Recorder, **labels: Any) -> None:
        self._inner = inner
        self._labels = labels
        cluster = labels.get("cluster")
        self._prefix = f"{cluster}/" if cluster is not None else ""
        self.enabled = bool(inner.enabled)

    @property
    def inner(self) -> Recorder:
        """The wrapped sink (shared across every labeled view)."""
        return self._inner

    def _node(self, node: str | None) -> str | None:
        if node is None or not self._prefix:
            return node
        return self._prefix + node

    def record(self, time: float, kind: str, **fields: Any) -> None:
        if "node" in fields:
            fields["node"] = self._node(fields["node"])
        self._inner.record(time, kind, **{**fields, **self._labels})

    def span(self, kind: str, start: float, duration: float, node: str | None = None,
             image_id: int | None = None, **fields: Any) -> None:
        self._inner.span(kind, start, duration, node=self._node(node),
                         image_id=image_id, **{**fields, **self._labels})

    def count(self, name: str, value: float = 1.0, **labels: Any) -> None:
        if "node" in labels:
            labels["node"] = self._node(labels["node"])
        self._inner.count(name, value, **{**labels, **self._labels})

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        if "node" in labels:
            labels["node"] = self._node(labels["node"])
        self._inner.gauge(name, value, **{**labels, **self._labels})

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if "node" in labels:
            labels["node"] = self._node(labels["node"])
        self._inner.observe(name, value, **{**labels, **self._labels})

    def __getattr__(self, name: str) -> Any:
        # Duck-typed extras (bind_decisions, of_kind, events, exporters)
        # belong to the shared sink; __slots__ routes everything else here.
        return getattr(self._inner, name)


class TelemetryRecorder:
    """In-memory telemetry sink: chronological events + a metrics registry.

    ``record(time, kind, **fields)`` appends a generic event, ``span``
    appends a duration-carrying stage event *and* feeds the
    ``adcnn_stage_seconds`` histogram so per-stage breakdowns come for
    free.  Export via :mod:`repro.telemetry.export` or the convenience
    ``write_*`` methods.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------- recording
    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append an instant event (no duration)."""
        self.events.append({"time": time, "kind": kind, **fields})

    def span(self, kind: str, start: float, duration: float, node: str | None = None,
             image_id: int | None = None, **fields: Any) -> None:
        """Append a stage span and observe its duration histogram."""
        ev: dict[str, Any] = {"time": start, "kind": kind, "duration": duration}
        if node is not None:
            ev["node"] = node
        if image_id is not None:
            ev["image_id"] = image_id
        if fields:
            ev.update(fields)
        self.events.append(ev)
        self.metrics.histogram("adcnn_stage_seconds", stage=kind).observe(duration)

    def count(self, name: str, value: float = 1.0, **labels: Any) -> None:
        self.metrics.counter(name, **labels).inc(value)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.histogram(name, **labels).observe(value)

    # ----------------------------------------------------------- inspection
    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        return [e for e in self.events if e["kind"] == kind]

    def spans(self, kind: str | None = None) -> list[dict[str, Any]]:
        """Events that carry a duration (optionally one stage only)."""
        return [
            e for e in self.events
            if "duration" in e and (kind is None or e["kind"] == kind)
        ]

    def clear(self) -> None:
        self.events.clear()
        self.metrics = MetricsRegistry()

    def __len__(self) -> int:
        return len(self.events)

    # -------------------------------------------------------------- exports
    def chrome_trace(self) -> dict[str, Any]:
        from .export import to_chrome_trace

        return to_chrome_trace(self.events)

    def prometheus(self) -> str:
        from .export import prometheus_text

        return prometheus_text(self.metrics)

    def write_chrome_trace(self, path: str | Path) -> None:
        from .export import write_chrome_trace

        write_chrome_trace(self.events, path)

    def write_prometheus(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write(self.prometheus())

    def write_jsonl(self, path: str | Path) -> None:
        from .export import write_jsonl

        write_jsonl(self.events, path, metrics=self.metrics)
