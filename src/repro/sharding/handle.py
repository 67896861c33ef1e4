"""The :class:`ClusterHandle` seam between drivers and cluster backends.

Everything above the single-cluster runtime (the serving front-end, the
:class:`~repro.sharding.router.ClusterRouter`) drives clusters exclusively
through this protocol: start/stop lifecycle, windowed ``dispatch``/``pump``
streaming, and health introspection.  No driver holds a hardcoded "the
cluster" reference — a handle may wrap one :class:`ProcessCluster`, and the
router itself *is* a handle over N of them, so tiers compose.

Construction is funneled through :func:`make_cluster_handle`: it is the one
sanctioned ``ProcessCluster`` construction site inside ``repro.serving`` /
``repro.sharding`` (lint rule RL016), which is what lets the supervisor
rebuild a cluster from scratch after fail-stop — the handle owns the
*recipe* (a zero-argument factory), not just the instance.  Telemetry from
every incarnation is wrapped in a
:class:`~repro.telemetry.LabeledRecorder` carrying the shard's name, so
metrics, spans, and node tracks stay attributable after restarts.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.runtime.process_backend import (
    InferenceOutcome,
    ProcessCluster,
    ProcessClusterConfig,
    StreamEngine,
)
from repro.telemetry import (
    ClusterHealth,
    LabeledRecorder,
    NullRecorder,
    Recorder,
    TraceContext,
)

if TYPE_CHECKING:
    from repro.compression import CompressionPipeline
    from repro.models.blocks import PartitionableCNN
    from repro.partition.geometry import SegmentGrid, TileGrid
    from repro.telemetry import RouterHealth

__all__ = [
    "ClusterDown",
    "ClusterFailed",
    "ShardFailure",
    "ClusterHandle",
    "ProcessClusterHandle",
    "make_cluster_handle",
]


class ClusterDown(RuntimeError):
    """A handle operation hit a cluster that is dead or not started.

    Internal to the driver tier: the router catches it during dispatch/pump
    and turns it into supervision (mark-down, re-route, restart).  Client
    code sees :class:`ClusterFailed` instead.
    """

    def __init__(self, cluster: str, reason: str = "cluster is down") -> None:
        super().__init__(f"{cluster}: {reason}")
        self.cluster = cluster
        self.reason = reason


class ClusterFailed(RuntimeError):
    """Typed client-facing failure: an image's cluster died and no sibling
    could take the work over.

    The serving front-end resolves the submission's future with this
    exception — callers can distinguish infrastructure failure (retryable
    on a healthy deployment) from load shedding
    (:class:`~repro.serving.Overloaded`) and bad input
    (:class:`ValueError`).
    """

    def __init__(self, cluster: str, reason: str, reroutes: int) -> None:
        super().__init__(
            f"image failed on cluster {cluster!r} ({reason}) after {reroutes} re-route(s)"
        )
        self.cluster = cluster
        self.reason = reason
        self.reroutes = reroutes


@dataclass(frozen=True, slots=True)
class ShardFailure:
    """Terminal non-result for one image, yielded from ``pump``.

    Takes the place of an :class:`InferenceOutcome` in the ``(image_id,
    outcome)`` pairs when every re-route avenue is exhausted, so drivers
    resolve every admitted image exactly once — result or failure, never
    silence.
    """

    cluster: str
    reason: str
    reroutes: int

    def to_exception(self) -> ClusterFailed:
        return ClusterFailed(self.cluster, self.reason, self.reroutes)


@runtime_checkable
class ClusterHandle(Protocol):
    """Driver-facing face of one cluster (or a tier of them).

    Structural: :class:`ProcessClusterHandle` and
    :class:`~repro.sharding.router.ClusterRouter` both satisfy it, so the
    serving front-end's driver loop is identical for a single cluster and a
    sharded topology.  ``pump`` values are :class:`InferenceOutcome` on
    success and :class:`ShardFailure` when supervision gave up on an image.
    """

    name: str

    def start(self) -> "ClusterHandle": ...

    def stop(self) -> None: ...

    def alive(self) -> bool: ...

    def validate_image(self, image: np.ndarray) -> np.ndarray: ...

    def mint_trace(self, start: float) -> TraceContext: ...

    @property
    def telemetry(self) -> Recorder: ...

    @property
    def can_dispatch(self) -> bool: ...

    @property
    def in_flight(self) -> int: ...

    def dispatch(self, image: np.ndarray, trace: TraceContext | None = None) -> int: ...

    def pump(
        self, block: bool = True
    ) -> list[tuple[int, "InferenceOutcome | ShardFailure"]]: ...

    def health(self) -> "ClusterHealth | RouterHealth": ...


class ProcessClusterHandle:
    """One :class:`ProcessCluster` behind the :class:`ClusterHandle` seam.

    Built from a zero-argument *factory* rather than an instance, so the
    router's supervision can tear a failed cluster down and build a fresh
    incarnation (:meth:`restart`) — the same recipe every time, fresh
    processes and pipes.
    """

    def __init__(
        self,
        factory: Callable[[], ProcessCluster],
        *,
        name: str = "cluster0",
        window: int = 2,
    ) -> None:
        if window < 1:
            raise ValueError("pipeline window must be >= 1")
        self.name = name
        self.window = window
        self._factory = factory
        self._cluster: ProcessCluster | None = None
        self._engine: StreamEngine | None = None
        self._started = False
        self._dead = False
        self._restarts = 0

    # -------------------------------------------------------------- lifecycle
    @property
    def cluster(self) -> ProcessCluster:
        """The current incarnation (built on first touch)."""
        if self._cluster is None:
            self._cluster = self._factory()
        return self._cluster

    @property
    def restarts(self) -> int:
        """How many fresh incarnations :meth:`restart` has built."""
        return self._restarts

    def start(self) -> "ProcessClusterHandle":
        if self._started:
            raise RuntimeError(f"{self.name}: handle already started")
        cluster = self.cluster
        cluster.start()
        try:
            self._engine = cluster.stream_engine(self.window)
        except BaseException:
            cluster.stop()
            raise
        self._started = True
        self._dead = False
        return self

    def stop(self) -> None:
        self._started = False
        self._engine = None
        if self._cluster is not None:
            self._cluster.stop()
            self._cluster = None  # next start() builds a fresh incarnation

    def restart(self) -> "ProcessClusterHandle":
        """Tear down the dead incarnation and build a fresh one."""
        if self._cluster is not None:
            try:
                self._cluster.stop()
            except Exception:
                pass  # the incarnation is already wreckage; the factory rebuilds
            self._cluster = None
        self._engine = None
        self._started = False
        self._restarts += 1
        return self.start()

    def kill(self) -> None:
        """Fail-stop the whole cluster (fault injection / tests).

        Terminates every worker *and* poisons the handle so subsequent
        ``dispatch``/``pump`` raise :class:`ClusterDown` — without the
        poison, the controller's central-local fallback would keep a
        worker-less cluster limping along and supervision above would never
        trigger.
        """
        self._dead = True
        cluster = self._cluster
        if cluster is None or not cluster._procs:
            return
        for wid in range(cluster.config.num_workers):
            try:
                cluster.kill_worker(wid)
            except Exception:
                pass  # racing with natural death; the poison flag is what matters

    def alive(self) -> bool:
        return self._started and not self._dead

    @property
    def terminal(self) -> bool:
        """True once the handle cannot serve again without outside help.

        A poisoned single-cluster handle has no supervisor to revive it
        (restart is the *router's* move); the serving front-end checks this
        to fail pending work typed instead of spinning forever.
        """
        return self._dead

    def __enter__(self) -> "ProcessClusterHandle":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -------------------------------------------------------------- streaming
    def _require_engine(self) -> StreamEngine:
        if self._dead:
            raise ClusterDown(self.name)
        if self._engine is None:
            raise ClusterDown(self.name, "cluster not started")
        return self._engine

    @property
    def can_dispatch(self) -> bool:
        return self.alive() and self._require_engine().can_dispatch

    @property
    def in_flight(self) -> int:
        if self._engine is None or self._dead:
            return 0
        return self._engine.in_flight

    def dispatch(self, image: np.ndarray, trace: TraceContext | None = None) -> int:
        return self._require_engine().dispatch(image, trace=trace)

    def pump(self, block: bool = True) -> list[tuple[int, "InferenceOutcome | ShardFailure"]]:
        return list(self._require_engine().pump(block))

    def wait_set(self) -> list[tuple[int, int]]:
        """``(fd, poll events)`` pairs for the router's cross-shard idle wait."""
        if not self.alive() or self._cluster is None:
            return []
        return self._cluster.wait_set()

    # ---------------------------------------------------------- introspection
    def validate_image(self, image: np.ndarray) -> np.ndarray:
        return self.cluster.validate_image(image)

    def mint_trace(self, start: float) -> TraceContext:
        return self.cluster.mint_trace(start)

    @property
    def telemetry(self) -> Recorder:
        return self.cluster.telemetry

    def health(self) -> ClusterHealth:
        return self.cluster.health()


def make_cluster_handle(
    model: "PartitionableCNN",
    grid: "TileGrid | SegmentGrid | str",
    *,
    pipeline: "CompressionPipeline | None" = None,
    config: ProcessClusterConfig | None = None,
    telemetry: Recorder | None = None,
    name: str = "cluster0",
    window: int = 2,
) -> ProcessClusterHandle:
    """The sanctioned factory for process-backend cluster handles (RL016).

    Captures the full cluster recipe in a closure so every (re)build is
    identical, and gives each incarnation a cluster-labeled view of the
    shared telemetry sink — one sink, N shards, disjoint series.
    """
    base: Recorder = NullRecorder() if telemetry is None else telemetry

    def build() -> ProcessCluster:
        tel: Recorder = LabeledRecorder(base, cluster=name) if base.enabled else base
        return ProcessCluster(  # repro-lint: disable=RL016
            model, grid, pipeline=pipeline, config=config, telemetry=tel
        )

    return ProcessClusterHandle(build, name=name, window=window)
