"""Live health introspection: streaming quantiles + status snapshots.

Always-on serving needs "how are we doing *right now*?" answers without
retaining per-request samples: :class:`P2Quantile` implements the Jain &
Chlamtac P² algorithm (five markers, O(1) memory and update) and
:class:`StreamingQuantiles` bundles the p50/p95/p99 the serving SLO story
cares about.  :class:`ServingStatus` / :class:`ClusterHealth` are the
frozen snapshot types returned by :meth:`ServingFrontEnd.status` and
:meth:`ProcessCluster.health`; ``python -m repro.telemetry.top`` renders
them as a terminal dashboard.

The per-node health score derives from the controller's Algorithm-2 EWMA
rate stats: a node scores ``rate / max(rates)`` while alive (the fastest
node defines 1.0, stragglers fade toward 0) and ``0.0`` while dead — the
same signal the allocator itself acts on, so "unhealthy" here always
means "the scheduler is already routing around it".
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

__all__ = [
    "P2Quantile",
    "StreamingQuantiles",
    "QuantileSnapshot",
    "NodeHealth",
    "ClusterHealth",
    "ShardHealth",
    "RouterHealth",
    "ServingStatus",
    "node_health_scores",
]


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm (Jain & Chlamtac,
    CACM 1985): five markers whose heights approximate the q-quantile
    without storing observations.

    Exact for the first five samples (sorted buffer); after that each
    :meth:`observe` adjusts marker positions with the piecewise-parabolic
    (P²) prediction formula, falling back to linear interpolation when the
    parabolic step would break marker monotonicity.
    """

    __slots__ = ("q", "_count", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._count = 0
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    @property
    def count(self) -> int:
        return self._count

    @property
    def value(self) -> float:
        """Current estimate (NaN before any observation)."""
        if self._count == 0:
            return math.nan
        if self._count <= 5:
            ordered = sorted(self._heights)
            # Nearest-rank on the tiny startup buffer.
            idx = min(len(ordered) - 1, max(0, round(self.q * (len(ordered) - 1))))
            return ordered[idx]
        return self._heights[2]

    def observe(self, x: float) -> None:
        self._count += 1
        if self._count <= 5:
            self._heights.append(float(x))
            if self._count == 5:
                self._heights.sort()
            return
        h, pos = self._heights, self._positions
        if x < h[0]:
            h[0] = float(x)
            k = 0
        elif x >= h[4]:
            h[4] = float(x)
            k = 3
        else:
            k = next(i for i in range(4) if h[i] <= x < h[i + 1])
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (d <= -1.0 and pos[i - 1] - pos[i] < -1.0):
                sign = 1.0 if d > 0 else -1.0
                candidate = self._parabolic(i, sign)
                if not h[i - 1] < candidate < h[i + 1]:
                    candidate = self._linear(i, sign)
                h[i] = candidate
                pos[i] += sign

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])


@dataclass(frozen=True, slots=True)
class QuantileSnapshot:
    """Point-in-time read of one latency stream (seconds)."""

    count: int
    p50: float
    p95: float
    p99: float


class StreamingQuantiles:
    """p50/p95/p99 bundle over one stream, O(1) memory via three P² cells."""

    __slots__ = ("_p50", "_p95", "_p99", "_count")

    def __init__(self) -> None:
        self._p50 = P2Quantile(0.50)
        self._p95 = P2Quantile(0.95)
        self._p99 = P2Quantile(0.99)
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def observe(self, x: float) -> None:
        self._count += 1
        self._p50.observe(x)
        self._p95.observe(x)
        self._p99.observe(x)

    def snapshot(self) -> QuantileSnapshot:
        return QuantileSnapshot(
            count=self._count,
            p50=self._p50.value,
            p95=self._p95.value,
            p99=self._p99.value,
        )


# ------------------------------------------------------------------ snapshots
@dataclass(frozen=True, slots=True)
class NodeHealth:
    """One Conv node as the controller currently sees it."""

    node: str
    alive: bool
    rate: float
    restarts: int
    score: float


@dataclass(frozen=True, slots=True)
class ClusterHealth:
    """Snapshot returned by :meth:`ProcessCluster.health`."""

    nodes: tuple[NodeHealth, ...]
    in_flight: int
    window: int
    transport: str
    images_dispatched: int
    #: BLAS threads per GEMM in the driver (Central) process, as
    #: ``repro.nn.blas`` reads it back; 0 = unknown (no OpenBLAS found).
    blas_threads: int = 0

    @property
    def healthy(self) -> bool:
        return all(n.alive for n in self.nodes)


@dataclass(frozen=True, slots=True)
class ShardHealth:
    """One cluster as the :class:`~repro.sharding.ClusterRouter` sees it.

    ``state`` is the router's supervision state machine position: ``"up"``,
    ``"down"``, ``"restarting"``, or ``"probation"``.  ``cluster`` carries
    the shard's own :class:`ClusterHealth` while it is reachable and is
    ``None`` for a shard that is down or awaiting restart.
    """

    name: str
    state: str
    in_flight: int
    restarts: int
    consecutive_failures: int
    cluster: ClusterHealth | None

    @property
    def routable(self) -> bool:
        return self.state in ("up", "probation")


@dataclass(frozen=True, slots=True)
class RouterHealth:
    """Aggregate snapshot returned by :meth:`ClusterRouter.health`."""

    shards: tuple[ShardHealth, ...]
    policy: str
    in_flight: int
    images_dispatched: int
    rerouted: int
    failed: int

    @property
    def healthy(self) -> bool:
        """Every shard up and internally healthy."""
        return all(
            s.state == "up" and s.cluster is not None and s.cluster.healthy
            for s in self.shards
        )

    @property
    def routable_shards(self) -> int:
        return sum(1 for s in self.shards if s.routable)


@dataclass(frozen=True, slots=True)
class ServingStatus:
    """Snapshot returned by :meth:`ServingFrontEnd.status`."""

    admitting: bool
    queue_depth: int
    queue_capacity: int
    in_flight: int
    submitted: int
    completed: int
    shed: int
    slo_misses: int
    latency: QuantileSnapshot
    queue_wait: QuantileSnapshot
    #: Admitted images that terminated with a typed infrastructure failure
    #: (:class:`~repro.sharding.ClusterFailed`) rather than a result.
    failed: int = 0
    clients: tuple[str, ...] = field(default=())


def node_health_scores(
    names: Sequence[str],
    alive: Sequence[bool],
    rates: Sequence[float],
    restarts: Sequence[int],
) -> tuple[NodeHealth, ...]:
    """Score each node against the current fastest node.

    ``score = rate / max(alive rates)`` for living nodes (clamped to
    [0, 1]), ``0.0`` for dead ones; an all-dead or rate-less cluster
    scores living nodes 1.0 so the dashboard degrades gracefully.
    """
    living = [float(r) for r, a in zip(rates, alive) if a]
    top = max(living) if living else 0.0
    out = []
    for name, is_alive, rate, restart_count in zip(names, alive, rates, restarts):
        if not is_alive:
            score = 0.0
        elif top <= 0.0:
            score = 1.0
        else:
            score = min(1.0, max(0.0, float(rate) / top))
        out.append(
            NodeHealth(
                node=str(name),
                alive=bool(is_alive),
                rate=float(rate),
                restarts=int(restart_count),
                score=score,
            )
        )
    return tuple(out)
