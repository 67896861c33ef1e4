"""Wire messages between the Central node and Conv nodes (Figure 8).

Every tile carries an ``(image_id, tile_id)`` pair so the Central node can
route results to the right image slot regardless of arrival order, and
results echo the pair back plus the worker that produced them.

Fault tolerance adds a drain/re-queue protocol on top: when the Central
node detects a dead Conv node it *drains* the undelivered :class:`TileTask`
messages still sitting in that node's task queue (so a restarted process
never replays stale work) and re-queues every tile the node owned but never
answered onto surviving nodes, reconstructed from the Central node's own
assignment map.  ``probe`` tiles are ordinary tasks flagged so a recovered
node can be given one unit of work to re-earn scheduling share.

These are the *transport* messages (what crosses an mp queue).  The
*decision* protocol — which batches to send, when the deadline fires, what
gets re-dispatched — is the event/command vocabulary of
:mod:`repro.runtime.controller`; drivers translate controller commands into
these wire messages.
"""

from __future__ import annotations

import queue as queue_mod
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from multiprocessing.queues import Queue

    from repro.compression import PackedTensor

import numpy as np

from repro.telemetry.trace import TraceContext

from .shm_arena import ShmRef

__all__ = ["TileTask", "TileResult", "Shutdown", "ArenaGrant", "LOCAL_WORKER", "drain_queue"]

#: Sentinel worker id for tiles the Central node computed itself (graceful
#: degradation when no Conv node can accept work).
LOCAL_WORKER = -1


@dataclass(frozen=True, slots=True)
class TileTask:
    """An input tile dispatched to a Conv node.

    The tile data travels one of two ways, chosen per message by
    :mod:`repro.runtime.transport`: by reference (``tile is None`` and
    ``slot`` names a shared-memory slot the Central node wrote, so the queue
    carries only this small descriptor and the worker computes from a
    zero-copy view of the slot) or inline (``tile`` is the ndarray, pickled
    with the message) when no slot is available.

    ``probe`` marks a recovery-probe tile: a single tile handed to a node
    whose ``s_k`` statistic has decayed to zero so it can demonstrate it is
    healthy again.  Workers treat probes exactly like normal tasks.

    ``trace`` is the request's frozen :class:`TraceContext` (DESIGN.md
    §5h): minted once at admission, carried across the IPC boundary here,
    and echoed back verbatim on the :class:`TileResult` so every worker
    span joins the request's span tree.  ``None`` when tracing is off —
    the field costs nothing on the NullRecorder path.
    """

    image_id: int
    tile_id: int
    tile: np.ndarray | None = None
    probe: bool = False
    slot: ShmRef | None = None
    trace: TraceContext | None = None

    def __post_init__(self) -> None:
        if self.image_id < 0 or self.tile_id < 0:
            raise ValueError("ids must be non-negative")
        if self.tile is None and self.slot is None:
            raise ValueError("a task needs either an inline tile or a slot descriptor")


def drain_queue(q: Queue[Any], retries: int = 2, retry_delay: float = 0.01) -> list[TileTask]:
    """Drain undelivered messages from a dead worker's task queue.

    Returns the :class:`TileTask` messages recovered (other message types
    are discarded).  A couple of short retries absorb the multiprocessing
    feeder-thread race where a just-put item is not yet readable.  The
    authoritative re-dispatch set is the Central node's assignment map —
    draining exists so a *restarted* worker on the same queue never sees
    stale tasks.
    """
    drained: list[TileTask] = []
    misses = 0
    while misses <= retries:
        try:
            msg = q.get_nowait()
        except queue_mod.Empty:
            misses += 1
            if misses <= retries:
                time.sleep(retry_delay)
            continue
        misses = 0
        if isinstance(msg, TileTask):
            drained.append(msg)
    return drained


@dataclass(frozen=True, slots=True)
class TileResult:
    """A Conv node's intermediate result for one tile.

    ``payload`` is a :class:`repro.compression.PackedTensor` when the §4
    pipeline is enabled, otherwise a raw ndarray; on the queue either may be
    replaced by the :class:`ShmRef` of the result-ring slot holding its
    bytes, which the Central node materializes back before accepting it.
    ``None`` only on a ``dropped`` marker.

    Timing fields are measured worker-side and survive into the run result
    (``InferenceOutcome``) and telemetry spans instead of being dropped:
    ``compute_seconds`` covers dequeue → result built (delay + forward +
    compress, the quantity Algorithm 2's rate credits use),
    ``compress_seconds`` isolates the §4 pipeline, and
    ``t_start``/``t_end`` are ``time.perf_counter()`` stamps
    (CLOCK_MONOTONIC — comparable across forked processes on Linux, so the
    Central node can place worker spans on a shared timeline).  All default
    to 0 for results synthesized centrally (zero-fill / local fallback).

    ``ring_fallback`` marks a result whose bytes *could* have used the
    worker's shared-memory slot ring but shipped inline because every slot
    was still held by the Central node (back-pressure); the collect loop
    counts these so benchmarks can see ring exhaustion under load.

    ``dropped`` marks a *non*-result: the worker could not attach the
    task's shm slot because it was unlinked under it (shutdown race), so no
    tile was computed and ``payload`` is ``None``.  The collect loop counts
    these (``adcnn_worker_dropped_tasks_total``) instead of treating them
    as answers — the tile stays unanswered and follows the normal
    re-dispatch/zero-fill path.
    """

    image_id: int
    tile_id: int
    payload: PackedTensor | np.ndarray | ShmRef | None
    worker: int
    compute_seconds: float = 0.0
    compress_seconds: float = 0.0
    t_start: float = 0.0
    t_end: float = 0.0
    ring_fallback: bool = False
    dropped: bool = False
    #: Echo of the dispatching task's trace context (``None`` for results
    #: synthesized centrally or when tracing is off).
    trace: TraceContext | None = None


@dataclass(frozen=True, slots=True)
class ArenaGrant:
    """Control message granting a worker its result-slot ring.

    Sent through the task queue before any :class:`TileTask` that expects
    shared-memory results: ``slot_names`` are Central-created segments the
    worker cycles through (``cursor % len(slot_names)``), gated by a
    fork-inherited semaphore of the same size.  A respawned worker gets a
    fresh grant (fresh ring + fresh semaphore), mirroring the fresh-queue
    respawn rule.
    """

    slot_names: tuple[str, ...]
    slot_nbytes: int


@dataclass(frozen=True, slots=True)
class Shutdown:
    """Sentinel telling a Conv-node worker to exit."""
