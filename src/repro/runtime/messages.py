"""Wire messages between the Central node and Conv nodes (Figure 8).

The unit that crosses the process boundary is the controller's *batch*: one
:class:`BatchTask` per ``SendBatch``/``Redispatch`` command (the tiles of one
image handed to one Conv node) and one :class:`BatchResult` back.  Both name
their tiles by ``(image_id, tile_ids)`` so the Central node can route every
result to the right image slot regardless of arrival order.  The batch is
also what the Central node accepts, credits and traces: one
``ResultReceived(count=k)`` and one set of stage spans per result, never a
per-tile split of it.

Fault tolerance adds a re-queue protocol on top: when the Central node
detects a dead Conv node it re-queues every tile the node owned but never
answered onto surviving nodes, reconstructed from the Central node's own
assignment map; the undelivered :class:`BatchTask` frames die with the dead
node's pipes, and a restarted process gets fresh ones, so it never replays
stale work.  ``probe`` batches are ordinary tasks flagged so a recovered
node can be given one unit of work to re-earn scheduling share.

These are the *transport* messages (what crosses a worker's pipes, one
pickled frame each; :mod:`repro.runtime.transport`).  The
*decision* protocol — which batches to send, when the deadline fires, what
gets re-dispatched — is the event/command vocabulary of
:mod:`repro.runtime.controller`; drivers translate controller commands into
these wire messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.trace import TraceContext

from .shm_arena import ShmRef

__all__ = ["BatchTask", "BatchResult", "Shutdown", "ArenaGrant", "LOCAL_WORKER"]

#: Sentinel worker id for tiles the Central node computed itself (graceful
#: degradation when no Conv node can accept work).
LOCAL_WORKER = -1


@dataclass(frozen=True, slots=True)
class BatchTask:
    """The input tiles of one image dispatched to one Conv node.

    The data travels one of two ways, chosen per message by
    :mod:`repro.runtime.transport`: by reference (``slot`` describes the
    shared-memory slot holding the image's whole tile-major stack
    ``(tiles, N, C, h, w)``, so the frame carries only this small descriptor
    and the worker computes from a zero-copy view of rows ``tile_ids``) or
    inline (``block`` is the batch's tiles stacked ``(k·N, C, h, w)``,
    pickled with the message) when no slot is available.

    ``probe`` marks a recovery probe: a single tile handed to a node whose
    ``s_k`` statistic has decayed to zero so it can demonstrate it is
    healthy again.  Workers treat probes exactly like normal tasks.

    ``trace`` is the request's frozen :class:`TraceContext` (DESIGN.md
    §5h): minted once at admission, carried across the IPC boundary here,
    and echoed back verbatim on the :class:`BatchResult` so every worker
    span joins the request's span tree.  ``None`` when tracing is off —
    the field costs nothing on the NullRecorder path.
    """

    image_id: int
    tile_ids: tuple[int, ...]
    block: np.ndarray | None = None
    probe: bool = False
    slot: ShmRef | None = None
    trace: TraceContext | None = None

    def __post_init__(self) -> None:
        if self.image_id < 0 or not self.tile_ids or min(self.tile_ids) < 0:
            raise ValueError("a batch needs a non-negative image id and tile ids")
        if (self.block is None) == (self.slot is None):
            raise ValueError("a batch needs either an inline block or a slot descriptor")


@dataclass(frozen=True, slots=True)
class BatchResult:
    """A Conv node's intermediate results for one :class:`BatchTask`.

    ``payload`` is the batch's result as **one** buffer, and the batch is
    the codec stream: with the §4 pipeline on, the stacked output
    ``(k·N, C', h', w')`` encoded as one packed ``uint8`` stream (wire
    format v1, whose header records that shape; zero runs continue across
    tile boundaries); with it off, the raw stacked output itself.  Tile
    ``tile_ids[i]`` is rows ``[i·N, (i+1)·N)`` of the decoded block.  In the
    frame the buffer may be replaced by the :class:`ShmRef` of the one
    result-ring slot holding it, which the Central node materializes back
    before accepting any tile.  ``None`` only on a ``dropped`` marker.

    Timing is measured worker-side on ``time.perf_counter()``
    (CLOCK_MONOTONIC — comparable across forked processes on Linux, so the
    Central node can place worker spans on a shared timeline): ``t_start``
    is the dequeue stamp, ``forward_seconds`` the one stacked forward (slot
    attach and emulated delay included) and ``compress_seconds`` the one
    encode plus the one slot write.  They are the batch's own timings, and
    the Central node traces them as one span per stage carrying ``tiles=k``
    — no tile has a timing of its own.

    ``ring_fallback`` marks a batch whose bytes *could* have used the
    worker's result ring but shipped inline because every slot was still
    held by the Central node (back-pressure); the collect loop counts these
    so benchmarks can see ring exhaustion under load.

    ``dropped`` marks a *non*-result: the worker could not attach the
    batch's shm slot because it was unlinked under it (shutdown race), so
    nothing was computed and ``payload`` is ``None``.  The collect loop
    counts one ``adcnn_worker_dropped_tasks_total`` per tile instead of
    treating them as answers — the tiles stay unanswered and follow the
    normal re-dispatch/zero-fill path.
    """

    image_id: int
    tile_ids: tuple[int, ...]
    payload: np.ndarray | ShmRef | None
    worker: int
    t_start: float = 0.0
    forward_seconds: float = 0.0
    compress_seconds: float = 0.0
    ring_fallback: bool = False
    dropped: bool = False
    #: Echo of the dispatching task's trace context (``None`` when tracing is off).
    trace: TraceContext | None = None


@dataclass(frozen=True, slots=True)
class ArenaGrant:
    """Control message granting a worker its result-slot ring.

    Sent through the task pipe before any :class:`BatchTask` that expects
    shared-memory results: ``slot_names`` are Central-created segments the
    worker cycles through (``cursor % len(slot_names)``), gated by a
    fork-inherited semaphore of the same size.  A respawned worker gets a
    fresh grant (fresh ring + fresh semaphore), mirroring the fresh-pipe
    respawn rule.
    """

    slot_names: tuple[str, ...]
    slot_nbytes: int


@dataclass(frozen=True, slots=True)
class Shutdown:
    """Sentinel telling a Conv-node worker to exit."""
