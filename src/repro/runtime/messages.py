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

__all__ = ["BatchTask", "BatchResult", "Shutdown", "LOCAL_WORKER"]

#: Sentinel worker id for tiles the Central node computed itself (graceful
#: degradation when no Conv node can accept work).
LOCAL_WORKER = -1


@dataclass(frozen=True, slots=True)
class BatchTask:
    """The input tiles of one image dispatched to one Conv node.

    ``block`` is the batch's tiles stacked ``(k·N, C, h, w)`` in
    ``tile_ids`` order, pickled into the message's frame
    (:mod:`repro.runtime.transport`).

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
    block: np.ndarray
    probe: bool = False
    trace: TraceContext | None = None

    def __post_init__(self) -> None:
        if self.image_id < 0 or not self.tile_ids or min(self.tile_ids) < 0:
            raise ValueError("a batch needs a non-negative image id and tile ids")


@dataclass(frozen=True, slots=True)
class BatchResult:
    """A Conv node's intermediate results for one :class:`BatchTask`.

    ``payload`` is the batch's result as **one** buffer, and the batch is
    the codec stream: with the §4 pipeline on, the stacked output
    ``(k·N, C', h', w')`` encoded as one packed ``uint8`` stream (wire
    format v1, whose header records that shape; zero runs continue across
    tile boundaries); with it off, the raw stacked output itself.  Tile
    ``tile_ids[i]`` is rows ``[i·N, (i+1)·N)`` of the decoded block.  The
    Central node parses a ``uint8`` payload as a packed stream before it
    accepts any tile.

    Timing is measured worker-side on ``time.perf_counter()``
    (CLOCK_MONOTONIC — comparable across forked processes on Linux, so the
    Central node can place worker spans on a shared timeline): ``t_start``
    is the dequeue stamp, ``forward_seconds`` the one stacked forward
    (emulated delay included) and ``compress_seconds`` the one encode.  They
    are the batch's own timings, and the Central node traces them as one
    span per stage carrying ``tiles=k`` — no tile has a timing of its own.
    """

    image_id: int
    tile_ids: tuple[int, ...]
    payload: np.ndarray
    worker: int
    t_start: float = 0.0
    forward_seconds: float = 0.0
    compress_seconds: float = 0.0
    #: Echo of the dispatching task's trace context (``None`` when tracing is off).
    trace: TraceContext | None = None


@dataclass(frozen=True, slots=True)
class Shutdown:
    """Sentinel telling a Conv-node worker to exit."""


#: The data-path messages: the only ones whose fields may hold an ndarray.
#: Lint rule RL002 reads this tuple and the dataclasses above from source.
DATA_MESSAGES = (BatchTask, BatchResult)
