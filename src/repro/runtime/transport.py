"""The one Central↔Conv tile transport (DESIGN.md §5d).

The wire unit is the controller's batch (one :class:`BatchTask` out, one
:class:`BatchResult` back).  A batch's bytes cross the process boundary one
of two ways, chosen **per message** from what the code can observe — never
from a setting:

- through a shared-memory slot (:mod:`repro.runtime.shm_arena`), with only a
  small :class:`ShmRef` descriptor on the queue, when POSIX shared memory
  was available at ``start()``, a slot is free and the bytes fit it;
- inline, pickled with the queue message, otherwise.

A host without ``/dev/shm`` is simply the zero-slot case: no arena is ever
created and every stage call takes the inline branch the slot path needs
anyway for ring-full / oversize / arena-gone.  Nothing outside this module
knows which branch a message took: :class:`ProcessCluster` holds one
:class:`CentralEndpoint` (probed at ``start()``, closed at ``stop()``) and
each worker loop the :class:`WorkerEndpoint` it inherited through fork.
"""

from __future__ import annotations

from collections.abc import Sequence
from multiprocessing import shared_memory
from multiprocessing.context import ForkContext
from multiprocessing.synchronize import Semaphore
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from multiprocessing.queues import Queue

import numpy as np

from repro.compression import PackedStream, PackedTensor
from repro.telemetry.trace import TraceContext

from .messages import ArenaGrant, BatchResult, BatchTask
from .shm_arena import (
    ShmRef,
    SlotArena,
    attach_array,
    attach_slot,
    close_attachments,
    shm_available,
    write_array,
)

__all__ = ["CentralEndpoint", "WorkerEndpoint", "RESULT_RING_SLOTS"]

#: Result slots per worker (ring size == semaphore permits).  One slot holds
#: one batch, and at most ``window`` batches per worker are outstanding.
RESULT_RING_SLOTS = 4


class WorkerEndpoint:
    """Conv-node side: read a batch's input block, stage its results.

    Built by :meth:`CentralEndpoint.worker_endpoint` *before* fork so the
    ring semaphore is inherited (an ``mp.Semaphore`` cannot cross a queue);
    the ring itself arrives later as an :class:`ArenaGrant` message.
    """

    def __init__(self, ring_sem: Semaphore | None) -> None:
        self._sem = ring_sem
        self._grant: ArenaGrant | None = None
        self._cursor = 0
        self._attachments: dict[str, shared_memory.SharedMemory] = {}

    def accept(self, grant: ArenaGrant) -> None:
        """Adopt the result ring the Central node just created for us."""
        self._grant, self._cursor = grant, 0

    def read(self, task: BatchTask) -> np.ndarray | None:
        """The batch's stacked ``(k·N, C, h, w)`` input: inline, or a
        zero-copy view of its rows in the image's slot (a re-dispatched,
        non-contiguous subset is gathered instead).

        ``None`` when the slot was unlinked under us (shutdown race) — the
        caller answers with a ``dropped`` marker instead of a result.
        """
        if task.slot is None:
            return task.block
        try:
            stack = attach_array(self._attachments, task.slot)
        except FileNotFoundError:
            return None
        ids = task.tile_ids
        if ids == tuple(range(ids[0], ids[0] + len(ids))):
            rows = stack[ids[0] : ids[0] + len(ids)]
        else:
            rows = stack[list(ids)]
        return rows.reshape(-1, *stack.shape[2:])

    def stage_result(self, result: np.ndarray) -> tuple[np.ndarray | ShmRef, bool]:
        """Move a batch's one result buffer into one ring slot, if possible.

        ``result`` is the batch's packed codec stream (``uint8``, wire
        format v1) or its raw stacked output.  Returns
        ``(buffer_or_descriptor, ring_fallback)``.  Ships the buffer inline
        when no ring was granted, the ring is full, the bytes outgrow the
        slot, or the arena has vanished — correctness never depends on slot
        capacity.  The ring-full probe is **non-blocking**: a slow-draining
        Central node must never stall the worker (head-of-line blocking for
        every queued batch behind this one); that case alone is reported as
        ``ring_fallback`` so the collect loop can count ring exhaustion in
        telemetry.
        """
        data = np.ascontiguousarray(result)
        grant, sem = self._grant, self._sem
        if grant is None or sem is None or data.nbytes > grant.slot_nbytes:
            return data, False
        if not sem.acquire(block=False):
            return data, True  # central is slow to drain; ship inline
        name = grant.slot_names[self._cursor % len(grant.slot_names)]
        try:
            ref = write_array(attach_slot(self._attachments, name), data)
        except Exception:
            sem.release()
            return data, False
        self._cursor += 1
        return ref, False

    def close(self) -> None:
        close_attachments(self._attachments)


class CentralEndpoint:
    """Central-node side: stage task tiles, grant result rings, copy results out.

    **Task slots** live in one arena sized lazily off the first dispatched
    image: ``max(2, window)`` slots, each holding one image's whole
    tile-major stack.  An image keeps its slot from its first batch until it
    finalizes, keyed by ``image_id``, so every batch of the image — a fault
    re-dispatch included — ships only a descriptor of the same bytes, and a
    dead worker can never leak a task slot.

    **Result rings** are per worker, gated by a fork-inherited semaphore:
    the worker acquires before writing a batch into slot ``cursor % R``, and
    :meth:`materialize` releases after copying the bytes out — one permit
    per batch.  The result queue is FIFO and releases happen in arrival
    order, so slot ``k % R`` is always free when acquire ``k`` succeeds.
    """

    def __init__(self, ctx: ForkContext, num_workers: int) -> None:
        self._ctx = ctx
        self._shm = False
        self._task_arena: SlotArena | None = None
        #: image_id -> the slot holding the image's tile stack and its descriptor.
        self._staged: dict[int, tuple[shared_memory.SharedMemory, ShmRef]] = {}
        self._rings: list[SlotArena | None] = [None] * num_workers
        self._sems: list[Semaphore | None] = [None] * num_workers

    # -------------------------------------------------------------- lifecycle
    def probe(self) -> None:
        """Observe, once per cluster start, whether this host has shared memory."""
        self._shm = shm_available()

    def close(self) -> None:
        """Unlink every segment, exactly once — call after all workers are gone."""
        if self._task_arena is not None:
            self._task_arena.destroy()
            self._task_arena = None
        for ring in self._rings:
            if ring is not None:
                ring.destroy()
        self._staged.clear()
        self._rings = [None] * len(self._rings)
        self._sems = [None] * len(self._sems)

    @property
    def label(self) -> str:
        """``"shm"`` while slots are in use, ``"pickle"`` when every message goes
        inline (no shared memory, arena creation failed, or no :meth:`probe` yet)."""
        return "shm" if self._shm else "pickle"

    @property
    def task_slots_free(self) -> tuple[int, int]:
        """``(free, total)`` task slots, equal once every image finalized (test seam)."""
        arena = self._task_arena
        return (arena.available, arena.capacity) if arena is not None else (0, 0)

    # ---------------------------------------------------------------- workers
    def worker_endpoint(self, worker_id: int) -> WorkerEndpoint:
        """The endpoint for a worker about to be forked (spawn or respawn).

        Always a fresh semaphore and no ring: a dead incarnation may have
        died holding a permit, and its unread slot contents are
        unrecoverable anyway (its result queue is dropped with it).  The old
        ring is unlinked here; descriptors pointing at it lived only in the
        dropped queue, and :meth:`materialize` ignores any that surface.
        """
        ring = self._rings[worker_id]
        if ring is not None:
            ring.destroy()
            self._rings[worker_id] = None
        sem = self._ctx.Semaphore(RESULT_RING_SLOTS) if self._shm else None
        self._sems[worker_id] = sem
        return WorkerEndpoint(sem)

    def needs_ring(self, worker_id: int) -> bool:
        """True when the worker should be granted a result ring before its next task."""
        return self._shm and self._rings[worker_id] is None and self._sems[worker_id] is not None

    def grant_ring(self, worker_id: int, slot_nbytes: int, task_queue: Queue[Any]) -> None:
        """Create the worker's result ring and send its :class:`ArenaGrant`.

        With ``slot_nbytes`` covering the worst-case result, an inline
        fallback only happens under back-pressure, never for lack of room.
        """
        try:
            ring = SlotArena(RESULT_RING_SLOTS, slot_nbytes)
        except Exception:
            self._shm = False  # arena creation failed: inline for good
            return
        self._rings[worker_id] = ring
        task_queue.put(ArenaGrant(ring.names, ring.slot_nbytes))

    # ------------------------------------------------------------------ tasks
    def size_task_arena(self, tiles: list[np.ndarray], window: int) -> None:
        """Create the task-slot arena off the first dispatched image (no-op after)."""
        if not self._shm or self._task_arena is not None:
            return
        try:
            self._task_arena = SlotArena(max(2, window), len(tiles) * tiles[0].nbytes)
        except Exception:
            self._shm = False  # arena creation failed: inline for good

    def task(
        self,
        image_id: int,
        tile_ids: Sequence[int],
        tiles: list[np.ndarray],
        probe: bool = False,
        trace: TraceContext | None = None,
    ) -> BatchTask:
        """Build one batch message: the image's slot descriptor when it has
        (or can get) a slot, else the batch's tiles stacked inline."""
        ids = tuple(tile_ids)
        arena = self._task_arena
        if self._shm and arena is not None:
            staged = self._staged.get(image_id)
            if staged is None and len(tiles) * tiles[0].nbytes <= arena.slot_nbytes:
                slot = arena.acquire()
                if slot is not None:
                    staged = self._staged[image_id] = (slot, write_array(slot, np.stack(tiles)))
            if staged is not None:
                return BatchTask(image_id, ids, probe=probe, slot=staged[1], trace=trace)
        block = np.concatenate([tiles[t] for t in ids])
        return BatchTask(image_id, ids, block, probe=probe, trace=trace)

    def release_task(self, image_id: int) -> None:
        """Free the image's slot, if it holds one (the image is finalizing)."""
        staged = self._staged.pop(image_id, None)
        if staged is not None and self._task_arena is not None:
            self._task_arena.release(staged[0])

    # ---------------------------------------------------------------- results
    def materialize(self, res: BatchResult) -> PackedTensor | np.ndarray | None:
        """The batch's one payload, copied out of its ring slot (the permit
        returns right after the copy) or taken from the inline buffer: a
        ``uint8`` buffer is the batch's packed stream, parsed here, and
        anything else the raw stacked output.

        ``None`` when the descriptor points at a ring that no longer exists
        (a result from a replaced worker incarnation — its tiles were
        already re-dispatched).  Raises when the bytes do not parse as a
        packed stream; the permit is back by then.
        """
        data = res.payload
        if isinstance(data, ShmRef):
            wid = res.worker
            ring = self._rings[wid] if 0 <= wid < len(self._rings) else None
            slot = ring.get(data.name) if ring is not None else None
            if slot is None:
                return None  # stale incarnation: do NOT touch the current semaphore
            try:
                data = np.ndarray(data.shape, dtype=np.dtype(data.dtype), buffer=slot.buf).copy()
            finally:
                # Release only after the copy: the worker may reuse the slot
                # the moment the permit returns.
                sem = self._sems[wid]
                if sem is not None:
                    sem.release()
        assert data is not None, "only a dropped marker has no payload"
        if data.dtype != np.uint8:
            return data
        stream = PackedStream.from_buffer(data)
        return PackedTensor(stream, raw_bits=32 * stream.num_elements)
