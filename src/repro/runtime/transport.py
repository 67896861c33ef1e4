"""The one Central↔Conv tile transport (DESIGN.md §5d).

Tile bytes cross the process boundary one of two ways, chosen **per
message** from what the code can observe — never from a setting:

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

from dataclasses import replace
from multiprocessing import shared_memory
from multiprocessing.context import ForkContext
from multiprocessing.synchronize import Semaphore
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from multiprocessing.queues import Queue

import numpy as np

from repro.compression import PackedStream, PackedTensor
from repro.telemetry.trace import TraceContext

from .messages import ArenaGrant, TileResult, TileTask
from .shm_arena import (
    ShmRef,
    SlotArena,
    attach_array,
    attach_slot,
    close_attachments,
    shm_available,
    write_array,
    write_bytes,
)

__all__ = ["CentralEndpoint", "WorkerEndpoint", "RESULT_RING_SLOTS"]

#: Result slots per worker (ring size == semaphore permits).
RESULT_RING_SLOTS = 4


class WorkerEndpoint:
    """Conv-node side: read task tiles, stage results.

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

    def read(self, task: TileTask) -> np.ndarray | None:
        """The task's input tile: inline, or a zero-copy view of its slot.

        ``None`` when the slot was unlinked under us (shutdown race) — the
        caller answers with a ``dropped`` marker instead of a result.
        """
        if task.slot is None:
            return task.tile
        try:
            return attach_array(self._attachments, task.slot)
        except FileNotFoundError:
            return None

    def stage_result(
        self, payload: PackedTensor | np.ndarray
    ) -> tuple[PackedTensor | np.ndarray | ShmRef, bool]:
        """Move a result's bytes into the slot ring, if possible.

        Returns ``(payload_or_descriptor, ring_fallback)``.  Ships the
        payload inline when no ring was granted, the ring is full, the bytes
        outgrow the slot, or the arena has vanished — correctness never
        depends on slot capacity.  The ring-full probe is **non-blocking**:
        a slow-draining Central node must never stall the worker
        (head-of-line blocking for every queued tile behind this one); that
        case alone is reported as ``ring_fallback`` so the collect loop can
        count ring exhaustion in telemetry.
        """
        grant, sem = self._grant, self._sem
        if grant is None or sem is None:
            return payload, False
        if isinstance(payload, PackedTensor):
            data = payload.packed.buffer
        else:
            data = np.ascontiguousarray(payload)
        if data.nbytes > grant.slot_nbytes:
            return payload, False
        if not sem.acquire(block=False):
            return payload, True  # central is slow to drain; ship inline
        name = grant.slot_names[self._cursor % len(grant.slot_names)]
        try:
            shm = attach_slot(self._attachments, name)
            if isinstance(payload, PackedTensor):
                ref = write_bytes(shm, data, raw_bits=payload.raw_bits)
            else:
                ref = write_array(shm, data)
        except Exception:
            sem.release()
            return payload, False
        self._cursor += 1
        return ref, False

    def close(self) -> None:
        close_attachments(self._attachments)


class CentralEndpoint:
    """Central-node side: stage task tiles, grant result rings, copy results out.

    **Task slots** live in one arena sized lazily off the first dispatched
    image.  A tile keeps its slot across fault re-dispatch (the data is
    still valid, so a re-queued task re-ships only the descriptor) until its
    result arrives or its image finalizes, keyed by ``(image_id, tile_id)``;
    a dead worker therefore can never leak a task slot.

    **Result rings** are per worker, gated by a fork-inherited semaphore:
    the worker acquires before writing slot ``cursor % R``, and
    :meth:`materialize` releases after copying the bytes out.  The result
    queue is FIFO and releases happen in arrival order, so slot ``k % R`` is
    always free when acquire ``k`` succeeds.
    """

    def __init__(self, ctx: ForkContext, num_workers: int) -> None:
        self._ctx = ctx
        self._shm = False
        self._task_arena: SlotArena | None = None
        #: (image_id, tile_id) -> the slot a staged tile holds and its descriptor.
        self._staged: dict[tuple[int, int], tuple[shared_memory.SharedMemory, ShmRef]] = {}
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
            self._task_arena = SlotArena(
                max(2 * len(tiles), len(tiles) * window), max(t.nbytes for t in tiles)
            )
        except Exception:
            self._shm = False  # arena creation failed: inline for good

    def task(
        self,
        image_id: int,
        tile_id: int,
        tile: np.ndarray,
        probe: bool = False,
        trace: TraceContext | None = None,
    ) -> TileTask:
        """Build a task message: slot descriptor when possible, else inline."""
        arena = self._task_arena
        if self._shm and arena is not None:
            staged = self._staged.get((image_id, tile_id))
            if staged is None and tile.nbytes <= arena.slot_nbytes:
                slot = arena.acquire()
                if slot is not None:
                    staged = self._staged[image_id, tile_id] = (slot, write_array(slot, tile))
            if staged is not None:
                return TileTask(image_id, tile_id, probe=probe, slot=staged[1], trace=trace)
        return TileTask(image_id, tile_id, np.ascontiguousarray(tile), probe=probe, trace=trace)

    def release_task(self, image_id: int, tile_id: int) -> None:
        """Free a tile's slot, if it holds one (its result arrived, or its
        image is finalizing)."""
        staged = self._staged.pop((image_id, tile_id), None)
        if staged is not None and self._task_arena is not None:
            self._task_arena.release(staged[0])

    # ---------------------------------------------------------------- results
    def materialize(self, res: TileResult) -> TileResult | None:
        """Copy a shared-memory result out of its slot and free the slot.

        Inline results pass through untouched.  Returns ``None`` when the
        descriptor points at a ring that no longer exists (a result from a
        replaced worker incarnation — its tile was already re-dispatched).
        """
        payload = res.payload
        if not isinstance(payload, ShmRef):
            return res
        wid = res.worker
        ring = self._rings[wid] if 0 <= wid < len(self._rings) else None
        slot = ring.get(payload.name) if ring is not None else None
        if slot is None:
            return None  # stale incarnation: do NOT touch the current semaphore
        obj: PackedTensor | np.ndarray | None
        try:
            if payload.kind == "packed":
                buf = np.frombuffer(slot.buf, dtype=np.uint8, count=payload.nbytes).copy()
                obj = PackedTensor(PackedStream.from_buffer(buf), raw_bits=payload.raw_bits)
            else:
                obj = np.ndarray(
                    payload.shape, dtype=np.dtype(payload.dtype), buffer=slot.buf
                ).copy()
        except Exception:
            obj = None
        finally:
            # Release only after the copy: the worker may reuse the slot
            # the moment the permit returns.
            sem = self._sems[wid]
            if sem is not None:
                sem.release()
        return None if obj is None else replace(res, payload=obj)
