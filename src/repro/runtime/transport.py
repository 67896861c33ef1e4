"""The one Central↔Conv tile transport (DESIGN.md §5d).

The wire unit is the controller's batch (one :class:`BatchTask` out, one
:class:`BatchResult` back).  Every message crosses the process boundary as
one pickled, length-prefixed frame on a one-way OS pipe: each worker has a
task pipe and a result pipe, written directly by the sending thread — no
feeder thread, no lock (:class:`CentralChannels` / :class:`WorkerChannel`).
A batch's bytes ride that frame one of two ways, chosen **per message** from
what the code can observe — never from a setting:

- through a shared-memory slot (:mod:`repro.runtime.shm_arena`), with only a
  small :class:`ShmRef` descriptor in the frame, when POSIX shared memory
  was available at ``start()``, a slot is free and the bytes fit it;
- inline, pickled into the frame, otherwise.

A host without ``/dev/shm`` is simply the zero-slot case: no arena is ever
created and every stage call takes the inline branch the slot path needs
anyway for ring-full / oversize / arena-gone.  Nothing outside this module
knows which branch a message took: :class:`ProcessCluster` holds one
:class:`CentralEndpoint` (probed at ``start()``, closed at ``stop()``) and
each worker loop the :class:`WorkerEndpoint` it inherited through fork.

The pipes never let one side block the other.  Central's task writes are
non-blocking: a frame the pipe cannot take waits in that worker's outbox,
flushed whenever the fd turns writable.  Workers block writing results, and
Central drains every ready result pipe on each sweep and while it waits.
Each pipe end lives in one process (Central closes the worker-side ends
right after the fork; the child closes the Central-side ends it inherited),
so a dead worker shows up as ``EPIPE`` on Central's write and EOF on its
read, and a frame it left half-written never stalls a sweep.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
from collections import deque
from collections.abc import Sequence
from multiprocessing import shared_memory
from multiprocessing.context import ForkContext
from multiprocessing.synchronize import Semaphore
from typing import Any

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

__all__ = [
    "CentralChannel",
    "CentralChannels",
    "CentralEndpoint",
    "WorkerChannel",
    "WorkerEndpoint",
    "RESULT_RING_SLOTS",
]

#: Result slots per worker (ring size == semaphore permits).  One slot holds
#: one batch, and at most ``window`` batches per worker are outstanding.
RESULT_RING_SLOTS = 4


class WorkerEndpoint:
    """Conv-node side: read a batch's input block, stage its results.

    Built by :meth:`CentralEndpoint.worker_endpoint` *before* fork so the
    ring semaphore is inherited (an ``mp.Semaphore`` cannot cross a pipe);
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
    per batch.  The result pipe is FIFO and releases happen in arrival
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
        unrecoverable anyway (its result pipe is closed with it).  The old
        ring is unlinked here; descriptors pointing at it lived only in the
        closed pipe, and :meth:`materialize` ignores any that surface.
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

    def grant_ring(self, worker_id: int, slot_nbytes: int) -> ArenaGrant | None:
        """Create the worker's result ring; the :class:`ArenaGrant` to send it
        ahead of its next task (``None`` when the arena cannot be created).

        With ``slot_nbytes`` covering the worst-case result, an inline
        fallback only happens under back-pressure, never for lack of room.
        """
        try:
            ring = SlotArena(RESULT_RING_SLOTS, slot_nbytes)
        except Exception:
            self._shm = False  # arena creation failed: inline for good
            return None
        self._rings[worker_id] = ring
        return ArenaGrant(ring.names, ring.slot_nbytes)

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


# ------------------------------------------------------------------ channels
#: Frame header: the byte length of the pickled message that follows.
_HEADER = struct.Struct("<Q")
#: Bytes one read asks for: a Linux pipe's default capacity.
_READ_BYTES = 1 << 16


def _frame(msg: object) -> memoryview:
    body = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    return memoryview(_HEADER.pack(len(body)) + body)


class _Frames:
    """Reassembles frames from pipe reads; a partial frame waits in the buffer."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list[Any]:
        """Every message completed by ``chunk``, in order."""
        buf = self._buf
        buf += chunk
        out: list[Any] = []
        pos, end = 0, len(buf)
        with memoryview(buf) as view:
            while end - pos >= _HEADER.size:
                (size,) = _HEADER.unpack_from(view, pos)
                stop = pos + _HEADER.size + size
                if stop > end:
                    break
                out.append(pickle.loads(view[pos + _HEADER.size : stop]))
                pos = stop
        del buf[:pos]
        return out


class WorkerChannel:
    """A Conv node's ends of its two pipes: tasks in, results out, both blocking.

    Built by :meth:`CentralChannels.open` right before the fork; the child
    calls :meth:`adopt` first thing, and Central closes its copy of these
    ends as soon as the child is started.
    """

    def __init__(self, task_fd: int, result_fd: int, inherited: tuple[int, ...]) -> None:
        self._task_fd, self._result_fd = task_fd, result_fd
        self._inherited = inherited
        self._frames = _Frames()
        self._ready: deque[Any] = deque()

    def adopt(self) -> None:
        """In the child: close the Central-side ends inherited through fork,
        so each pipe end lives in exactly one process."""
        for fd in self._inherited:
            os.close(fd)

    def recv(self) -> Any | None:
        """The next task-side message; ``None`` once Central closed its end."""
        while not self._ready:
            chunk = os.read(self._task_fd, _READ_BYTES)
            if not chunk:
                return None
            self._ready.extend(self._frames.feed(chunk))
        return self._ready.popleft()

    def send(self, msg: object) -> None:
        """Write one result frame, blocking while the pipe is full (Central
        drains it on every sweep and while it waits).  Raises
        :class:`BrokenPipeError` once Central closed its end."""
        view = _frame(msg)
        while view:
            view = view[os.write(self._result_fd, view):]

    def close(self) -> None:
        for fd in (self._task_fd, self._result_fd):
            if fd >= 0:
                os.close(fd)
        self._task_fd = self._result_fd = -1


class CentralChannel:
    """Central's ends of one worker's pipes, both non-blocking.

    :meth:`send` never blocks: what the task pipe cannot take waits in the
    outbox, whose fd joins the shared poll set (``POLLOUT``) until
    :meth:`flush` empties it.  :meth:`receive` returns only whole frames.
    A closed side reads ``-1``: the task side after ``EPIPE`` (the worker is
    gone, and what it never read follows re-dispatch), the result side
    after EOF (a partial frame dies with the worker that wrote it).
    """

    def __init__(self, task_fd: int, result_fd: int, poller: select.poll) -> None:
        os.set_blocking(task_fd, False)
        os.set_blocking(result_fd, False)
        self.task_fd, self.result_fd = task_fd, result_fd
        self._poller = poller
        self._outbox: deque[memoryview] = deque()
        self._frames = _Frames()
        poller.register(result_fd, select.POLLIN)

    def send(self, msg: object) -> None:
        """Hand one frame to the worker without ever blocking."""
        if self.task_fd < 0:
            return
        self._outbox.append(_frame(msg))
        if len(self._outbox) == 1:  # else FIFO: the poll set already waits for room
            self._poller.register(self.task_fd, select.POLLOUT)
            self.flush()

    def flush(self) -> None:
        """Write as much of the outbox as the pipe takes now; the task fd
        leaves the poll set once the outbox is empty."""
        outbox = self._outbox
        try:
            while outbox:
                head = outbox[0]
                n = os.write(self.task_fd, head)
                if n < len(head):
                    outbox[0] = head[n:]
                    return
                outbox.popleft()
        except BlockingIOError:
            return
        except BrokenPipeError:
            self._close_tasks()
            return
        self._poller.unregister(self.task_fd)

    def receive(self) -> list[Any]:
        """Every whole frame in the result pipe now, in order."""
        out: list[Any] = []
        while self.result_fd >= 0:
            try:
                chunk = os.read(self.result_fd, _READ_BYTES)
            except BlockingIOError:
                break
            if not chunk:
                self._close_results()
                break
            out.extend(self._frames.feed(chunk))
            if len(chunk) < _READ_BYTES:
                break
        return out

    def close(self) -> None:
        self._close_tasks()
        self._close_results()

    def _close_tasks(self) -> None:
        if self.task_fd < 0:
            return
        if self._outbox:
            self._poller.unregister(self.task_fd)
            self._outbox.clear()
        os.close(self.task_fd)
        self.task_fd = -1

    def _close_results(self) -> None:
        if self.result_fd < 0:
            return
        self._poller.unregister(self.result_fd)
        os.close(self.result_fd)
        self.result_fd = -1


class CentralChannels:
    """Central's channels to every worker and the one poll set over them.

    The poll set is persistent: a result fd is registered when its pipe is
    opened (again on respawn) and leaves it at EOF or close; a task fd is
    in it only while its outbox holds a frame.
    """

    def __init__(self, num_workers: int) -> None:
        self._poller = select.poll()
        self._channels: list[CentralChannel | None] = [None] * num_workers

    def __getitem__(self, worker_id: int) -> CentralChannel:
        channel = self._channels[worker_id]
        if channel is None:
            raise RuntimeError(f"worker {worker_id} has no channel — start the cluster first")
        return channel

    def open(self, worker_id: int) -> WorkerChannel:
        """Fresh pipes for a worker about to be forked (spawn or respawn).

        The old channel, if any, is closed first: what its incarnation never
        read or wrote is gone, and re-dispatch works off Central's
        assignment map, never pipe contents.  The caller forks, then closes
        the returned worker-side ends in this process.
        """
        old = self._channels[worker_id]
        if old is not None:
            old.close()
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        self._channels[worker_id] = CentralChannel(task_w, result_r, self._poller)
        return WorkerChannel(task_r, result_w, self._central_fds())

    def _central_fds(self) -> tuple[int, ...]:
        """Every Central-side fd open now (what a forked child must close)."""
        return tuple(
            fd
            for ch in self._channels
            if ch is not None
            for fd in (ch.task_fd, ch.result_fd)
            if fd >= 0
        )

    def readers(self) -> list[int]:
        """Result fds still open, for a multi-cluster wait."""
        return [ch.result_fd for ch in self._channels if ch is not None and ch.result_fd >= 0]

    def wait(self, timeout: float) -> bool:
        """Block until a result pipe is readable or an outbox can move, or ``timeout``."""
        return bool(self._poller.poll(max(timeout, 0.0) * 1000.0))

    def receive(self) -> list[Any]:
        """Flush every writable outbox and return every whole frame waiting
        in a ready result pipe; never blocks."""
        ready = dict(self._poller.poll(0))
        if not ready:
            return []
        out: list[Any] = []
        for ch in self._channels:
            if ch is None:
                continue
            if ch.task_fd in ready:
                ch.flush()
            if ch.result_fd in ready:
                out.extend(ch.receive())
        return out

    def close(self) -> None:
        for ch in self._channels:
            if ch is not None:
                ch.close()
        self._channels = [None] * len(self._channels)
