"""The one Central↔Conv tile transport (DESIGN.md §5d).

The wire unit is the controller's batch (one :class:`BatchTask` out, one
:class:`BatchResult` back), and a batch's bytes always ride its own frame:
every message crosses the process boundary as one pickled, length-prefixed
frame on a one-way OS pipe.  Each worker has a task pipe and a result pipe,
written directly by the sending thread — no feeder thread, no lock, no
shared memory (:class:`CentralChannels` / :class:`WorkerChannel`).  That is
the paper's setting (§6): Conv nodes and the Central node share no memory,
and every result crosses the link as bytes.

Each pipe is sized to hold one whole frame (:meth:`CentralChannels.open`):
the task pipe one image's whole tile stack, the result pipe the worst-case
batch result.  A frame then crosses in one write and wakes its reader once
instead of once per 64 KB chunk.  The kernel may grant less than asked; the
channels are correct at any capacity.

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

import fcntl
import os
import pickle
import select
import struct
from collections import deque
from typing import Any

__all__ = ["CentralChannel", "CentralChannels", "WorkerChannel"]


# ------------------------------------------------------------------ channels
#: Frame header: the byte length of the pickled message that follows.
_HEADER = struct.Struct("<Q")
#: Bytes one read asks for: a Linux pipe's default capacity.
_READ_BYTES = 1 << 16
#: Room for the pickle and frame headers around a batch's array bytes.
_FRAME_SLACK = 1 << 12


def _pipe_max() -> int:
    """The largest capacity an unprivileged process may give a pipe."""
    try:
        with open("/proc/sys/fs/pipe-max-size", encoding="ascii") as f:
            return int(f.read())
    except (OSError, ValueError):
        return _READ_BYTES


def _size_pipe(fd: int, nbytes: int) -> None:
    """Give the pipe a capacity that holds an ``nbytes`` frame whole,
    rounded up to a power of two and capped at ``pipe-max-size``.  A
    refusal is not an error: it leaves the pipe as it was."""
    want = min(1 << (nbytes + _FRAME_SLACK - 1).bit_length(), _pipe_max())
    try:
        if want > fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ):
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, want)
    except OSError:
        pass


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

    @property
    def has_outbox(self) -> bool:
        """True while a frame waits for room in the task pipe."""
        return bool(self._outbox)

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

    ``task_nbytes`` and ``result_nbytes`` are the largest task and result a
    worker's pipes carry (one image's tile stack, the worst-case batch
    result); :meth:`open` sizes every pipe to hold its frame whole.
    """

    def __init__(self, num_workers: int, task_nbytes: int = 0, result_nbytes: int = 0) -> None:
        self._poller = select.poll()
        self._channels: list[CentralChannel | None] = [None] * num_workers
        self._task_nbytes, self._result_nbytes = task_nbytes, result_nbytes

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
        the returned worker-side ends in this process.  Both pipes are
        sized before the fork, so the child inherits their capacity.
        """
        old = self._channels[worker_id]
        if old is not None:
            old.close()
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        _size_pipe(task_w, self._task_nbytes)
        _size_pipe(result_w, self._result_nbytes)
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

    def wait_set(self) -> list[tuple[int, int]]:
        """``(fd, poll events)`` for every open result pipe and every task
        pipe whose outbox holds a frame: what :meth:`wait` waits on, for a
        multi-cluster wait."""
        out: list[tuple[int, int]] = []
        for ch in self._channels:
            if ch is None:
                continue
            if ch.result_fd >= 0:
                out.append((ch.result_fd, select.POLLIN))
            if ch.has_outbox:
                out.append((ch.task_fd, select.POLLOUT))
        return out

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
