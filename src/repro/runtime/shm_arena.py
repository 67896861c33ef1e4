"""Shared-memory slot arena: the storage layer of the tile transport (DESIGN.md §5d).

Sent inline, an input tile or result crosses the Central↔Conv "wire" as a
pickled object: serialize + pipe write + pipe read + unpickle, four copies
of data whose *accounted* size (§4) is tiny.  The arena replaces that with
pre-allocated ``multiprocessing.shared_memory`` slots: the writer copies the
bytes into a slot **once**, the queue ships only a ~200-byte
:class:`ShmRef` descriptor, and the reader works from a NumPy view of the
slot (zero copies on the read side).

This module holds segments, descriptors and the attach/write helpers only
(RL003 pins every ``SharedMemory`` construction here).  Which message uses
a slot, the task-slot ledger and the per-worker result rings live in
:mod:`repro.runtime.transport`, the sole user of the arena.

**All segments are created (and finally unlinked) by the Central process** —
workers only ever attach.  That gives a single unlink site, so the POSIX
resource tracker sees one register/unregister pair per segment and shutdown
is warning-free.  An arena's free list is a plain Python list in its owning
process; ``acquire`` returns ``None`` when it is empty and the caller falls
back to an inline payload, so correctness never depends on arena capacity.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "ShmRef",
    "SlotArena",
    "attach_array",
    "attach_slot",
    "close_attachments",
    "shm_available",
    "write_array",
]


@dataclass(frozen=True, slots=True)
class ShmRef:
    """Picklable descriptor of an ndarray sitting in a shared-memory slot.

    This is all that crosses a worker pipe for a slot-staged message: an
    image's tile stack on the way out, a batch's result buffer (raw output
    block, or ``uint8`` packed-codec bytes) on the way back.
    """

    name: str
    nbytes: int
    shape: tuple[int, ...]
    dtype: str


class SlotArena:
    """A fixed pool of equally sized shared-memory slots, owned by one process.

    The creating process holds the only free list and the only unlink
    responsibility; other processes attach by name via :func:`attach_array`.
    """

    def __init__(self, num_slots: int, slot_nbytes: int) -> None:
        if num_slots < 1:
            raise ValueError("need at least one slot")
        if slot_nbytes < 1:
            raise ValueError("slots must have positive size")
        self.slot_nbytes = int(slot_nbytes)
        self._slots: list[shared_memory.SharedMemory] = []
        try:
            for _ in range(num_slots):
                self._slots.append(
                    shared_memory.SharedMemory(create=True, size=self.slot_nbytes)
                )
        except Exception:
            self.destroy()
            raise
        self._by_name = {s.name: s for s in self._slots}
        self._free = list(self._slots)
        self._destroyed = False

    # ------------------------------------------------------------- properties
    @property
    def capacity(self) -> int:
        return len(self._slots)

    @property
    def available(self) -> int:
        """Free slots right now — tests assert this returns to capacity."""
        return len(self._free)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._slots)

    # -------------------------------------------------------------- lifecycle
    def acquire(self) -> shared_memory.SharedMemory | None:
        """Pop a free slot, or ``None`` when exhausted (caller goes inline)."""
        return self._free.pop() if self._free else None

    def release(self, slot: shared_memory.SharedMemory) -> None:
        """Return a slot to the free list (double-release is a bug)."""
        if slot.name not in self._by_name:
            raise ValueError(f"slot {slot.name} does not belong to this arena")
        if any(s.name == slot.name for s in self._free):
            raise ValueError(f"slot {slot.name} released twice")
        self._free.append(slot)

    def get(self, name: str) -> shared_memory.SharedMemory | None:
        return self._by_name.get(name)

    def destroy(self) -> None:
        """Close + unlink every segment (idempotent; errors ignored)."""
        if getattr(self, "_destroyed", False):
            return
        for slot in self._slots:
            with suppress(Exception):
                slot.close()
                slot.unlink()
        self._free = []
        self._destroyed = True


def write_array(slot: shared_memory.SharedMemory, arr: np.ndarray) -> ShmRef:
    """Copy an ndarray into a slot; returns the descriptor to ship."""
    arr = np.ascontiguousarray(arr)
    if arr.nbytes > slot.size:
        raise ValueError(f"{arr.nbytes}-byte array does not fit {slot.size}-byte slot")
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=slot.buf)
    view[...] = arr
    return ShmRef(
        name=slot.name,
        nbytes=arr.nbytes,
        shape=tuple(int(d) for d in arr.shape),
        dtype=str(arr.dtype),
    )


def attach_slot(
    cache: dict[str, shared_memory.SharedMemory], name: str
) -> shared_memory.SharedMemory:
    """Attach to a named segment, caching the handle per process.

    This is the **only** sanctioned way to reach someone else's segment
    (RL003): attachments pair with :func:`close_attachments` at shutdown,
    and the creating process keeps the sole unlink responsibility.
    """
    shm = cache.get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        cache[name] = shm
    return shm


def attach_array(
    cache: dict[str, shared_memory.SharedMemory], ref: ShmRef
) -> np.ndarray:
    """Attach (with caching) and view a slot's array — zero copies.

    The view aliases shared memory: consume it before the owner recycles
    the slot (the cluster protocol guarantees an image's slot is stable
    until the image finalizes).
    """
    shm = attach_slot(cache, ref.name)
    return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)


def close_attachments(cache: dict[str, shared_memory.SharedMemory]) -> None:
    """Close every cached attachment (worker-side shutdown hygiene)."""
    for shm in cache.values():
        with suppress(Exception):
            shm.close()
    cache.clear()


def shm_available() -> bool:
    """Probe POSIX shared memory, so the transport can go inline-only where
    /dev/shm is absent (some containers/sandboxes)."""
    try:
        probe = shared_memory.SharedMemory(create=True, size=1)
        probe.close()
        probe.unlink()
        return True
    except Exception:
        return False
