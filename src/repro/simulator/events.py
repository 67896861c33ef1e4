"""Event primitives for the discrete-event simulator."""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["Event", "EventQueue"]


@dataclass(slots=True)
class Event:
    """A scheduled callback; the queue orders events by (time, seq)."""

    time: float
    seq: int
    action: Callable[[], None]
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True


class EventQueue:
    """A deterministic min-heap of events.

    The heap holds ``(time, seq, event)`` tuples: ``seq`` is unique, so the
    tuple comparison (done in C) never reaches the event and the order is
    exactly (time, scheduling order).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def push(self, time: float, action: Callable[[], None]) -> Event:
        seq = next(self._counter)
        ev = Event(time, seq, action)
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def pop(self, until: float = math.inf) -> Event | None:
        """Next live event due at or before ``until``; None when there is
        none (a later event stays queued)."""
        heap = self._heap
        while heap:
            item = heapq.heappop(heap)
            ev = item[2]
            if ev.cancelled:
                continue
            if item[0] > until:
                heapq.heappush(heap, item)
                return None
            return ev
        return None

    def __len__(self) -> int:
        return len(self._heap)
