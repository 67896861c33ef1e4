"""The discrete-event simulation loop."""

from __future__ import annotations

import math
from collections.abc import Callable

from .events import Event, EventQueue

__all__ = ["Simulator"]


class Simulator:
    """Minimal deterministic discrete-event simulator.

    Time is in seconds.  Callbacks scheduled at equal times run in
    scheduling order.  The ADCNN runtime (:mod:`repro.runtime.system`) and
    every latency experiment are applications on top of this loop.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Run ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self._now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Run ``action`` at absolute ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} < now {self._now}")
        return self._queue.push(time, action)

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> None:
        """Process events until the queue drains or ``until`` is reached."""
        self._running = True
        processed = 0
        pop = self._queue.pop
        limit = math.inf if until is None else until
        try:
            while self._running:
                ev = pop(limit)
                if ev is None:
                    break
                self._now = ev.time
                ev.action()
                processed += 1
                if processed >= max_events:
                    raise RuntimeError(f"simulation exceeded {max_events} events — likely a livelock")
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

    def stop(self) -> None:
        """Stop the run loop after the current event."""
        self._running = False
