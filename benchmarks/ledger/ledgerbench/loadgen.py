"""Load generators: one thread, closed loop or open loop.

A closed loop keeps ``outstanding`` requests in flight and sends the next
only when one completes, so a slow system receives less load.  An open loop
sends on a schedule regardless; each request is timed **from its due
time**, so a stall in the generator or the system is charged to every
request it delayed, and the generator's own lateness is reported.

``submit(index)`` returns a future (or raises when the system refuses the
request); the generators know nothing else about the system, which is what
lets the self-tests drive them with a fake clock.
"""

from __future__ import annotations

import concurrent.futures as cf
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

Submit = Callable[[int], cf.Future[Any]]
Clock = Callable[[], float]

#: A request unresolved after this long counts as failed (timed out).
RESULT_TIMEOUT_S = 60.0


@dataclass
class Completion:
    index: int
    due: float
    submitted: float
    done: float = float("nan")
    result: Any = None
    error: str | None = None

    @property
    def latency_from_due(self) -> float:
        return self.done - self.due

    @property
    def served_ms(self) -> float:
        """Send to completion, in milliseconds."""
        return (self.done - self.submitted) * 1e3

    @property
    def lateness(self) -> float:
        """How late the generator sent this request."""
        return self.submitted - self.due


def _issue(
    submit: Submit, index: int, due: float, clock: Clock, pending: dict[cf.Future[Any], Completion]
) -> Completion:
    comp = Completion(index=index, due=due, submitted=clock())
    try:
        future = submit(index)
    except Exception as exc:  # refused at the door (shed, draining, dead driver)
        comp.done = clock()
        comp.error = type(exc).__name__
        return comp

    def stamp(_f: cf.Future[Any]) -> None:
        comp.done = clock()  # on the resolving thread: not delayed by the generator

    future.add_done_callback(stamp)
    pending[future] = comp
    return comp


def _settle(comp: Completion, future: cf.Future[Any]) -> None:
    exc = future.exception()
    if exc is None:
        comp.result = future.result()
    else:
        comp.error = type(exc).__name__


def _drain(pending: dict[cf.Future[Any], Completion], clock: Clock) -> None:
    done, late = cf.wait(list(pending), timeout=RESULT_TIMEOUT_S)
    for future in done:
        _settle(pending[future], future)
    for future in late:
        pending[future].done = clock()
        pending[future].error = "Timeout"


def closed_loop(
    submit: Submit,
    outstanding: int,
    duration: float,
    *,
    clock: Clock = time.perf_counter,
) -> tuple[list[Completion], float, float]:
    """Keep ``outstanding`` requests in flight for ``duration`` seconds.

    Returns every request issued plus the window's ``(start, end)``;
    requests still in flight at ``end`` are waited for but complete after
    it, so callers count only ``done <= end`` toward the window.
    """
    issued: list[Completion] = []
    pending: dict[cf.Future[Any], Completion] = {}
    start = clock()
    end = start + duration
    index = 0
    refused = False
    while clock() < end and not refused:
        while len(pending) < outstanding:
            comp = _issue(submit, index, clock(), clock, pending)
            issued.append(comp)
            index += 1
            if comp.error is not None:
                refused = True  # a closed loop within the window is never shed; stop, report
                break
        if not pending:
            break
        done, _ = cf.wait(list(pending), timeout=RESULT_TIMEOUT_S, return_when=cf.FIRST_COMPLETED)
        if not done:
            break
        for future in done:
            _settle(pending.pop(future), future)
    _drain(pending, clock)
    return issued, start, end


def open_loop(
    submit: Submit,
    due_times: Sequence[float],
    *,
    clock: Clock = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    on_step_end: Callable[[], None] | None = None,
) -> list[Completion]:
    """Send one request at each due time, never waiting for replies."""
    issued: list[Completion] = []
    pending: dict[cf.Future[Any], Completion] = {}
    for index, due in enumerate(due_times):
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        issued.append(_issue(submit, index, due, clock, pending))
    if on_step_end is not None:
        on_step_end()
    _drain(pending, clock)
    return issued


def poisson_due_times(rng: np.random.Generator, rate_hz: float, duration: float, start: float) -> list[float]:
    """Poisson arrivals at ``rate_hz`` over ``[start, start + duration)``."""
    gaps = rng.exponential(1.0 / rate_hz, size=int(rate_hz * duration * 1.5) + 16)
    times = start + np.cumsum(gaps)
    return [float(t) for t in times[times < start + duration]]
