"""Simulated compute nodes with time-varying CPU availability and faults.

A :class:`SimNode` models one edge device: a FIFO work queue executing MACs
at ``device.macs_per_second`` scaled by a piecewise-constant CPU factor
(emulating the paper's cpulimit throttling in §7.3) and an optional
fail-stop time.  Busy intervals are recorded for the Figure 13 energy
accounting.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.profiling.latency_model import DeviceProfile

__all__ = ["CpuSchedule", "SimNode"]


@dataclass(frozen=True)
class CpuSchedule:
    """Piecewise-constant CPU availability factor over time.

    ``changes`` is a sorted list of (time, factor); the factor before the
    first change is 1.0.  §7.3 throttles nodes 5-6 to ~0.45 and 7-8 to
    ~0.24 mid-run.
    """

    changes: tuple[tuple[float, float], ...] = ()
    #: Change instants, computed once for the bisections below.
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = tuple(t for t, _ in self.changes)
        if list(times) != sorted(times):
            raise ValueError("CPU schedule changes must be time-sorted")
        if any(f < 0 for _, f in self.changes):
            raise ValueError("CPU factors cannot be negative")
        object.__setattr__(self, "_times", times)

    def factor_at(self, t: float) -> float:
        idx = bisect_right(self._times, t)
        return 1.0 if idx == 0 else self.changes[idx - 1][1]

    def next_change_after(self, t: float) -> float | None:
        idx = bisect_right(self._times, t)
        return self._times[idx] if idx < len(self._times) else None


#: The default schedule, full speed forever: one frozen instance shared by
#: every node built without a schedule.
_FULL_SPEED = CpuSchedule()


@dataclass
class SimNode:
    """One edge device in the simulated cluster.

    Failure injection is fail-stop with optional recovery: the node dies at
    ``fail_time`` (in-progress and queued work is lost) and, if
    ``recover_time`` is set, comes back empty at that instant and accepts
    new work again.  Recovery alone does not restore scheduling share —
    the node's ``s_k`` has decayed, so it needs a recovery probe
    (see :class:`repro.runtime.StatisticsCollector`).
    """

    name: str
    device: DeviceProfile
    cpu_schedule: CpuSchedule = _FULL_SPEED
    fail_time: float | None = None
    recover_time: float | None = None
    storage_bits: float = math.inf  # H_k in Algorithm 3

    def __post_init__(self) -> None:
        if self.recover_time is not None:
            if self.fail_time is None:
                raise ValueError("recover_time requires fail_time")
            if self.recover_time <= self.fail_time:
                raise ValueError("recover_time must be after fail_time")
        self._busy_until = 0.0
        self._busy_total = 0.0
        self.busy_intervals: list[tuple[float, float]] = []

    # ----------------------------------------------------------------- state
    def is_alive(self, t: float) -> bool:
        if self.fail_time is None or t < self.fail_time:
            return True
        return self.recover_time is not None and t >= self.recover_time

    def rate_at(self, t: float) -> float:
        """Effective MAC/s at time t (0 when failed)."""
        if not self.is_alive(t):
            return 0.0
        return self.device.macs_per_second * self.cpu_schedule.factor_at(t)

    # ------------------------------------------------------------ execution
    def compute_finish_time(self, start: float, macs: float) -> float:
        """Wall-clock completion of ``macs`` begun at ``start``.

        Integrates the piecewise-constant rate; returns ``inf`` if the node
        fails (or is fully throttled) before the work completes.
        """
        if macs < 0:
            raise ValueError("negative work")
        t = start
        remaining = float(macs) + self.device.invocation_overhead_s * self.device.macs_per_second
        # Convert invocation overhead into equivalent MACs at nominal rate so
        # throttling slows it proportionally (conservative and simple).
        for _ in range(len(self.cpu_schedule.changes) + 2):
            if not self.is_alive(t):
                return math.inf
            rate = self.rate_at(t)
            boundary = self.cpu_schedule.next_change_after(t)
            if self.fail_time is not None and self.fail_time > t:
                # A *future* failure bounds this work; a past one is only
                # relevant if we are in the dead window (caught above).
                boundary = min(boundary, self.fail_time) if boundary is not None else self.fail_time
            if rate > 0:
                finish = t + remaining / rate
                if boundary is None or finish <= boundary:
                    return finish
                remaining -= (boundary - t) * rate
            else:
                if boundary is None:
                    return math.inf
            t = boundary
        # Past the last schedule change with constant rate.
        rate = self.rate_at(t)
        return math.inf if rate <= 0 else t + remaining / rate

    def submit(self, arrival: float, macs: float) -> float:
        """Enqueue work arriving at ``arrival``; returns completion time.

        FIFO: work starts when the node drains its queue.  Busy intervals
        are recorded for energy accounting (failed work records nothing).
        """
        start = max(arrival, self._busy_until)
        finish = self.compute_finish_time(start, macs)
        if math.isfinite(finish):
            self._busy_until = finish
            self.busy_intervals.append((start, finish))
            self._busy_total += finish - start
        return finish

    def total_busy_time(self, until: float | None = None) -> float:
        """Sum of busy seconds (clipped at ``until``).

        ``submit`` keeps the unclipped sum as it records intervals, adding
        them in the order the loop below would.  Interval ends never
        decrease, so when the last one ends by ``until`` nothing is clipped
        and that running sum is the answer; otherwise walk the intervals.
        """
        if until is None or not self.busy_intervals or self.busy_intervals[-1][1] <= until:
            return self._busy_total
        total = 0.0
        for s, e in self.busy_intervals:
            e = min(e, until)
            if e > s:
                total += e - s
        return total

    def reset(self) -> None:
        self._busy_until = 0.0
        self._busy_total = 0.0
        self.busy_intervals.clear()
