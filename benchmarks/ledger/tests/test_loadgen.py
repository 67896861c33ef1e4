from concurrent.futures import Future

import numpy as np
import pytest
from ledgerbench.loadgen import closed_loop, open_loop, poisson_due_times


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def blocking_service(clock: FakeClock, service_s: float, refuse: frozenset[int] = frozenset()):
    """A system that holds the generator for ``service_s`` per request: the
    stall every later request must be charged for."""

    def submit(index: int) -> Future:
        if index in refuse:
            raise RuntimeError("shed")
        clock.now += service_s
        future: Future = Future()
        future.set_result(index)
        return future

    return submit


def test_open_loop_times_from_due_time_and_reports_generator_lateness():
    clock = FakeClock()
    dues = [0.00, 0.01, 0.02, 0.03]
    comps = open_loop(blocking_service(clock, 0.025), dues, clock=clock, sleep=clock.sleep)
    assert [c.due for c in comps] == dues
    # Each request waits for the previous one's 25 ms: sent late, and charged for it.
    assert [c.lateness for c in comps] == pytest.approx([0.0, 0.015, 0.030, 0.045])
    assert [c.latency_from_due for c in comps] == pytest.approx([0.025, 0.040, 0.055, 0.070])
    # Timing from the send instead would have hidden the stall entirely.
    assert [c.done - c.submitted for c in comps] == pytest.approx([0.025] * 4)
    assert [c.result for c in comps] == [0, 1, 2, 3]


def test_open_loop_waits_for_a_due_time_that_is_still_ahead():
    clock = FakeClock()
    comps = open_loop(blocking_service(clock, 0.001), [0.5, 1.0], clock=clock, sleep=clock.sleep)
    assert [c.submitted for c in comps] == pytest.approx([0.5, 1.0])
    assert all(c.lateness == pytest.approx(0.0) for c in comps)


def test_open_loop_counts_a_refused_request_as_failed_and_keeps_going():
    clock = FakeClock()
    ends: list[float] = []
    comps = open_loop(blocking_service(clock, 0.001, refuse=frozenset({1})), [0.0, 0.1, 0.2],
                      clock=clock, sleep=clock.sleep, on_step_end=lambda: ends.append(clock.now))
    assert [c.error for c in comps] == [None, "RuntimeError", None]
    assert len(ends) == 1


def test_closed_loop_keeps_the_window_full_and_stops_at_the_end():
    clock = FakeClock()
    comps, start, end = closed_loop(blocking_service(clock, 0.1), outstanding=2, duration=1.0, clock=clock)
    assert (start, end) == (0.0, 1.0)
    assert all(c.error is None for c in comps)
    assert len([c for c in comps if c.done <= end]) == 10
    assert [c.index for c in comps] == list(range(len(comps)))


def test_poisson_schedule_is_seeded_sorted_and_inside_the_step():
    a = poisson_due_times(np.random.default_rng(7), 120.0, 2.0, start=10.0)
    b = poisson_due_times(np.random.default_rng(7), 120.0, 2.0, start=10.0)
    assert a == b and a == sorted(a)
    assert 10.0 < a[0] and a[-1] < 12.0
    assert 180 < len(a) < 300
