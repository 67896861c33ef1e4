"""Sample statistics: supported percentiles and the segment-median rate."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass

#: A percentile is trusted only with this many samples beyond it
#: (p95 needs 200 samples, p99 needs 1000).
MIN_BEYOND = 10

#: A measured window is cut into this many consecutive segments; every
#: steady-state metric is computed per segment and reported as the median
#: over segments, so one slow stretch (a noisy neighbour, a stall) cannot
#: drag the whole window.
SEGMENTS = 5


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least ``MIN_BEYOND`` beyond ``q``."""
    return n * (100.0 - q) / 100.0 >= MIN_BEYOND


def supported_percentile(samples: Sequence[float], q: float) -> float | None:
    """The percentile, or ``None`` when the sample cannot support it."""
    if not supported(len(samples), q):
        return None
    return percentile(samples, q)


@dataclass(frozen=True)
class Segment:
    """One stretch of a measured window: how long it took and what it saw."""

    count: int                   # completions
    seconds: float               # previous segment's last completion -> this one's
    samples: tuple[float, ...]   # one latency per completion


def cut_segments(
    done_times: Sequence[float], samples: Sequence[float], start: float, segments: int = SEGMENTS
) -> list[Segment]:
    """Cut a window's completions into consecutive equal-count segments.

    ``done_times`` are completion instants after ``start`` and ``samples``
    the latency of each.  Cutting by count instead of by time keeps a
    segment's rate exact even when it holds only a handful of completions
    (cold cycles): its duration runs from the previous segment's last
    completion to its own.
    """
    order = sorted(range(len(done_times)), key=done_times.__getitem__)
    n = len(order)
    if n < segments:
        raise ValueError(f"need at least {segments} completions, got {n}")
    out = []
    prev_t, prev_i = start, 0
    for k in range(1, segments + 1):
        i = n * k // segments
        last = done_times[order[i - 1]]
        out.append(Segment(i - prev_i, last - prev_t, tuple(samples[j] for j in order[prev_i:i])))
        prev_t, prev_i = last, i
    return out


def median_rate(segments: Sequence[Segment]) -> float:
    return statistics.median(s.count / s.seconds for s in segments)


def median_percentile(segments: Sequence[Segment], q: float) -> float:
    """The percentile of each segment's samples, then the median of those."""
    return statistics.median(percentile(s.samples, q) for s in segments)


def segment_rate(done_times: Sequence[float], start: float) -> float:
    """Median completions-per-second over the window's segments."""
    return median_rate(cut_segments(done_times, done_times, start))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf
