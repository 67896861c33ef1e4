import pytest
from ledgerbench.stats import (
    cut_segments,
    median_percentile,
    percentile,
    segment_rate,
    spread,
    supported,
    supported_percentile,
)


def test_percentile_support_rule_needs_ten_samples_beyond():
    assert not supported(199, 95) and supported(200, 95)
    assert not supported(999, 99) and supported(1000, 99)
    assert supported(20, 50) and not supported(19, 50)


def test_unsupported_percentile_is_not_reported():
    samples = [float(i) for i in range(500)]
    assert supported_percentile(samples, 95) == pytest.approx(percentile(samples, 95))
    assert supported_percentile(samples, 99) is None


def test_percentile_interpolates_like_numpy():
    np = pytest.importorskip("numpy")
    samples = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    for q in (0, 25, 50, 95, 100):
        assert percentile(samples, q) == pytest.approx(float(np.percentile(samples, q)))


def test_segment_rate_is_the_median_segment_and_ignores_one_stall():
    # 10 completions/s for 5 s, except one segment that stalls for 4 extra seconds.
    times, t = [], 0.0
    for i in range(50):
        t += 4.1 if i == 25 else 0.1
        times.append(t)
    assert segment_rate(times, 0.0) == pytest.approx(10.0)
    assert 50 / times[-1] < 6.0  # what a plain completed/wall would have said


def test_segment_rate_is_exact_with_few_completions():
    # 7 cold cycles of 0.2 s: cutting by time would quantise; cutting by count does not.
    assert segment_rate([0.2 * (i + 1) for i in range(7)], 0.0) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        segment_rate([0.1, 0.2], 0.0)


def test_segments_are_consecutive_by_completion_time_and_keep_their_samples():
    done = [0.5, 0.1, 0.4, 0.2, 0.3, 1.0, 0.9, 0.8, 0.7, 0.6]  # deliberately unsorted
    latency = [d * 100 for d in done]
    segments = cut_segments(done, latency, start=0.0)
    assert [s.count for s in segments] == [2] * 5
    assert [s.seconds for s in segments] == pytest.approx([0.2] * 5)
    assert segments[0].samples == (10.0, 20.0) and segments[4].samples == (90.0, 100.0)


def test_a_slow_stretch_moves_a_pooled_percentile_but_not_the_segment_median():
    # 500 requests at 10 ms; the fourth fifth of the window ran at 30 ms.
    done = [float(i) for i in range(500)]
    latency = [30.0 if 300 <= i < 400 else 10.0 for i in range(500)]
    segments = cut_segments(done, latency, start=-1.0)
    assert median_percentile(segments, 95) == 10.0
    assert percentile(latency, 95) == 30.0


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 9.9, 10.1]
    assert 0.0 < spread(values) < 0.05
    assert spread([5.0]) == 0.0
