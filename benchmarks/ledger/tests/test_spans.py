import numpy as np
import pytest
from ledgerbench.proxy import TimedHandle
from ledgerbench.spans import Span, SpanLog, self_times


def test_self_time_subtracts_merged_and_clipped_children():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 3.0, 0, 1),
        Span(2, "b", 2.0, 5.0, 0, 1),    # overlaps a: [1, 5] is covered once
        Span(3, "c", 8.0, 12.0, 0, 1),   # runs past the parent: clipped to [8, 10]
        Span(4, "grandchild", 1.5, 2.5, 1, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0) and own[4] == pytest.approx(1.0)


class TickClock:
    """Every reading advances time by one unit."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class FakeHandle:
    name = "fake"

    def __init__(self, inner: "FakeHandle | TimedHandle | None" = None) -> None:
        self.inner = inner

    def dispatch(self, image, trace=None):
        return self.inner.dispatch(image, trace=trace) if self.inner is not None else 7

    def pump(self, block=True):
        return self.inner.pump(block) if self.inner is not None else []


def test_router_self_time_is_its_span_minus_the_shard_handle_under_it():
    log = SpanLog(clock=TickClock())
    shard = TimedHandle(FakeHandle(), log, "runtime")
    router = TimedHandle(FakeHandle(shard), log, "sharding")
    image = np.zeros(3)
    root = log.open_request(5, image)
    assert router.dispatch(image) == 7
    log.close_request(root, image)
    outer, inner = log.named("sharding.dispatch")[0], log.named("runtime.dispatch")[0]
    assert inner.parent == outer.sid and outer.parent == root.sid
    assert outer.rid == inner.rid == 5
    own = self_times(log.spans)
    assert own[outer.sid] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert router.name == "fake"  # everything but dispatch/pump/start/stop is the handle's own


def test_spans_outside_any_request_have_no_parent_and_are_written_out(tmp_path):
    log = SpanLog(clock=TickClock())
    handle = TimedHandle(FakeHandle(), log, "runtime")
    handle.pump(block=False)
    (span,) = log.named("runtime.pump")
    assert span.parent is None and span.rid is None and span.end > span.start
    path = tmp_path / "trace.jsonl"
    log.write_jsonl(path)
    assert '"name": "runtime.pump"' in path.read_text()
