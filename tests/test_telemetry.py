"""Telemetry subsystem tests: metrics, exporters, both backends' spans.

Covers the observability acceptance criteria: Chrome traces validate
against the trace-event schema with one track per node, Prometheus text
re-parses to the same samples, JSONL round-trips, the process backend and
the DES emit the same event kinds, and the `StatisticsCollector` EWMA /
probe cadence behaves as Algorithm 2 + the recovery-probe extension say.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import StatisticsCollector
from repro.telemetry import (
    STAGE_CENTRAL,
    STAGE_CONV_COMPUTE,
    STAGE_MERGE,
    STAGE_PARTITION,
    STAGE_RESULT_TRANSFER,
    STAGE_TRANSFER,
    STAGES,
    MetricsRegistry,
    NullRecorder,
    TelemetryRecorder,
    parse_prometheus_text,
    prometheus_text,
    read_jsonl,
    summarize,
    to_chrome_trace,
    validate_chrome_trace,
    write_jsonl,
)

#: The stage kinds both backends must emit (``compress`` is process-backend
#: only: the DES folds compression into the result byte count).
COMMON_STAGES = (
    STAGE_PARTITION,
    STAGE_TRANSFER,
    STAGE_CONV_COMPUTE,
    STAGE_RESULT_TRANSFER,
    STAGE_MERGE,
    STAGE_CENTRAL,
)


class TestStatisticsCollectorEWMA:
    @settings(max_examples=30, deadline=None)
    @given(
        counts=st.lists(st.floats(0.0, 64.0), min_size=1, max_size=6),
        gamma=st.floats(0.05, 1.0),
        initial=st.floats(0.0, 10.0),
    )
    def test_converges_to_constant_counts(self, counts, gamma, initial):
        """Feeding a constant n_k drives s_k -> n_k geometrically: the
        residual after N updates is exactly (1-gamma)^N * |s0 - n_k|."""
        s = StatisticsCollector(len(counts), gamma=gamma, initial=initial)
        n = 200
        for _ in range(n):
            s.update(counts)
        bound = (1 - gamma) ** n * np.abs(initial - np.asarray(counts)) + 1e-9
        assert (np.abs(s.rates() - counts) <= bound).all()

    @settings(max_examples=30, deadline=None)
    @given(
        gamma=st.floats(0.05, 0.95),
        lo=st.floats(1.0, 4.0),
        hi=st.floats(5.0, 16.0),
    )
    def test_estimate_stays_in_observed_range(self, gamma, lo, hi):
        """EWMA is a convex combination: s_k never leaves [min, max] of
        what it has seen (including the seed)."""
        s = StatisticsCollector(1, gamma=gamma, initial=lo)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s.update([rng.uniform(lo, hi)])
            assert lo - 1e-9 <= s.rates()[0] <= hi + 1e-9

    def test_update_counts_monotonic_effect(self):
        """One update moves the estimate toward the observation by gamma."""
        s = StatisticsCollector(1, gamma=0.25, initial=0.0)
        s.update([8.0])
        assert s.rates()[0] == pytest.approx(2.0)


class TestProbeCadence:
    def test_probe_due_requires_interval(self):
        s = StatisticsCollector(2, probe_interval=0)
        assert s.probe_due([True, True], [0, 0]) == []

    def test_probe_cadence(self):
        """A starved-but-alive node is due exactly every probe_interval
        updates, and note_probe resets its clock."""
        s = StatisticsCollector(2, probe_interval=3)
        alive = [True, True]
        for _ in range(3):  # not due until probe_interval updates elapse
            assert s.probe_due(alive, [4, 0]) == []
            s.update([4, 0])
        assert s.probe_due(alive, [4, 0]) == [1]
        s.note_probe(1)
        assert s.probe_due(alive, [4, 0]) == []
        for _ in range(2):
            s.update([4, 0])
            assert s.probe_due(alive, [4, 0]) == []
        s.update([4, 0])
        assert s.probe_due(alive, [4, 0]) == [1]

    def test_dead_or_allocated_nodes_never_due(self):
        s = StatisticsCollector(2, probe_interval=1)
        s.update([4, 0])
        assert s.probe_due([True, False], [4, 0]) == []   # dead
        assert s.probe_due([True, True], [4, 1]) == [] 	  # already allocated

    def test_validation(self):
        s = StatisticsCollector(2, probe_interval=1)
        with pytest.raises(ValueError):
            s.probe_due([True], [0, 0])


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("x_total", node="a").inc()
        reg.counter("x_total", node="a").inc(2)
        reg.counter("x_total", node="b").inc(5)
        reg.gauge("share", node="a").set(1.5)
        for v in range(100):
            reg.histogram("lat_seconds").observe(v / 100)
        assert reg.counter_value("x_total", node="a") == 3
        assert reg.counter_total("x_total") == 8
        h = reg.histogram("lat_seconds")
        assert h.count == 100
        assert h.quantile(0.5) == pytest.approx(0.495, abs=0.02)
        assert h.quantile(0.99) == pytest.approx(0.98, abs=0.02)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1", b="2").inc()
        reg.counter("x", b="2", a="1").inc()
        assert reg.counter_value("x", a="1", b="2") == 2


class TestRecorder:
    def test_null_recorder_is_inert(self):
        n = NullRecorder()
        n.record(0.0, "x")
        n.span("partition", 0.0, 1.0)
        n.count("c")
        n.gauge("g", 1.0)
        n.observe("h", 1.0)
        assert not n.enabled and len(n) == 0 and n.of_kind("x") == []

    def test_span_feeds_stage_histogram(self):
        t = TelemetryRecorder()
        t.span(STAGE_CONV_COMPUTE, 0.0, 0.5, node="n1", image_id=0)
        t.span(STAGE_CONV_COMPUTE, 1.0, 1.5, node="n1", image_id=1)
        h = t.metrics.histogram("adcnn_stage_seconds", stage=STAGE_CONV_COMPUTE)
        assert h.count == 2 and h.sum == pytest.approx(2.0)
        assert len(t.spans(STAGE_CONV_COMPUTE)) == 2

    def test_trace_recorder_alias(self):
        """The simulator's old alias is gone: one recorder, one name."""
        import repro.simulator

        assert not hasattr(repro.simulator, "TraceRecorder")
        with pytest.raises(ImportError):
            import repro.simulator.trace  # noqa: F401


def _sample_recorder() -> TelemetryRecorder:
    t = TelemetryRecorder()
    t.record(0.0, "dispatch", image_id=0, allocation=[2, 2])
    t.span(STAGE_PARTITION, 0.0, 0.001, node="central", image_id=0)
    t.span(STAGE_TRANSFER, 0.001, 0.01, node="worker0", image_id=0)
    t.span(STAGE_CONV_COMPUTE, 0.011, 0.02, node="worker0", image_id=0)
    t.span(STAGE_RESULT_TRANSFER, 0.031, 0.004, node="worker0", image_id=0)
    t.span(STAGE_MERGE, 0.035, 0.001, node="central", image_id=0, zero_filled=0)
    t.span(STAGE_CENTRAL, 0.036, 0.01, node="central", image_id=0)
    t.record(0.046, "image_done", image_id=0, latency=0.046, zero_filled=0)
    t.count("adcnn_tiles_dispatched_total", 4, node="worker0")
    t.count("adcnn_bits_wire_total", 1000, direction="down")
    t.count("adcnn_bits_raw_total", 32000, direction="down")
    t.gauge("adcnn_scheduler_share", 7.5, node="worker0")
    return t


class TestChromeTraceExport:
    def test_valid_and_one_track_per_node(self):
        trace = _sample_recorder().chrome_trace()
        events = validate_chrome_trace(trace)
        names = {e["args"]["name"] for e in events if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert names == {"central", "worker0"}
        # one tid per node
        tids = {e["tid"] for e in events if e.get("ph") == "X"}
        assert len(tids) == 2

    def test_span_vs_instant_phases(self):
        trace = _sample_recorder().chrome_trace()
        by_name = {}
        for e in trace["traceEvents"]:
            by_name.setdefault(e["name"], set()).add(e["ph"])
        assert by_name[STAGE_CONV_COMPUTE] == {"X"}
        assert by_name["image_done"] == {"i"}

    def test_times_rebased_to_microseconds(self):
        t = TelemetryRecorder()
        t.span(STAGE_CONV_COMPUTE, 1000.5, 0.25, node="n")
        ev = [e for e in t.chrome_trace()["traceEvents"] if e["ph"] == "X"][0]
        assert ev["ts"] == 0.0 and ev["dur"] == pytest.approx(0.25e6)

    def test_json_serializable(self):
        json.dumps(_sample_recorder().chrome_trace())

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"nope": 1})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "n", "ts": 0, "pid": 0, "tid": 1}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z", "name": "n"}]})

    def test_numpy_args_serializable(self):
        t = TelemetryRecorder()
        t.record(0.0, "dispatch", allocation=np.array([1, 2]), n=np.int64(3))
        json.dumps(to_chrome_trace(t.events), default=lambda o: o.tolist() if hasattr(o, "tolist") else o)


class TestPrometheusRoundTrip:
    def test_reparses_to_same_samples(self):
        t = _sample_recorder()
        text = t.prometheus()
        samples = parse_prometheus_text(text)
        assert samples[("adcnn_tiles_dispatched_total", frozenset({("node", "worker0")}))] == 4
        assert samples[("adcnn_bits_wire_total", frozenset({("direction", "down")}))] == 1000
        assert samples[("adcnn_scheduler_share", frozenset({("node", "worker0")}))] == 7.5
        # histogram summary series: quantiles + count + sum
        key_count = ("adcnn_stage_seconds_count", frozenset({("stage", STAGE_CONV_COMPUTE)}))
        assert samples[key_count] == 1
        q50 = ("adcnn_stage_seconds", frozenset({("stage", STAGE_CONV_COMPUTE), ("quantile", "0.5")}))
        assert samples[q50] == pytest.approx(0.02)

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total", path='a"b\\c').inc()
        samples = parse_prometheus_text(prometheus_text(reg))
        assert samples[("x_total", frozenset({("path", 'a"b\\c')}))] == 1

    def test_every_line_parses(self):
        for line in _sample_recorder().prometheus().splitlines():
            parse_prometheus_text(line)  # raises on malformed lines


class TestJsonlRoundTrip:
    def test_events_and_metrics_survive(self, tmp_path):
        t = _sample_recorder()
        path = tmp_path / "run.jsonl"
        t.write_jsonl(path)
        events, metric_rows = read_jsonl(path)
        assert len(events) == len(t.events)
        assert events[0]["kind"] == "dispatch"
        counters = {r["name"] for r in metric_rows if r["metric_kind"] == "counter"}
        assert "adcnn_bits_wire_total" in counters
        hists = [r for r in metric_rows if r["metric_kind"] == "histogram"]
        assert any("p95" in r for r in hists)

    def test_numpy_values_serialize(self, tmp_path):
        t = TelemetryRecorder()
        t.record(0.0, "dispatch", allocation=np.array([1, 2]), count=np.int32(7))
        path = tmp_path / "np.jsonl"
        write_jsonl(t.events, path)
        events, _ = read_jsonl(path)
        assert events[0]["allocation"] == [1, 2] and events[0]["count"] == 7


class TestSummarize:
    def test_summary_quantities(self):
        t = _sample_recorder()
        summary = summarize(t.events, t.metrics.snapshot())
        assert summary.images == 1
        assert summary.mean_latency_s == pytest.approx(0.046)
        assert summary.compression_ratio == pytest.approx(1000 / 32000)
        stages = {s.stage for s in summary.stages}
        assert STAGE_CONV_COMPUTE in stages and STAGE_MERGE in stages
        assert 0 < summary.utilization["worker0"] <= 1

    def test_render_smoke(self):
        from repro.telemetry.report import render

        t = _sample_recorder()
        out = render(summarize(t.events, t.metrics.snapshot()))
        assert "conv_compute" in out and "utilization" in out

    def test_node_utilization_merges_overlapping_spans(self):
        from repro.telemetry.report import node_utilization

        # Regression: pipelined images overlap compute spans on one node;
        # summing raw durations used to report >100% busy.
        t = TelemetryRecorder()
        t.record(0.0, "dispatch")  # pins the run-window start
        t.span("conv_compute", 0.0, 8.0, node="worker0")
        t.span("conv_compute", 4.0, 6.0, node="worker0")  # overlaps [4, 8]
        t.span("compress", 9.0, 1.0, node="worker0")  # disjoint tail
        t.span("conv_compute", 0.0, 30.0, node="worker1")  # would be 300%
        t.span("conv_compute", 5.0, 5.0, node="worker1")  # fully nested
        t.record(10.0, "image_done")
        util = node_utilization(t.events)
        # worker0: union([0,8] ∪ [4,10]) = [0,10] -> 10 busy over window 30.
        assert util["worker0"] == pytest.approx(10.0 / 30.0)
        assert util["worker1"] == pytest.approx(1.0)
        assert all(0.0 <= u <= 1.0 for u in util.values())


class TestDesBackendTelemetry:
    def test_same_event_kinds_as_process_backend(self):
        from repro.experiments.common import build_adcnn_system

        tel = TelemetryRecorder()
        system = build_adcnn_system("vgg16", num_nodes=4, telemetry=tel)
        records = system.run(4)
        kinds = {e["kind"] for e in tel.events}
        for stage in COMMON_STAGES:
            assert stage in kinds, f"DES missing {stage}"
        assert "dispatch" in kinds and "image_done" in kinds
        # latency in telemetry matches the records
        done = sorted(tel.of_kind("image_done"), key=lambda e: e["image_id"])
        for e, r in zip(done, records):
            assert e["latency"] == pytest.approx(r.latency)
        validate_chrome_trace(tel.chrome_trace())
        # bits on the wire match the media accounting
        wire = tel.metrics.counter_total("adcnn_bits_wire_total")
        assert wire == pytest.approx(system.total_transferred_bits())

    def test_telemetry_does_not_change_simulation(self):
        from repro.experiments.common import build_adcnn_system

        base = build_adcnn_system("resnet34", num_nodes=3).run(3)
        with_tel = build_adcnn_system("resnet34", num_nodes=3, telemetry=TelemetryRecorder()).run(3)
        for a, b in zip(base, with_tel):
            assert a.latency == pytest.approx(b.latency, rel=1e-12)
            np.testing.assert_array_equal(a.allocation, b.allocation)

    def test_scheduler_share_gauges_present(self):
        from repro.experiments.common import build_adcnn_system

        tel = TelemetryRecorder()
        build_adcnn_system("vgg16", num_nodes=2, telemetry=tel).run(2)
        assert math.isfinite(tel.metrics.gauge("adcnn_scheduler_share", node="conv1").value)


@pytest.fixture(scope="module")
def process_run():
    """One telemetry-recorded 2-worker process-backend stream, shared by
    the assertions below (cluster startup dominates test time)."""
    from repro.compression import CompressionPipeline
    from repro.models import vgg_mini
    from repro.runtime import ProcessCluster, ProcessClusterConfig

    model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()
    rng = np.random.default_rng(7)
    images = [rng.normal(size=(1, 3, 24, 24)).astype(np.float32) for _ in range(3)]
    tel = TelemetryRecorder()
    cfg = ProcessClusterConfig(num_workers=2, t_limit=30.0)
    with ProcessCluster(model, "2x2", pipeline=CompressionPipeline(), config=cfg,
                        telemetry=tel) as cluster:
        outcomes = cluster.infer_stream(images, pipeline_depth=2)
    return tel, outcomes


class TestProcessBackendTelemetry:
    def test_all_stage_spans_present(self, process_run):
        tel, _ = process_run
        kinds = {e["kind"] for e in tel.events}
        for stage in STAGES:  # including compress — the pipeline is on
            assert stage in kinds, f"process backend missing {stage}"

    def test_chrome_trace_one_track_per_node(self, process_run):
        tel, _ = process_run
        events = validate_chrome_trace(tel.chrome_trace())
        tracks = {e["args"]["name"] for e in events if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert tracks == {"central", "worker0", "worker1"}

    def test_worker_timings_propagated_to_outcome(self, process_run):
        _, outcomes = process_run
        for out in outcomes:
            assert out.compute_seconds_per_worker.shape == (2,)
            # every tile was computed somewhere, so some worker was busy
            assert out.compute_seconds_per_worker.sum() > 0
            # one worker's busy time fits inside the image's wall time
            assert out.compute_seconds_per_worker.max() <= out.wall_seconds + 1e-6

    def test_wire_accounting_uses_real_compression(self, process_run):
        tel, _ = process_run
        wire = tel.metrics.counter_value("adcnn_bits_wire_total", direction="down")
        raw = tel.metrics.counter_value("adcnn_bits_raw_total", direction="down")
        assert 0 < wire < raw  # RLE+quantization actually shrank results

    def test_image_latency_histogram(self, process_run):
        tel, outcomes = process_run
        h = tel.metrics.histogram("adcnn_image_latency_seconds")
        assert h.count == len(outcomes)

    def test_spans_nest_inside_run_window(self, process_run):
        tel, _ = process_run
        times = [e["time"] for e in tel.events]
        span_ends = [e["time"] + e["duration"] for e in tel.events if "duration" in e]
        assert min(times) >= 0 and max(span_ends) >= max(times)
        for e in tel.events:
            if "duration" in e:
                assert e["duration"] >= 0


class TestOutcomeTimingsWithoutTelemetry:
    def test_timings_present_with_null_recorder(self):
        """Satellite: worker busy seconds survive into the outcome even
        with telemetry disabled — the protocol always carries them."""
        from repro.models import vgg_mini
        from repro.runtime import ProcessCluster, ProcessClusterConfig

        model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()
        img = np.random.default_rng(3).normal(size=(1, 3, 24, 24)).astype(np.float32)
        with ProcessCluster(model, "2x2", config=ProcessClusterConfig(num_workers=2, t_limit=30.0)) as c:
            out = c.infer(img)
        assert out.compute_seconds_per_worker.shape == (2,)
        assert out.compute_seconds_per_worker.sum() > 0
