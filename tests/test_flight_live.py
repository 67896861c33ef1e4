"""Flight recorder + live introspection (§5h): ring semantics, auto-dumps,
P² quantile accuracy, health scoring, the top renderer, and the live
status()/health() snapshots against a real serving cluster."""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.telemetry import (
    FlightRecorder,
    P2Quantile,
    StreamingQuantiles,
    TelemetryRecorder,
    node_health_scores,
    read_jsonl,
)
from repro.telemetry.top import render_top


# ------------------------------------------------------------------ flight
class TestFlightRecorder:
    def test_ring_caps_and_forwards(self):
        inner = TelemetryRecorder()
        fr = FlightRecorder(capacity=4, inner=inner)
        for i in range(10):
            fr.record(float(i), "dispatch", image_id=i)
        assert len(fr) == 4  # ring evicted the oldest six
        assert [e["image_id"] for e in fr.of_kind("dispatch")] == [6, 7, 8, 9]
        assert len(inner.events) == 10  # inner sink keeps everything

    def test_auto_dump_on_worker_death(self, tmp_path):
        fr = FlightRecorder(capacity=16, dump_dir=tmp_path)
        fr.span("conv_compute", 0.0, 0.5, node="worker0", image_id=0)
        fr.record(1.0, "worker_dead", node="worker1")
        assert len(fr.dumps) == 1
        events, metric_rows = read_jsonl(fr.dumps[0])
        header = events[0]
        assert header["kind"] == "flight_dump" and header["reason"] == "worker_dead"
        kinds = [e["kind"] for e in events]
        assert "conv_compute" in kinds and "worker_dead" in kinds

    def test_auto_dump_on_shed_counter_with_deltas(self, tmp_path):
        fr = FlightRecorder(dump_dir=tmp_path)
        fr.count("adcnn_serving_admitted_total", 3.0)
        fr.count("adcnn_serving_shed_total", client="c0", reason="queue_full")
        assert len(fr.dumps) == 1
        fr.count("adcnn_serving_shed_total", client="c0", reason="queue_full")
        assert len(fr.dumps) == 2
        _, rows_second = read_jsonl(fr.dumps[1])
        shed = [r for r in rows_second if r["name"] == "adcnn_serving_shed_total"]
        # Second dump reports the delta since the first, not the total.
        assert shed and shed[0]["delta"] == 1.0 and shed[0]["value"] == 2.0

    def test_decisions_included(self, tmp_path):
        fr = FlightRecorder(dump_dir=tmp_path)
        fr.bind_decisions(
            SimpleNamespace(
                decisions=[SimpleNamespace(kind="allocate", image_id=0, values=(2.0, 2.0))]
            )
        )
        path = fr.dump("manual")
        events, _ = read_jsonl(path)
        decisions = [e for e in events if e["kind"] == "decision"]
        assert decisions == [
            {
                "time": 0.0,
                "kind": "decision",
                "decision_kind": "allocate",
                "image_id": 0,
                "values": [2.0, 2.0],
            }
        ]

    def test_max_dumps_cap(self, tmp_path):
        fr = FlightRecorder(dump_dir=tmp_path, max_dumps=2)
        assert fr.dump("one") is not None
        assert fr.dump("two") is not None
        assert fr.dump("three") is None  # flap protection: disk stays bounded
        assert len(list(tmp_path.glob("flight-*.jsonl"))) == 2

    def test_clear_resets_ring_and_deltas(self, tmp_path):
        fr = FlightRecorder(dump_dir=tmp_path)
        fr.record(0.0, "dispatch")
        fr.count("adcnn_arrivals_total")
        fr.clear()
        assert len(fr) == 0
        assert fr.metrics.snapshot() == []


# ---------------------------------------------------------------- read_jsonl
class TestTruncatedJsonl:
    def test_truncated_final_line_warns_not_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        good = '{"time": 0.0, "kind": "dispatch"}\n{"time": 1.0, "kind": "image_done"}\n'
        path.write_text(good + '{"time": 2.0, "ki', encoding="utf-8")  # crash mid-write
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            events, _ = read_jsonl(path)
        assert [e["kind"] for e in events] == ["dispatch", "image_done"]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n{"time": 0.0, "kind": "dispatch"}\n', encoding="utf-8")
        with pytest.raises(Exception):
            read_jsonl(path)

    def test_clean_file_no_warning(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text('{"time": 0.0, "kind": "dispatch"}\n', encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            events, _ = read_jsonl(path)
        assert len(events) == 1


# ------------------------------------------------------------------- P² cell
class TestP2Quantile:
    def test_validation_and_empty(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)
        assert math.isnan(P2Quantile(0.5).value)

    def test_exact_for_small_samples(self):
        q = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            q.observe(x)
        assert q.value == 3.0  # true median of the buffered samples

    @pytest.mark.parametrize("quantile", [0.5, 0.95, 0.99])
    def test_tracks_large_streams(self, quantile):
        rng = np.random.default_rng(11)
        samples = rng.lognormal(mean=0.0, sigma=0.7, size=5000)
        cell = P2Quantile(quantile)
        for x in samples:
            cell.observe(float(x))
        exact = float(np.quantile(samples, quantile))
        # P² is an estimator: a few percent of the exact value on 5k
        # samples of a heavy-tailed stream is its documented regime.
        assert cell.value == pytest.approx(exact, rel=0.08)
        assert cell.count == 5000

    def test_streaming_bundle_snapshot(self):
        sq = StreamingQuantiles()
        for x in range(1, 101):
            sq.observe(float(x))
        snap = sq.snapshot()
        assert snap.count == 100
        assert snap.p50 == pytest.approx(50.0, rel=0.1)
        assert snap.p95 == pytest.approx(95.0, rel=0.1)
        assert snap.p99 == pytest.approx(99.0, rel=0.1)
        assert snap.p50 <= snap.p95 <= snap.p99


# ------------------------------------------------------------------ scoring
class TestNodeHealthScores:
    def test_scores_relative_to_fastest_living_node(self):
        nodes = node_health_scores(
            ["worker0", "worker1", "worker2"],
            alive=[True, True, False],
            rates=[10.0, 5.0, 100.0],
            restarts=[0, 1, 2],
        )
        assert [n.score for n in nodes] == [1.0, 0.5, 0.0]  # dead rate ignored
        assert nodes[1].restarts == 1 and not nodes[2].alive

    def test_degenerate_rates(self):
        nodes = node_health_scores(["a", "b"], [True, True], [0.0, 0.0], [0, 0])
        assert [n.score for n in nodes] == [1.0, 1.0]
        assert node_health_scores([], [], [], []) == ()


# ---------------------------------------------------------------------- top
class TestRenderTop:
    def test_renders_health_and_status(self):
        from repro.telemetry import ClusterHealth, QuantileSnapshot, ServingStatus

        health = ClusterHealth(
            nodes=node_health_scores(
                ["worker0", "worker1"], [True, False], [8.0, 0.0], [0, 3]
            ),
            in_flight=2,
            window=2,
            transport="pipe",
            images_dispatched=5,
        )
        snap = QuantileSnapshot(count=4, p50=0.010, p95=0.020, p99=0.030)
        status = ServingStatus(
            admitting=True,
            queue_depth=1,
            queue_capacity=8,
            in_flight=2,
            submitted=6,
            completed=4,
            shed=1,
            slo_misses=0,
            latency=snap,
            queue_wait=snap,
            clients=("cam0",),
        )
        out = render_top(health, status, clock=lambda: 0.0)
        assert "worker0" in out and "DOWN" in out and "restarts=3" in out
        assert "1/2 alive" in out
        assert "transport=pipe  blas_threads=?" in out  # default 0 = unknown
        pinned = dataclasses.replace(health, blas_threads=1)
        assert "blas_threads=1" in render_top(pinned, clock=lambda: 0.0)
        assert "queue=1/8" in out and "submitted=6" in out
        assert "p95=  20.0ms" in out
        assert not health.healthy


# ---------------------------------------------------- live cluster snapshot
class TestLiveSnapshotsIntegration:
    def test_health_and_status_against_running_frontend(self):
        import concurrent.futures

        from repro.models import vgg_mini
        from repro.runtime import ProcessClusterConfig
        from repro.serving import ServingConfig, ServingFrontEnd
        from repro.sharding import make_cluster_handle

        model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()
        rng = np.random.default_rng(5)
        cfg = ProcessClusterConfig(num_workers=2, t_limit=30.0)
        cluster = make_cluster_handle(
            model, "2x2", config=cfg, telemetry=TelemetryRecorder(), window=2
        )
        with ServingFrontEnd(cluster, ServingConfig(window=2, queue_capacity=4)) as fe:
            futures = [fe.submit(rng.normal(size=(1, 3, 24, 24)).astype(np.float32),
                                 client="cam0") for _ in range(3)]
            concurrent.futures.wait(futures, timeout=60)
            health = cluster.health()
            status = fe.status()
            # render_top accepts the real snapshots end to end.
            assert "worker0" in render_top(health, status)
        assert health.healthy and len(health.nodes) == 2
        assert [n.node for n in health.nodes] == ["worker0", "worker1"]
        assert all(n.alive and n.restarts == 0 for n in health.nodes)
        assert health.transport == "pipe" and health.window == 2
        assert status.admitting and status.queue_capacity == 4
        assert status.submitted == 3 and status.completed == 3 and status.shed == 0
        assert status.clients == ("cam0",)
        assert status.latency.count == 3 and status.latency.p50 > 0
        assert status.queue_wait.count == 3

    def test_health_before_start_reports_dead_nodes(self):
        from repro.models import vgg_mini
        from repro.runtime import ProcessCluster, ProcessClusterConfig

        model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()
        cluster = ProcessCluster(
            model, "2x2", config=ProcessClusterConfig(num_workers=2)
        )
        health = cluster.health()
        assert not health.healthy
        assert all(not n.alive and n.score == 0.0 for n in health.nodes)
