"""Tracing tests: the recorder's generic event API, §5h trace-tree units,
and the ISSUE-7 acceptance paths — a fig-15-style kill/recover run yields
exactly one complete, orphan-free span tree per image in *both* backends,
with critical-path attribution summing to the end-to-end latency."""

import pickle
import threading

import numpy as np
import pytest

from repro.telemetry import (
    STAGE_CENTRAL,
    STAGE_CONV_COMPUTE,
    STAGE_MERGE,
    STAGE_REQUEST,
    TelemetryRecorder,
    TraceContext,
    TraceScope,
    assemble_traces,
    critical_path,
)
from repro.telemetry.trace import ROOT_SPAN_ID, WAIT_BUCKET


class TestTraceRecorder:
    def test_record_and_filter(self):
        tr = TelemetryRecorder()
        tr.record(0.1, "dispatch", image=0)
        tr.record(0.2, "result", image=0, node=1)
        tr.record(0.3, "dispatch", image=1)
        assert len(tr) == 3
        dispatches = tr.of_kind("dispatch")
        assert [e["image"] for e in dispatches] == [0, 1]

    def test_fields_preserved(self):
        tr = TelemetryRecorder()
        tr.record(1.5, "trigger", image=2, zero_filled=3)
        e = tr.events[0]
        assert e["time"] == 1.5 and e["kind"] == "trigger" and e["zero_filled"] == 3

    def test_clear(self):
        tr = TelemetryRecorder()
        tr.record(0.0, "x")
        tr.clear()
        assert len(tr) == 0


# ------------------------------------------------------------------- units
class TestTraceContext:
    def test_frozen_and_defaults(self):
        ctx = TraceContext(trace_id=7, start=1.5)
        assert ctx.span_id == ROOT_SPAN_ID
        with pytest.raises(AttributeError):
            ctx.trace_id = 8  # type: ignore[misc]

    def test_picklable(self):
        # The context crosses the fork/IPC boundary on every BatchTask.
        ctx = TraceContext(trace_id=3, span_id=0, start=2.25)
        assert pickle.loads(pickle.dumps(ctx)) == ctx


class TestTraceScope:
    def test_child_ids_unique_and_parented_to_root(self):
        scope = TraceScope(trace_id=5, start=0.0)
        fields = [scope.child_fields() for _ in range(4)]
        ids = [f["span_id"] for f in fields]
        assert len(set(ids)) == 4 and ROOT_SPAN_ID not in ids
        assert all(f["parent_id"] == ROOT_SPAN_ID for f in fields)
        assert all(f["trace_id"] == 5 for f in fields)
        assert scope.root_fields() == {"trace_id": 5, "span_id": ROOT_SPAN_ID}

    def test_context_round_trip(self):
        scope = TraceScope(trace_id=9, start=3.0)
        ctx = scope.context()
        again = TraceScope.from_context(ctx)
        assert (again.trace_id, again.start, again.root_id) == (9, 3.0, ROOT_SPAN_ID)
        # Ids allocated by the reconstructed scope never collide with root.
        assert again.next_span_id() > ROOT_SPAN_ID


def _span(tel, kind, start, dur, **fields):
    tel.span(kind, start, dur, node="central", image_id=0, **fields)


class TestAssembleTraces:
    def test_complete_tree(self):
        tel = TelemetryRecorder()
        scope = TraceScope(trace_id=0, start=0.0)
        _span(tel, "partition", 0.0, 1.0, **scope.child_fields())
        _span(tel, "merge", 1.0, 1.0, **scope.child_fields())
        _span(tel, STAGE_REQUEST, 0.0, 2.0, **scope.root_fields())
        tel.record(2.0, "image_done", image_id=0)  # ignored: no trace triple
        trees = assemble_traces(tel.events)
        assert set(trees) == {0}
        tree = trees[0]
        assert tree.complete and not tree.orphans
        assert tree.root is not None and tree.root.kind == STAGE_REQUEST
        assert tree.image_id == 0
        assert [s.kind for s in tree.stages()] == ["partition", "merge"]
        assert {s.kind for s in tree.children(ROOT_SPAN_ID)} == {"partition", "merge"}

    def test_orphans_and_missing_root_detected(self):
        tel = TelemetryRecorder()
        _span(tel, "merge", 0.0, 1.0, trace_id=1, span_id=4, parent_id=99)
        trees = assemble_traces(tel.events)
        assert not trees[1].complete
        assert [s.span_id for s in trees[1].orphans] == [4]
        with pytest.raises(ValueError):
            critical_path(trees[1])

    def test_multiple_roots_is_incomplete(self):
        tel = TelemetryRecorder()
        _span(tel, STAGE_REQUEST, 0.0, 1.0, trace_id=2, span_id=0)
        _span(tel, STAGE_REQUEST, 0.0, 2.0, trace_id=2, span_id=7)
        assert not assemble_traces(tel.events)[2].complete


class TestCriticalPath:
    def test_overlap_priority_and_wait_bucket(self):
        tel = TelemetryRecorder()
        scope = TraceScope(trace_id=0, start=0.0)
        # root [0,10]: queue_wait [0,2], conv [2,8], compress [4,6] nested,
        # nothing covers [8,10].
        _span(tel, "queue_wait", 0.0, 2.0, **scope.child_fields())
        _span(tel, STAGE_CONV_COMPUTE, 2.0, 6.0, **scope.child_fields())
        _span(tel, "compress", 4.0, 2.0, **scope.child_fields())
        _span(tel, STAGE_REQUEST, 0.0, 10.0, **scope.root_fields())
        cp = critical_path(assemble_traces(tel.events)[0])
        # compress outranks conv_compute on the overlap (downstream gates).
        assert cp.breakdown == pytest.approx(
            {"queue_wait": 2.0, STAGE_CONV_COMPUTE: 4.0, "compress": 2.0, WAIT_BUCKET: 2.0}
        )
        assert sum(cp.breakdown.values()) == pytest.approx(cp.total) == pytest.approx(10.0)
        assert cp.dominant == STAGE_CONV_COMPUTE

    def test_children_clipped_to_root(self):
        tel = TelemetryRecorder()
        scope = TraceScope(trace_id=0, start=0.0)
        _span(tel, STAGE_MERGE, -1.0, 3.0, **scope.child_fields())  # sticks out left
        _span(tel, STAGE_CENTRAL, 3.0, 5.0, **scope.child_fields())  # sticks out right
        _span(tel, STAGE_REQUEST, 0.0, 4.0, **scope.root_fields())
        cp = critical_path(assemble_traces(tel.events)[0])
        assert cp.breakdown == pytest.approx({STAGE_MERGE: 2.0, STAGE_CENTRAL: 1.0, WAIT_BUCKET: 1.0})
        assert sum(cp.breakdown.values()) == pytest.approx(cp.total) == pytest.approx(4.0)


# ---------------------------------------------------- acceptance: backends
def _assert_traces_complete(tel, expected_images):
    """ISSUE-7 acceptance: one complete orphan-free tree per image, with
    the critical path summing to the root (end-to-end) duration."""
    trees = assemble_traces(tel.events)
    done = tel.of_kind("image_done")
    assert len(done) == expected_images
    assert all("trace_id" in e for e in done)
    assert {e["trace_id"] for e in done} == set(trees)
    assert len(trees) == expected_images
    for tree in trees.values():
        assert tree.complete, f"trace {tree.trace_id}: roots={len(tree.roots)} orphans={tree.orphans}"
        cp = critical_path(tree)
        root = tree.root
        assert sum(cp.breakdown.values()) == pytest.approx(cp.total, rel=0.01)
        assert cp.total == pytest.approx(root.duration, rel=0.01)
    return trees, done


class TestProcessBackendTracePropagation:
    def _cluster(self, tel=None):
        from repro.models import vgg_mini
        from repro.runtime import ProcessCluster, ProcessClusterConfig

        model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()
        cfg = ProcessClusterConfig(num_workers=2, t_limit=30.0, delay_per_tile=(0.0, 0.15))
        return ProcessCluster(model, "2x2", config=cfg, telemetry=tel)

    def test_kill_redispatch_run_yields_complete_trees(self):
        rng = np.random.default_rng(17)
        imgs = [rng.normal(size=(1, 3, 24, 24)).astype(np.float32) for _ in range(3)]
        tel = TelemetryRecorder()
        with self._cluster(tel) as cluster:
            killer = threading.Timer(0.25, cluster.kill_worker, args=(1,))
            killer.start()
            try:
                outcomes = cluster.infer_stream(imgs, pipeline_depth=2)
            finally:
                killer.cancel()
        assert len(outcomes) == 3
        trees, done = _assert_traces_complete(tel, expected_images=3)
        # Worker spans prove propagation: their trace fields come from the
        # context echoed back on BatchResult, not from central state.
        for tree in trees.values():
            kinds = {s.kind for s in tree.stages()}
            assert {"partition", "transfer", STAGE_CONV_COMPUTE, STAGE_MERGE} <= kinds
        # Root duration envelopes the reported image latency.
        by_trace = {e["trace_id"]: e for e in done}
        for tid, tree in trees.items():
            assert tree.root.duration >= by_trace[tid]["latency"] - 1e-6

    def test_batch_forward_is_credited_to_conv_compute(self):
        """Each worker's 2-tile batch sleeps 2·d before its forward.  Traced
        as one batch, that time is conv_compute on the critical path; a
        per-tile split would book the second tile's half as the first
        tile's result_transfer and credit conv_compute about d."""
        from repro.models import vgg_mini
        from repro.runtime import ProcessCluster, ProcessClusterConfig

        d = 0.05
        model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()
        cfg = ProcessClusterConfig(num_workers=2, t_limit=30.0, delay_per_tile=(d, d))
        rng = np.random.default_rng(29)
        imgs = [rng.normal(size=(1, 3, 24, 24)).astype(np.float32) for _ in range(3)]
        tel = TelemetryRecorder()
        with ProcessCluster(model, "2x2", config=cfg, telemetry=tel) as cluster:
            outcomes = cluster.infer_stream(imgs, pipeline_depth=1)
        assert all(o.received_per_worker.tolist() == [2, 2] for o in outcomes)
        trees, _ = _assert_traces_complete(tel, expected_images=3)
        for tree in trees.values():
            assert critical_path(tree).breakdown[STAGE_CONV_COMPUTE] >= 1.5 * d

    def test_null_recorder_bit_identical(self):
        rng = np.random.default_rng(23)
        imgs = [rng.normal(size=(1, 3, 24, 24)).astype(np.float32) for _ in range(2)]
        with self._cluster(TelemetryRecorder()) as cluster:
            traced = cluster.infer_stream(imgs, pipeline_depth=2)
        with self._cluster() as cluster:  # NullRecorder default
            plain = cluster.infer_stream(imgs, pipeline_depth=2)
        for a, b in zip(traced, plain):
            np.testing.assert_array_equal(a.output, b.output)


class TestDesBackendTracePropagation:
    def test_fig15_fail_recover_run_yields_complete_trees(self):
        from repro.experiments.common import build_adcnn_system
        from repro.runtime import ADCNNConfig

        tel = TelemetryRecorder()
        system = build_adcnn_system(
            "vgg16",
            num_nodes=4,
            fail_times=[None, None, None, 1.0],
            recover_times=[None, None, None, 5.0],
            config=ADCNNConfig(pipeline_depth=1, redispatch=True, probe_interval=3),
            telemetry=tel,
        )
        records = system.run(8)
        trees, _ = _assert_traces_complete(tel, expected_images=8)
        # Sim-time traces use the same schema; the root duration equals the
        # record's sojourn exactly (same clock, same event).
        by_image = {tree.image_id: tree for tree in trees.values()}
        for rec in records:
            tree = by_image[rec.image_id]
            assert tree.root.duration == pytest.approx(rec.sojourn, rel=1e-9)
            kinds = {s.kind for s in tree.stages()}
            assert {"partition", "transfer", STAGE_CONV_COMPUTE, STAGE_MERGE} <= kinds

    def test_trace_ids_stable_without_faults(self):
        from repro.experiments.common import build_adcnn_system

        tel = TelemetryRecorder()
        build_adcnn_system("vgg16", num_nodes=2, telemetry=tel).run(3)
        trees, done = _assert_traces_complete(tel, expected_images=3)
        assert sorted(trees) == [0, 1, 2]
        assert sorted(e["image_id"] for e in done) == [0, 1, 2]
