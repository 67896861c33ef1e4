"""Tests for the pipelined streaming mode of the process backend."""

import time

import numpy as np
import pytest

from repro.models import vgg_mini
from repro.nn import Tensor
from repro.partition import FDSPModel, TileGrid
from repro.runtime import ProcessCluster, ProcessClusterConfig
from repro.telemetry import STAGE_PARTITION, TelemetryRecorder

RNG = np.random.default_rng(71)


def small_model():
    return vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()


class TestInferStream:
    def test_matches_sequential_outputs(self):
        """Pipelining must not change any prediction."""
        model = small_model()
        grid = TileGrid(2, 2)
        images = [RNG.normal(size=(1, 3, 24, 24)).astype(np.float32) for _ in range(4)]
        local = FDSPModel(model, grid)
        local.eval()
        with ProcessCluster(model, grid, config=ProcessClusterConfig(num_workers=2)) as cluster:
            outcomes = cluster.infer_stream(images, pipeline_depth=2)
        assert len(outcomes) == 4
        for img, out in zip(images, outcomes):
            np.testing.assert_allclose(out.output, local(Tensor(img)).data, atol=1e-5)
            assert out.zero_filled_tiles == []

    def test_results_in_input_order(self):
        model = small_model()
        images = [np.full((1, 3, 24, 24), float(i), dtype=np.float32) for i in range(3)]
        local = FDSPModel(model, TileGrid(2, 2))
        local.eval()
        with ProcessCluster(model, TileGrid(2, 2), config=ProcessClusterConfig(num_workers=2)) as cluster:
            outcomes = cluster.infer_stream(images)
        for img, out in zip(images, outcomes):
            np.testing.assert_allclose(out.output, local(Tensor(img)).data, atol=1e-5)

    def test_pipelining_improves_wall_time_with_sleepy_workers(self):
        """Depth 2 overlaps images, depth 1 never does — the structure that
        buys the wall time, asserted on spans instead of racing two totals:
        overlap means an image's ``partition`` span starts before the
        previous image's ``image_done``."""
        model = small_model()
        cfg = ProcessClusterConfig(num_workers=2, t_limit=30.0, delay_per_tile=(0.05, 0.05))
        images = [RNG.normal(size=(1, 3, 24, 24)).astype(np.float32) for _ in range(4)]
        overlapped = {}
        for depth in (1, 2):
            tel = TelemetryRecorder()
            with ProcessCluster(model, TileGrid(2, 2), config=cfg, telemetry=tel) as cluster:
                cluster.infer_stream(images, pipeline_depth=depth)
            done = {ev["image_id"]: ev["time"] for ev in tel.of_kind("image_done")}
            started = {sp["image_id"]: sp["time"] for sp in tel.spans(STAGE_PARTITION)}
            assert sorted(done) == sorted(started) == list(range(len(images)))
            overlapped[depth] = [i for i in range(1, len(images)) if started[i] < done[i - 1]]
        assert overlapped[1] == []
        assert overlapped[2]

    def test_validation(self):
        model = small_model()
        cluster = ProcessCluster(model, TileGrid(2, 2))
        with pytest.raises(RuntimeError):
            cluster.infer_stream([np.zeros((1, 3, 24, 24), np.float32)])
        with ProcessCluster(model, TileGrid(2, 2), config=ProcessClusterConfig(num_workers=1)) as c:
            with pytest.raises(ValueError):
                c.infer_stream([np.zeros((1, 3, 24, 24), np.float32)], pipeline_depth=0)

    def test_unbatched_inputs(self):
        model = small_model()
        with ProcessCluster(model, TileGrid(2, 2), config=ProcessClusterConfig(num_workers=1)) as cluster:
            outcomes = cluster.infer_stream([RNG.normal(size=(3, 24, 24)).astype(np.float32)])
        assert outcomes[0].output.shape == (1, 3)


class TestHotLoopFixes:
    """Regression tests for the ISSUE 6 hot-loop latency bugfixes."""

    def test_wait_results_blocks_then_wakes(self):
        """The idle wait must block on the result pipes (no 5 ms sleep
        floor) and wake as soon as any worker posts a result."""
        model = small_model()
        with ProcessCluster(model, TileGrid(2, 2),
                            config=ProcessClusterConfig(num_workers=2)) as cluster:
            t0 = time.perf_counter()
            assert cluster._wait_results(0.2) is False  # nothing pending
            assert time.perf_counter() - t0 >= 0.15
            # Fresh pipes for worker 0, whose worker side this test holds.
            worker = cluster._channels.open(0)
            try:
                worker.send("sentinel")
                t0 = time.perf_counter()
                assert cluster._wait_results(5.0) is True  # woke on the pipe
                assert time.perf_counter() - t0 < 1.0
                assert cluster._channels.receive() == ["sentinel"]
            finally:
                worker.close()

    def test_stream_engine_deadline_zero_fill(self):
        """T_L fires through the StreamEngine collect path (the formerly
        mistyped ``trigger: None`` state) and zero-fills the stragglers."""
        model = small_model()
        cfg = ProcessClusterConfig(num_workers=2, t_limit=1.0, delay_per_tile=(0.0, 5.0))
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            engine = cluster.stream_engine(window=1)
            engine.dispatch(cluster.validate_image(RNG.normal(size=(1, 3, 24, 24))))
            done = []
            while not done:
                done = engine.pump()
            (image_id, out), = done
        assert len(out.zero_filled_tiles) > 0
        assert np.isfinite(out.output).all()

    def test_stream_engine_admission_window(self):
        """can_dispatch mirrors the controller window; over-dispatch raises."""
        model = small_model()
        cfg = ProcessClusterConfig(num_workers=2, t_limit=30.0, delay_per_tile=(0.02, 0.02))
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            engine = cluster.stream_engine(window=2)
            img = cluster.validate_image(RNG.normal(size=(1, 3, 24, 24)))
            assert engine.can_dispatch
            engine.dispatch(img)
            assert engine.can_dispatch
            engine.dispatch(img)
            assert not engine.can_dispatch  # window full
            with pytest.raises(RuntimeError, match="window is full"):
                engine.dispatch(img)
            while engine.in_flight:
                engine.pump()
            assert engine.can_dispatch


class TestImageValidation:
    def test_infer_stream_rejects_wrong_shape(self):
        """Wrong-shaped inputs fail fast with a clear error, before any
        tile reaches a worker (the old path crashed mid-pipeline)."""
        model = small_model()
        with ProcessCluster(model, TileGrid(2, 2),
                            config=ProcessClusterConfig(num_workers=1)) as cluster:
            with pytest.raises(ValueError, match="does not match model input shape"):
                cluster.infer_stream([np.zeros((1, 3, 7, 7), np.float32)])
            with pytest.raises(ValueError, match="does not match model input shape"):
                cluster.infer_stream([
                    np.zeros((1, 3, 24, 24), np.float32),  # good
                    np.zeros((5, 5), np.float32),          # bad: whole batch rejected
                ])
            # nothing was dispatched: the cluster still serves good input
            out = cluster.infer_stream([np.zeros((1, 3, 24, 24), np.float32)])
            assert out[0].output.shape == (1, 3)

    def test_validate_image_accepts_and_coerces(self):
        model = small_model()
        cluster = ProcessCluster(model, TileGrid(2, 2))
        batched = cluster.validate_image(np.zeros((2, 3, 24, 24), np.float64))
        assert batched.shape == (2, 3, 24, 24) and batched.dtype == np.float32
        unbatched = cluster.validate_image(np.zeros((3, 24, 24), np.float32))
        assert unbatched.shape == (1, 3, 24, 24)
