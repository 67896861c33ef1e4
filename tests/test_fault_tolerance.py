"""Fault-tolerance tests: supervision, re-dispatch, restart, recovery probes.

The ISSUE-1 acceptance paths: a worker killed mid-``infer_stream`` has its
pending tiles re-dispatched and the run completes bit-identical to a
healthy run; with every worker dead, ``infer`` degrades to central-node
local execution instead of raising ``SchedulingError``; a restarted worker
re-earns share through recovery probes.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.models import vgg_mini
from repro.nn import Tensor
from repro.partition import FDSPModel, TileGrid
from repro.runtime import (
    LOCAL_WORKER,
    BatchResult,
    BatchTask,
    ProcessCluster,
    ProcessClusterConfig,
)
from repro.runtime.transport import _frame

RNG = np.random.default_rng(93)


def small_model():
    return vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()


def images(n):
    return [RNG.normal(size=(1, 3, 24, 24)).astype(np.float32) for _ in range(n)]


class TestRedispatch:
    def test_kill_mid_stream_bit_identical(self):
        """Acceptance: one worker killed mid-stream with a generous deadline
        -> pending tiles re-dispatched, zero_filled == 0, and the outputs
        are bit-identical to the same stream on a healthy cluster."""
        model = small_model()
        imgs = images(3)
        cfg = ProcessClusterConfig(num_workers=2, t_limit=30.0, delay_per_tile=(0.0, 0.15))
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            healthy = cluster.infer_stream(imgs, pipeline_depth=2)
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            killer = threading.Timer(0.25, cluster.kill_worker, args=(1,))
            killer.start()
            try:
                outcomes = cluster.infer_stream(imgs, pipeline_depth=2)
            finally:
                killer.cancel()
        for healthy_out, out in zip(healthy, outcomes):
            assert out.zero_filled_tiles == []
            np.testing.assert_array_equal(out.output, healthy_out.output)
        # The dead worker's share really moved: every tile was answered.
        assert all(o.received_per_worker.sum() + len(o.locally_computed_tiles) == 4
                   for o in outcomes)

    def test_redispatch_disabled_zero_fills(self):
        """With the supervision re-dispatch off, a killed worker's pending
        tiles fall back to the paper's deadline zero-fill."""
        model = small_model()
        cfg = ProcessClusterConfig(
            num_workers=2, t_limit=1.0, delay_per_tile=(0.0, 0.15), redispatch=False
        )
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            killer = threading.Timer(0.2, cluster.kill_worker, args=(1,))
            killer.start()
            try:
                out = cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
            finally:
                killer.cancel()
        assert len(out.zero_filled_tiles) > 0
        assert np.isfinite(out.output).all()

    @pytest.mark.parametrize("redispatch", [True, False])
    def test_half_written_result_frame_never_blocks_the_sweep(self, redispatch):
        """A worker killed halfway through writing a result frame larger
        than PIPE_BUF leaves half a frame in its pipe.  The sweep must
        return at once — the partial frame dies with the pipe at EOF — and
        the batch's tiles follow re-dispatch, or the T_L zero-fill when
        re-dispatch is off."""
        model, x = small_model(), images(1)[0]
        cfg = ProcessClusterConfig(num_workers=2, t_limit=30.0 if redispatch else 1.0,
                                   redispatch=redispatch)
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            healthy = cluster.infer(x)
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            # The test plays worker 0: fresh pipes whose worker side it holds
            # (the real worker reads EOF and exits), and a stand-in process
            # that stays alive until the frame is half-written.
            real, cluster._procs[0] = cluster._procs[0], _StandIn()
            worker = cluster._channels.open(0)
            real.join(timeout=5.0)
            engine = cluster.stream_engine(window=1)
            engine.dispatch(cluster.validate_image(x))
            task = _finishes(worker.recv, 5.0)
            if not isinstance(task, BatchTask):  # the result-ring grant comes first
                task = _finishes(worker.recv, 5.0)
            assert isinstance(task, BatchTask) and len(task.tile_ids) == 2  # an even split
            frame = _frame(BatchResult(task.image_id, task.tile_ids,
                                       np.zeros(4096, dtype=np.float32), worker=0))
            half = frame[: len(frame) // 2]
            assert len(half) > 4096 and os.write(worker._result_fd, half) == len(half)
            worker.close()
            cluster._procs[0].alive = False  # killed mid-write
            _finishes(lambda: cluster._sweep_results(engine._inflight), 5.0)
            done = []
            deadline = time.monotonic() + 30.0
            while not done and time.monotonic() < deadline:
                done = engine.pump()
        (_, out), = done
        if redispatch:
            assert out.zero_filled_tiles == [] and out.received_per_worker.tolist() == [0, 4]
            np.testing.assert_array_equal(out.output, healthy.output)
        else:
            assert out.zero_filled_tiles == sorted(task.tile_ids)


class _StandIn:
    """A worker-process stand-in: alive until the test says it died."""

    alive = True

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass

    def terminate(self):
        self.alive = False


def _finishes(fn, timeout):
    """Run ``fn`` on a daemon thread; its result, or fail when it hangs."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still blocked after {timeout} s"
    return out[0]


class TestLocalFallback:
    def test_all_workers_dead_runs_locally(self):
        """Acceptance: every worker dead -> infer() degrades to central-node
        local execution instead of raising SchedulingError."""
        model = small_model()
        grid = TileGrid(2, 2)
        x = RNG.normal(size=(1, 3, 24, 24)).astype(np.float32)
        local = FDSPModel(model, grid)
        local.eval()
        expected = local(Tensor(x)).data
        with ProcessCluster(model, grid, config=ProcessClusterConfig(num_workers=2)) as cluster:
            cluster.kill_worker(0)
            cluster.kill_worker(1)
            out = cluster.infer(x)
        assert out.zero_filled_tiles == []
        assert out.locally_computed_tiles == [0, 1, 2, 3]
        assert out.received_per_worker.sum() == 0
        np.testing.assert_allclose(out.output, expected, atol=1e-5)

    def test_workers_die_mid_collect_central_takes_over(self):
        """All workers killed while results are pending: supervision finds
        no survivors and the central process computes the missing tiles."""
        model = small_model()
        cfg = ProcessClusterConfig(
            num_workers=2, t_limit=30.0, delay_per_tile=(0.15, 0.15)
        )
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            for wid in (0, 1):
                threading.Timer(0.2, cluster.kill_worker, args=(wid,)).start()
            out = cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
        assert out.zero_filled_tiles == []
        assert len(out.locally_computed_tiles) > 0
        assert np.isfinite(out.output).all()


class TestRestartAndProbes:
    def test_restart_then_probe_regains_share(self):
        """Kill -> s_k decays while dead -> restart policy respawns the
        worker -> a recovery probe lets it re-earn allocation share."""
        model = small_model()
        cfg = ProcessClusterConfig(
            num_workers=2,
            t_limit=10.0,
            gamma=1.0,            # s_k tracks the last image exactly
            max_restarts=1,
            restart_backoff=0.1,
            probe_interval=1,
        )
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
            cluster.kill_worker(1)
            out_dead = cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
            assert out_dead.allocation[1] == 0  # routed around the corpse
            time.sleep(0.15)  # let the restart backoff elapse
            last = None
            for _ in range(3):
                last = cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
            assert cluster.restart_counts == [0, 1]
            assert cluster.worker_rates[1] > 0  # probe delivered, share re-earned
            assert last.allocation[1] >= 1
            assert last.zero_filled_tiles == []

    def test_no_restarts_by_default(self):
        model = small_model()
        with ProcessCluster(model, TileGrid(2, 2), config=ProcessClusterConfig(num_workers=2)) as cluster:
            cluster.kill_worker(1)
            cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
            cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
            assert cluster.restart_counts == [0, 0]
            assert not cluster._procs[1].is_alive()


class TestConfigValidation:
    def test_new_knobs_validated(self):
        with pytest.raises(ValueError):
            ProcessClusterConfig(max_restarts=-1)
        with pytest.raises(ValueError):
            ProcessClusterConfig(restart_backoff=2.0, restart_backoff_cap=1.0)
        with pytest.raises(ValueError):
            ProcessClusterConfig(probe_interval=-1)
        with pytest.raises(ValueError):
            ProcessClusterConfig(poll_interval=0.0)

    def test_local_worker_sentinel(self):
        assert LOCAL_WORKER == -1
