"""One BLAS thread per node process (DESIGN.md §5l).

``ProcessCluster.start()`` lowers the driver's OpenBLAS to one thread before
the first fork; workers inherit it and never build a pool.  Everything here
is a count or a bit comparison — no timing.
"""

import os
import threading

import numpy as np
import pytest

import repro.nn as nn
from repro.compression import CompressionPipeline
from repro.models import vgg_mini
from repro.nn import Tensor, blas
from repro.partition import TileGrid
from repro.partition.geometry import reassemble_array, split_array
from repro.runtime import ProcessCluster, ProcessClusterConfig
from repro.sharding import make_cluster_handle

RNG = np.random.default_rng(14)

#: The ledger's ``steady_compute`` and ``steady_small`` model shapes:
#: (input size, base width, separable prefix, grid).
SHAPES = {
    "steady_compute": (96, 12, 4, TileGrid(4, 4)),
    "steady_small": (24, 6, 2, TileGrid(2, 2)),
}

needs_openblas = pytest.mark.skipif(
    blas.get_num_threads() == 0, reason="NumPy is not running on a resolvable OpenBLAS"
)


def build(shape):
    size, width, prefix, grid = SHAPES[shape]
    model = vgg_mini(num_classes=3, input_size=size, base_width=width, separable_prefix=prefix)
    return model.eval(), grid, RNG.normal(size=(1, 3, size, size)).astype(np.float32)


def in_process_output(model, grid, pipeline, image):
    """The cluster's arithmetic with no processes (stacked fused forward)."""
    fused = nn.try_compile(model.separable_part())
    tiles = split_array(image, grid)
    block = fused(np.concatenate(tiles, axis=0))
    received = [
        pipeline.decompress(pipeline.compress_packed(block[i : i + 1]))
        for i in range(len(tiles))
    ]
    with nn.no_grad():
        return model.rest_part()(Tensor(reassemble_array(received, grid))).data


def task_counts(cluster):
    """Threads of every live worker, read from outside the process."""
    return [
        len(os.listdir(f"/proc/{proc.pid}/task")) for proc in cluster._procs if proc.is_alive()
    ]


@pytest.fixture
def two_blas_threads():
    """Run the body on a 2-thread pool, whatever earlier tests left behind."""
    control = blas._resolve()
    before = control.get()
    control.set(2)
    assert control.get() == 2
    yield
    control.set(before)


@needs_openblas
class TestWorkersHaveNoPool:
    """On the ``steady_compute`` shape, whose GEMMs are large enough that an
    unpinned worker builds a pool (3 tasks per worker before the pin)."""

    def test_served_image_leaves_workers_poolless(self):
        model, grid, image = build("steady_compute")
        before = set(threading.enumerate())
        with ProcessCluster(model, grid, config=ProcessClusterConfig(num_workers=2)) as cluster:
            outcome = cluster.infer(image)
            assert (outcome.received_per_worker > 0).all()  # both ran a GEMM
            # The worker's main thread alone: it writes its own pipes, so a
            # second thread would be a BLAS pool (or a feeder come back).
            assert task_counts(cluster) == [1, 1]
            # Central writes and reads the pipes itself: no feeder thread.
            assert set(threading.enumerate()) <= before
            assert cluster.health().blas_threads == 1
        assert blas.get_num_threads() == 1  # one-way: not restored on stop()

    def test_respawned_worker_inherits_the_pin(self):
        model, grid, image = build("steady_compute")
        config = ProcessClusterConfig(
            num_workers=2, max_restarts=1, restart_backoff=0.0, probe_interval=1
        )
        with ProcessCluster(model, grid, config=config) as cluster:
            cluster.infer(image)
            cluster.kill_worker(0)
            served_by_successor = False
            for _ in range(20):
                outcome = cluster.infer(image)
                if cluster.restart_counts[0] == 1 and outcome.received_per_worker[0] > 0:
                    served_by_successor = True
                    break
            assert served_by_successor
            assert task_counts(cluster) == [1, 1]
            assert cluster.health().blas_threads == 1

    def test_handle_restart_inherits_the_pin(self):
        model, grid, image = build("steady_compute")
        handle = make_cluster_handle(model, grid, config=ProcessClusterConfig(num_workers=2))
        with handle:
            handle.kill()
            handle.restart()
            handle.dispatch(handle.validate_image(image))
            done = []
            while not done:
                done = handle.pump()
            assert (done[0][1].received_per_worker > 0).all()
            assert task_counts(handle.cluster) == [1, 1]
            assert handle.health().blas_threads == 1


@needs_openblas
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_outputs_do_not_depend_on_thread_count(shape, two_blas_threads):
    """A reference computed on a 2-thread pool equals, bit for bit, what a
    cluster started afterwards (so single-threaded) returns: the fixed-shape
    chunked GEMM accumulates over K in one order at every thread count."""
    model, grid, image = build(shape)
    pipeline = CompressionPipeline()
    expected = in_process_output(model, grid, pipeline, image)
    with ProcessCluster(model, grid, pipeline, ProcessClusterConfig(num_workers=2)) as cluster:
        assert blas.get_num_threads() == 1
        outcome = cluster.infer(image)
    assert outcome.zero_filled_tiles == [] and outcome.locally_computed_tiles == []
    np.testing.assert_array_equal(outcome.output, expected)


def test_no_openblas_is_a_clean_noop(monkeypatch):
    """Resolver finds nothing: the cluster runs as it did before the pin."""
    monkeypatch.setattr(blas, "_resolve", lambda: None)
    blas.pin_single_thread()
    assert blas.get_num_threads() == 0
    model, grid, image = build("steady_small")
    with ProcessCluster(model, grid, config=ProcessClusterConfig(num_workers=2)) as cluster:
        outcome = cluster.infer(image)
        assert cluster.health().blas_threads == 0
    assert outcome.zero_filled_tiles == [] and outcome.output.shape == (1, 3)


class TestPinIsIdempotent:
    @needs_openblas
    def test_library_scan_runs_once_per_process(self, monkeypatch):
        scans = []
        real_scan = blas._loaded_openblas_paths

        def counting_scan():
            scans.append(1)
            return real_scan()

        monkeypatch.setattr(blas, "_loaded_openblas_paths", counting_scan)
        blas._resolve.cache_clear()
        blas.pin_single_thread()
        blas.pin_single_thread()
        assert blas.get_num_threads() == 1
        assert len(scans) == 1

    def test_no_setter_call_when_already_one(self, monkeypatch):
        state = {"threads": 4}
        sets = []

        def fake_set(n):
            sets.append(n)
            state["threads"] = n

        control = blas._ThreadControl(get=lambda: state["threads"], set=fake_set)
        monkeypatch.setattr(blas, "_resolve", lambda: control)
        blas.pin_single_thread()
        assert sets == [1] and blas.get_num_threads() == 1
        blas.pin_single_thread()
        assert sets == [1]

    def test_scan_without_proc_finds_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(blas, "_MAPS", tmp_path / "absent")
        assert blas._loaded_openblas_paths() == []
