"""Integration tests for the process-emulated edge cluster.

Conv nodes are real forked processes doing real NumPy inference; these
tests validate the Figure-8 protocol end to end: correctness vs local
execution, deadline zero-fill, node death, and load adaptation.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.compression import CompressionPipeline
from repro.models import vgg_mini
from repro.nn import Tensor
from repro.partition import FDSPModel, TileGrid
from repro.runtime import BatchTask, ProcessCluster, ProcessClusterConfig

RNG = np.random.default_rng(31)


def small_model():
    # Tiny and fast: 24x24 input, 6 channels.
    return vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()


class TestProtocol:
    def test_matches_local_fdsp_execution(self):
        """Distributed output must equal the local FDSP forward exactly."""
        model = small_model()
        grid = TileGrid(2, 2)
        x = RNG.normal(size=(1, 3, 24, 24)).astype(np.float32)
        local = FDSPModel(model, grid)
        local.eval()
        expected = local(Tensor(x)).data
        with ProcessCluster(model, grid, config=ProcessClusterConfig(num_workers=2)) as cluster:
            outcome = cluster.infer(x)
        np.testing.assert_allclose(outcome.output, expected, atol=1e-5)
        assert outcome.zero_filled_tiles == []

    def test_compressed_path_matches_training_graph(self):
        """With the §4 pipeline on the wire, the distributed output must
        equal the Figure-7(b) graph (clip + quantize) computed locally."""
        model = small_model()
        grid = TileGrid(2, 2)
        clip = nn.ClippedReLU(0.0, 4.0)
        quant = nn.QuantizeSTE(bits=4, max_value=4.0)
        local = FDSPModel(model, grid, clipped_relu=clip, quantizer=quant)
        local.eval()
        pipeline = CompressionPipeline(lower=0.0, upper=4.0, bits=4)
        x = RNG.normal(size=(1, 3, 24, 24)).astype(np.float32)
        expected = local(Tensor(x)).data
        with ProcessCluster(model, grid, pipeline=pipeline, config=ProcessClusterConfig(num_workers=2)) as cluster:
            outcome = cluster.infer(x)
        np.testing.assert_allclose(outcome.output, expected, atol=1e-4)

    def test_multiple_images_sequential(self):
        model = small_model()
        with ProcessCluster(model, TileGrid(2, 2), config=ProcessClusterConfig(num_workers=2)) as cluster:
            for _ in range(3):
                out = cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
                assert out.output.shape == (1, 3)
                assert out.allocation.sum() == 4

    def test_allocation_covers_all_tiles(self):
        model = small_model()
        with ProcessCluster(model, TileGrid(2, 2), config=ProcessClusterConfig(num_workers=3)) as cluster:
            out = cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
            assert out.allocation.sum() == 4
            assert out.received_per_worker.sum() == 4

    def test_one_controller_turn_per_batch(self, monkeypatch):
        """On the steady_compute shape (96x96 / 4x4 / 2 workers / window 2)
        each image's 16 tiles come back as two batches, and the controller
        takes one ``ResultReceived`` turn per batch — 2 per image, not 16."""
        from repro.runtime.controller import ResultReceived, SendBatch

        model = vgg_mini(num_classes=3, input_size=96, base_width=12, separable_prefix=4).eval()
        imgs = [RNG.normal(size=(1, 3, 96, 96)).astype(np.float32) for _ in range(6)]
        with ProcessCluster(
            model, TileGrid(4, 4), CompressionPipeline(bits=4), ProcessClusterConfig(num_workers=2)
        ) as cluster:
            handle = cluster._controller.handle
            turns, batches = {}, {}

            def spy(event):
                cmds = handle(event)
                if isinstance(event, ResultReceived):
                    turns.setdefault(event.image_id, []).append(event.count)
                for cmd in cmds:
                    if isinstance(cmd, SendBatch):
                        batches.setdefault(cmd.image_id, []).append(cmd.count)
                return cmds

            monkeypatch.setattr(cluster._controller, "handle", spy)
            outcomes = cluster.infer_stream(imgs, pipeline_depth=2)
        assert all(o.zero_filled_tiles == [] for o in outcomes)
        assert sorted(turns) == list(range(6))
        for image_id, counts in turns.items():
            assert len(counts) == 2 and sum(counts) == 16
            assert sorted(counts) == sorted(batches[image_id])


    def test_inference_builds_no_tensor(self, monkeypatch):
        """Workers, the local fallback and the rest layers all run compiled
        chains: with Tensor construction made to raise before the fork, both
        the worker path and the all-workers-dead path return the module
        path's reference bits."""
        model = small_model()
        grid = TileGrid(2, 2)
        x = RNG.normal(size=(1, 3, 24, 24)).astype(np.float32)
        expected = FDSPModel(model, grid).eval()(Tensor(x)).data

        def no_tensor(self, *args, **kwargs):
            raise AssertionError("Tensor built on the inference path")

        monkeypatch.setattr(Tensor, "__init__", no_tensor)
        with ProcessCluster(model, grid, config=ProcessClusterConfig(num_workers=2)) as cluster:
            remote = cluster.infer(x)
            cluster.kill_worker(0)
            cluster.kill_worker(1)
            local = cluster.infer(x)
        assert remote.locally_computed_tiles == [] and remote.received_per_worker.sum() == 4
        assert local.locally_computed_tiles == [0, 1, 2, 3]
        np.testing.assert_array_equal(remote.output, expected)
        np.testing.assert_array_equal(local.output, expected)


class TestFaultTolerance:
    def test_straggler_zero_filled(self):
        """A worker slowed past T_L loses its tiles to zero-fill, and the
        inference still completes with a sane output."""
        model = small_model()
        cfg = ProcessClusterConfig(num_workers=2, t_limit=1.0, delay_per_tile=(0.0, 5.0))
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            out = cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
        assert len(out.zero_filled_tiles) > 0
        assert np.isfinite(out.output).all()

    def test_straggler_loses_future_share(self):
        """Algorithm 2: the slow worker's s_k decays after a missed deadline."""
        model = small_model()
        cfg = ProcessClusterConfig(num_workers=2, t_limit=1.0, delay_per_tile=(0.0, 5.0), gamma=0.9)
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
            rates = cluster.worker_rates
        assert rates[1] < rates[0]

    def test_killed_worker_inference_completes(self):
        """Fail-stop a Conv node: supervision routes around it at the next
        dispatch, so the inference completes with nothing zero-filled."""
        model = small_model()
        cfg = ProcessClusterConfig(num_workers=2, t_limit=2.0)
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))  # warm
            cluster.kill_worker(1)
            out = cluster.infer(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
        assert out.zero_filled_tiles == []
        assert out.allocation[1] == 0 and out.allocation[0] == 4
        assert np.isfinite(out.output).all()


class TestRateCredits:
    """The n_k computation shared conceptually with the DES backend."""

    def test_full_delivery_credits_rate(self):
        from repro.runtime.controller import busy_span_credits

        received = np.array([4, 4])
        alloc = np.array([4, 4])
        busy = np.array([0.5, 1.0])  # worker 0 twice as fast
        credits = busy_span_credits(received, alloc, busy, window=1.0, num_tiles=8)
        assert credits[0] == pytest.approx(2 * credits[1])

    def test_missed_deadline_raw_count(self):
        from repro.runtime.controller import busy_span_credits

        received = np.array([4, 1])
        alloc = np.array([4, 4])
        busy = np.array([0.5, 1.0])
        credits = busy_span_credits(received, alloc, busy, window=1.0, num_tiles=8)
        assert credits[1] == 1.0  # paper rule: count within the window

    def test_zero_received_zero_credit(self):
        from repro.runtime.controller import busy_span_credits

        credits = busy_span_credits(np.array([3, 0]), np.array([3, 3]), np.array([0.3, 0.0]), 1.0, 6)
        assert credits[1] == 0.0

    def test_credit_capped_at_tiles(self):
        from repro.runtime.controller import busy_span_credits

        credits = busy_span_credits(np.array([4]), np.array([4]), np.array([1e-6]), 10.0, 8)
        assert credits[0] == 8.0


class TestLifecycleAndValidation:
    def test_infer_before_start_raises(self):
        cluster = ProcessCluster(small_model(), TileGrid(2, 2))
        with pytest.raises(RuntimeError):
            cluster.infer(np.zeros((1, 3, 24, 24), dtype=np.float32))

    def test_double_start_raises(self):
        cluster = ProcessCluster(small_model(), TileGrid(2, 2))
        try:
            cluster.start()
            with pytest.raises(RuntimeError):
                cluster.start()
        finally:
            cluster.stop()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProcessClusterConfig(num_workers=0)
        with pytest.raises(ValueError):
            ProcessClusterConfig(t_limit=0.0)
        with pytest.raises(ValueError):
            ProcessClusterConfig(num_workers=2, delay_per_tile=(0.1,))

    def test_tile_task_validation(self):
        block = np.zeros((1, 1, 2, 2))
        with pytest.raises(ValueError):
            BatchTask(-1, (0,), block)
        with pytest.raises(ValueError):
            BatchTask(0, (), block)  # an empty batch is not a message
        with pytest.raises(TypeError):
            BatchTask(0, (0,))  # a batch carries its tiles

    def test_unbatched_input_accepted(self):
        model = small_model()
        with ProcessCluster(model, TileGrid(2, 2), config=ProcessClusterConfig(num_workers=1)) as cluster:
            out = cluster.infer(RNG.normal(size=(3, 24, 24)).astype(np.float32))
        assert out.output.shape == (1, 3)


def _sweep(results, enqueued=None, accepted=()):
    """Feed ``results`` through an unstarted cluster's result sweep into one
    in-flight image whose ``accepted`` tiles already have results.

    Returns the recorder, the image state and every ``ResultReceived`` the
    sweep handed the controller."""
    from repro.runtime.controller import ResultReceived
    from repro.telemetry import TelemetryRecorder

    tel = TelemetryRecorder()
    cluster = ProcessCluster(small_model(), TileGrid(2, 2), telemetry=tel)
    _post(cluster, results)
    events = []
    handle = cluster._controller.handle

    def spy(event):
        if isinstance(event, ResultReceived):
            events.append(event)
        return handle(event)

    cluster._controller.handle = spy
    st = {
        "batches": [np.zeros(1)] if accepted else [],
        "results": {tid: (0, row) for row, tid in enumerate(accepted)},
        "busy": np.zeros(2),
        "enqueued": dict(enqueued or {}),
        "scope": None,
    }
    assert cluster._sweep_results({0: st}) is True
    cluster._channels.close()
    return tel, st, events


def _post(cluster, results):
    """Write ``results`` into worker 0's result pipe of an unstarted cluster,
    as its worker would, and close the worker-side ends."""
    worker = cluster._channels.open(0)
    for res in results:
        worker.send(res)
    worker.close()


class TestWorkerCoalescing:
    """The worker's one-forward-per-batch loop, driven directly: one forked
    ``_worker_loop`` on a fresh pair of pipes, without a cluster around it."""

    @staticmethod
    def _run_worker(model, tasks, pipeline=None, delay=0.0):
        import multiprocessing as mp
        import time

        from repro.runtime.messages import Shutdown
        from repro.runtime.process_backend import _worker_loop
        from repro.runtime.transport import CentralChannels

        channels = CentralChannels(1)
        worker = channels.open(0)
        proc = mp.get_context("fork").Process(
            target=_worker_loop,
            args=(0, model.separable_part(), pipeline, worker, delay),
            daemon=True,
        )
        proc.start()
        worker.close()
        for t in tasks:
            channels[0].send(t)
        channels[0].send(Shutdown())
        results = []
        deadline = time.monotonic() + 30
        while channels[0].result_fd >= 0 and time.monotonic() < deadline:  # until EOF
            channels.wait(1.0)
            results.extend(channels.receive())
        assert channels[0].result_fd < 0
        proc.join(timeout=5)
        channels.close()
        assert proc.exitcode == 0 and channels.wait_set() == []
        return results

    @staticmethod
    def _tiles():
        from repro.partition.geometry import split_array

        return split_array(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32), TileGrid(2, 2))

    @staticmethod
    def _batch(image_id, tile_ids, tiles):
        return BatchTask(image_id, tuple(tile_ids), np.concatenate([tiles[t] for t in tile_ids]))

    @staticmethod
    def _payloads(res):
        """Split one raw batch result into its tiles' rows, the way the
        Central node's merge does."""
        return np.split(res.payload, len(res.tile_ids))

    def test_coalesced_batch_matches_per_tile_reference(self):
        """One stacked forward over the batch == per-tile forwards, and the
        batch is answered by exactly one result message."""
        model = small_model()
        tiles = self._tiles()
        (res,) = self._run_worker(model, [self._batch(0, range(4), tiles)])
        assert res.tile_ids == (0, 1, 2, 3)
        sep = model.separable_part()
        sep.eval()
        with nn.no_grad():
            for out, tile in zip(self._payloads(res), tiles):
                np.testing.assert_array_equal(out, sep(Tensor(tile)).data)

    def test_batch_is_one_codec_stream(self):
        """With the pipeline on, the batch ships as one packed stream of the
        stacked output, and its rows decode to each tile's own round trip."""
        model, pipe = small_model(), CompressionPipeline(bits=4)
        tiles = self._tiles()
        (res,) = self._run_worker(model, [self._batch(0, range(4), tiles)], pipeline=pipe)
        assert res.payload.dtype == np.uint8
        _, st, _ = _sweep([res])  # Central parses the stream as it accepts it
        (packed,) = st["batches"]
        sep = model.separable_part()
        sep.eval()
        with nn.no_grad():
            outs = [sep(Tensor(tile)).data for tile in tiles]
        assert packed.shape == np.concatenate(outs).shape
        assert packed.raw_bits == 32 * np.concatenate(outs).size
        for got, out in zip(np.split(pipe.decompress(packed), 4), outs):
            np.testing.assert_array_equal(got, pipe.apply(out))

    def test_batch_spans_cover_the_batch_envelope(self):
        """One batch is traced as one span per stage, each carrying
        ``tiles=k``: conv_compute, compress and result_transfer run
        contiguously from the worker's ``t_start``, transfer ends there, the
        emulated delay scales with the batch size, and the busy time
        credited is the batch's measured envelope."""
        model = small_model()
        delay = 0.01
        (res,) = self._run_worker(model, [self._batch(0, range(4), self._tiles())], delay=delay)
        envelope = res.forward_seconds + res.compress_seconds
        assert envelope >= 4 * delay  # one sleep covering the whole batch
        assert res.compress_seconds > 0
        tel, st, _ = _sweep([res], enqueued={(0, 1, 2, 3): res.t_start - 0.002})
        kinds = ["transfer", "conv_compute", "compress", "result_transfer"]
        spans = tel.spans()
        assert [sp["kind"] for sp in spans] == kinds
        assert all(sp["tiles"] == 4 and "tile_id" not in sp for sp in spans)
        transfer, compute, compress, back = spans
        assert transfer["time"] + transfer["duration"] == pytest.approx(res.t_start, abs=1e-9)
        assert compute["time"] == res.t_start and compute["duration"] == res.forward_seconds
        for a, b in [(compute, compress), (compress, back)]:
            assert b["time"] == a["time"] + a["duration"]  # exact: contiguous
        assert compress["duration"] == res.compress_seconds
        assert st["busy"].tolist() == [envelope, 0.0]
        assert st["results"] == {tid: (0, tid) for tid in range(4)}

    def test_mixed_image_queue_order_preserved(self):
        """Batches are answered one for one in queue order, across images,
        and a batch never absorbs its neighbour's tiles."""
        model = small_model()
        tiles = self._tiles()
        tasks = [
            self._batch(0, (0, 1), tiles),
            self._batch(1, (2,), tiles),
            self._batch(1, (3,), tiles),
            self._batch(0, (2, 3), tiles),
        ]
        results = self._run_worker(model, tasks)
        assert [(r.image_id, r.tile_ids) for r in results] == [
            (0, (0, 1)), (1, (2,)), (1, (3,)), (0, (2, 3))
        ]
        sep = model.separable_part()
        sep.eval()
        with nn.no_grad():
            for res in results:
                for tile_id, out in zip(res.tile_ids, self._payloads(res)):
                    np.testing.assert_array_equal(out, sep(Tensor(tiles[tile_id])).data)

    def test_partial_duplicate_batch_credits_only_new_tiles(self):
        """A batch two of whose four tiles were already answered (the
        re-dispatch race) lands once, for its two new tiles: one
        ``ResultReceived(count=2)`` with half the batch's busy time."""
        from repro.runtime.messages import BatchResult

        res = BatchResult(0, (0, 1, 2, 3), np.zeros((4, 6, 6, 6), np.float32), worker=1,
                          t_start=5.0, forward_seconds=0.75, compress_seconds=0.25)
        _, st, events = _sweep([res, res], accepted=(1, 2))  # then a whole duplicate
        assert [(e.node, e.count, e.busy_seconds) for e in events] == [(1, 2, 0.5)]
        assert st["busy"].tolist() == [0.0, 0.5]
        assert st["results"] == {1: (0, 0), 2: (0, 1), 0: (1, 0), 3: (1, 3)}
        assert len(st["batches"]) == 2

    def test_sweep_counts_corrupt_results(self):
        """Result bytes that do not parse are counted per tile under their
        own metric, not silently left for T_L to explain."""
        from repro.runtime.messages import BatchResult
        from repro.telemetry import TelemetryRecorder

        tel = TelemetryRecorder()
        cluster = ProcessCluster(small_model(), TileGrid(2, 2), telemetry=tel)
        garbage = np.zeros(64, dtype=np.uint8)
        _post(cluster, [BatchResult(0, (0, 1), garbage, worker=0)])
        assert cluster._sweep_results({}) is True
        cluster._channels.close()
        assert tel.metrics.counter_total("adcnn_result_corrupt_total") == 2.0

