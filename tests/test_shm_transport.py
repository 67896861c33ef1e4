"""Tile transport tests: the slot arena, the worker pipes and the one
transport module.

Covers the slot lifecycle under faults: a worker killed mid-flight must not
leak task slots (every slot is free again once the stream ends), a run on a
host without shared memory (every message inline) must produce bit-identical
outputs to the slot path, and shutdown must not trip the multiprocessing
resource tracker's leaked-shared-memory warnings.  The pipes must never let
Central block on a worker: a send to a worker that is not reading returns at
once, and frames larger than the pipe buffer flow both ways with no hang.
"""

import multiprocessing as mp
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.compression import CompressionPipeline
from repro.models import vgg_mini
from repro.nn import Tensor, no_grad, try_compile
from repro.partition import TileGrid
from repro.partition.geometry import reassemble_array, split_array
from repro.runtime import (
    ArenaGrant,
    BatchResult,
    BatchTask,
    ProcessCluster,
    ProcessClusterConfig,
    ShmRef,
    SlotArena,
)
from repro.runtime.shm_arena import shm_available
from repro.runtime.shm_arena import attach_array, close_attachments, write_array
from repro.runtime.transport import RESULT_RING_SLOTS, CentralChannels, CentralEndpoint
from repro.telemetry import TelemetryRecorder

RNG = np.random.default_rng(47)

needs_shm = pytest.mark.skipif(not shm_available(), reason="POSIX shared memory unavailable")


def small_model():
    return vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()


def images(n):
    return [RNG.normal(size=(1, 3, 24, 24)).astype(np.float32) for _ in range(n)]


@needs_shm
class TestSlotArena:
    def test_acquire_release_cycle(self):
        arena = SlotArena(3, 64)
        try:
            assert arena.capacity == arena.available == 3
            slots = [arena.acquire() for _ in range(3)]
            assert arena.available == 0
            assert arena.acquire() is None  # exhausted -> caller goes inline
            for s in slots:
                arena.release(s)
            assert arena.available == 3
        finally:
            arena.destroy()

    def test_double_release_rejected(self):
        arena = SlotArena(1, 8)
        try:
            slot = arena.acquire()
            arena.release(slot)
            with pytest.raises(ValueError, match="twice"):
                arena.release(slot)
        finally:
            arena.destroy()

    def test_foreign_slot_rejected(self):
        a, b = SlotArena(1, 8), SlotArena(1, 8)
        try:
            with pytest.raises(ValueError, match="belong"):
                a.release(b.acquire())
        finally:
            a.destroy()
            b.destroy()

    def test_write_attach_roundtrip(self):
        arena = SlotArena(1, 1024)
        cache = {}
        try:
            slot = arena.acquire()
            assert arena.get(slot.name) is slot
            arr = RNG.standard_normal((4, 4, 4)).astype(np.float32)
            ref = write_array(slot, arr)
            assert isinstance(ref, ShmRef) and ref.shape == arr.shape
            view = attach_array(cache, ref)
            np.testing.assert_array_equal(view, arr)
            buf = RNG.integers(0, 256, size=100).astype(np.uint8)
            ref2 = write_array(slot, buf)
            assert ref2.nbytes == 100 and ref2.dtype == "uint8"
            np.testing.assert_array_equal(attach_array(cache, ref2), buf)
        finally:
            close_attachments(cache)
            arena.destroy()

    def test_oversized_write_rejected(self):
        arena = SlotArena(1, 16)
        try:
            slot = arena.acquire()
            with pytest.raises(ValueError, match="fit"):
                write_array(slot, np.zeros(100, dtype=np.float32))
        finally:
            arena.destroy()


def shm_segments():
    """Names of live ``SharedMemory`` segments (CPython's ``psm_`` prefix)."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@contextmanager
def central_endpoint(num_workers=2):
    # A context manager, not a fixture: the resource sanitizer audits
    # segments before fixture teardown runs.
    endpoint = CentralEndpoint(mp.get_context("fork"), num_workers)
    endpoint.probe()
    try:
        yield endpoint
    finally:
        endpoint.close()


def granted_worker(central, worker_id, slot_nbytes):
    """A worker endpoint holding a freshly granted result ring."""
    worker = central.worker_endpoint(worker_id)
    grant = central.grant_ring(worker_id, slot_nbytes)
    worker.accept(grant)
    return worker, grant


@needs_shm
class TestEndpoints:
    """The transport module's two endpoints, driven without a cluster."""

    def test_task_slot_kept_across_redispatch_and_released_by_key(self):
        with central_endpoint() as central:
            tiles = [RNG.standard_normal((1, 3, 4, 4)).astype(np.float32) for _ in range(4)]
            central.size_task_arena(tiles, window=2)
            assert central.task_slots_free == (2, 2)  # max(2, window) image-sized slots
            first = central.task(7, (0, 1), tiles)
            again = central.task(7, (1, 3), tiles, probe=True)  # re-dispatch: same slot
            other = central.task(8, (0, 1, 2, 3), tiles)
            assert first.block is None and first.slot == again.slot and again.probe
            assert other.slot.name != first.slot.name
            assert central.task_slots_free == (0, 2)
            worker = central.worker_endpoint(0)
            try:
                block = worker.read(first)
                np.testing.assert_array_equal(block, np.concatenate(tiles[:2]))
                assert block.base is not None  # contiguous rows: a view of the slot
                np.testing.assert_array_equal(  # gathered rows of a re-dispatched subset
                    worker.read(again), np.concatenate([tiles[1], tiles[3]])
                )
            finally:
                worker.close()
            central.release_task(7)  # image 7 finalized
            assert central.task_slots_free == (1, 2)
            central.release_task(7)  # already freed: a no-op
            central.release_task(8)
            assert central.task_slots_free == (2, 2)

    def test_task_goes_inline_when_arena_is_full_or_tile_too_big(self):
        with central_endpoint() as central:
            tiles = [np.full((1, 1, 2, 2), t, dtype=np.float32) for t in range(2)]
            central.size_task_arena(tiles, window=1)  # two slots
            assert all(central.task(image, (0, 1), tiles).slot is not None for image in (0, 1))
            overflow = central.task(2, (1,), tiles)
            assert overflow.slot is None
            np.testing.assert_array_equal(overflow.block, tiles[1])
            big = central.task(3, (0,), [np.ones((1, 1, 8, 8), dtype=np.float32)])
            assert big.slot is None and big.block is not None
            assert central.task_slots_free == (0, 2)

    def test_result_ring_roundtrip_returns_the_permit(self):
        with central_endpoint() as central:
            worker, grant = granted_worker(central, 1, 4096)
            assert not central.needs_ring(1)
            assert isinstance(grant, ArenaGrant) and set(grant.slot_names) <= shm_segments()
            block = RNG.standard_normal((3, 4, 6, 6)).astype(np.float32)
            packed = CompressionPipeline(bits=4).compress_packed(block)
            try:
                for result in (packed.packed.buffer, block):
                    # More rounds than slots: every materialize hands the permit back.
                    for _ in range(RESULT_RING_SLOTS + 2):
                        ref, ring_fallback = worker.stage_result(result)
                        assert isinstance(ref, ShmRef) and not ring_fallback
                        got = central.materialize(BatchResult(0, (0, 1, 2), ref, worker=1))
                        if result is block:
                            np.testing.assert_array_equal(got, block)
                        else:
                            assert got.raw_bits == packed.raw_bits and got.shape == block.shape
                            np.testing.assert_array_equal(got.packed.buffer, packed.packed.buffer)
            finally:
                worker.close()

    def test_batch_slot_holds_the_batch_stream_verbatim(self):
        """A batch slot holds exactly the bytes ``compress_packed`` produces
        for the batch's stacked block (one wire-format-v1 stream)."""
        with central_endpoint() as central:
            worker, _ = granted_worker(central, 0, 4096)
            block = RNG.standard_normal((3, 4, 6, 6)).astype(np.float32)
            packed = CompressionPipeline(bits=4).compress_packed(block)
            cache = {}
            try:
                ref, _ = worker.stage_result(packed.packed.buffer)
                slot_bytes = attach_array(cache, ref)
                assert slot_bytes.dtype == np.uint8
                np.testing.assert_array_equal(slot_bytes, packed.packed.buffer)
            finally:
                close_attachments(cache)
                worker.close()

    def test_corrupt_result_bytes_raise_after_returning_the_permit(self):
        with central_endpoint() as central:
            worker, _ = granted_worker(central, 0, 4096)
            stream = CompressionPipeline(bits=4).compress_packed(np.ones((1, 2, 3, 3), np.float32))
            truncated = stream.packed.buffer[:-1]  # the header promises one more byte
            try:
                for _ in range(RESULT_RING_SLOTS + 1):  # a leaked permit would exhaust the ring
                    ref, ring_fallback = worker.stage_result(truncated)
                    assert isinstance(ref, ShmRef) and not ring_fallback
                    with pytest.raises(ValueError):
                        central.materialize(BatchResult(0, (0,), ref, worker=0))
            finally:
                worker.close()

    def test_stale_incarnation_descriptor_is_dropped(self):
        """A descriptor from a replaced worker's ring materializes to None
        and must not release a permit on the successor's semaphore."""
        with central_endpoint() as central:
            block = np.ones(8, dtype=np.float32)
            old, _ = granted_worker(central, 0, 1024)
            stale = BatchResult(0, (0,), old.stage_result(block)[0], worker=0)
            old.close()
            new = central.worker_endpoint(0)  # respawn: fresh semaphore, no ring yet
            assert central.needs_ring(0) and stale.payload.name not in shm_segments()
            assert central.materialize(stale) is None
            new.accept(central.grant_ring(0, 1024))
            assert central.materialize(stale) is None
            try:
                staged = [new.stage_result(block) for _ in range(RESULT_RING_SLOTS + 1)]
            finally:
                new.close()
            # Exactly RESULT_RING_SLOTS permits: the stale results added none.
            assert [fallback for *_, fallback in staged] == [False] * RESULT_RING_SLOTS + [True]

    def test_unlinked_task_slot_reads_as_none(self):
        with central_endpoint() as central:
            tile = np.ones((1, 1, 2, 2), dtype=np.float32)
            central.size_task_arena([tile], window=1)
            task = central.task(0, (0,), [tile])
            worker = central.worker_endpoint(0)
            central.close()  # shutdown race: segments unlinked before the read
            assert worker.read(task) is None

    def test_without_shared_memory_everything_is_inline(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.transport.shm_available", lambda: False)
        central = CentralEndpoint(mp.get_context("fork"), num_workers=1)
        central.probe()
        before = shm_segments()
        tile = np.ones((1, 1, 2, 2), dtype=np.float32)
        central.size_task_arena([tile], window=2)
        task = central.task(0, (0,), [tile])
        worker = central.worker_endpoint(0)
        payload, ring_fallback = worker.stage_result(tile)
        assert central.label == "pickle" and not central.needs_ring(0)
        assert task.slot is None and payload is tile and not ring_fallback
        assert central.task_slots_free == (0, 0) and shm_segments() == before
        central.close()


@needs_shm
class TestTransportEquivalence:
    def test_shm_bit_identical_to_pickle(self, monkeypatch):
        """Acceptance: with no knob anywhere, a host whose shared-memory
        probe fails runs the same code all-inline — labelled "pickle",
        zero segments created — and is bit-identical to the slot path, with
        and without the compression pipeline."""
        model = small_model()
        imgs = images(3)
        for pipeline in (CompressionPipeline(bits=4), None):
            outs = {}
            for label in ("shm", "pickle"):
                with monkeypatch.context() as patch:
                    if label == "pickle":
                        patch.setattr("repro.runtime.transport.shm_available", lambda: False)
                    before = shm_segments()
                    with ProcessCluster(
                        model, TileGrid(2, 2), pipeline, ProcessClusterConfig(num_workers=2)
                    ) as cluster:
                        assert cluster.transport == cluster.health().transport == label
                        outs[label] = cluster.infer_stream(imgs, pipeline_depth=2)
                        created = shm_segments() - before
                    assert bool(created) == (label == "shm")
            for a, b in zip(outs["shm"], outs["pickle"]):
                np.testing.assert_array_equal(a.output, b.output)
                assert a.zero_filled_tiles == b.zero_filled_tiles == []

    def test_task_slots_recycled_across_stream(self):
        """Every task slot returns to the free list once the stream ends."""
        cfg = ProcessClusterConfig(num_workers=2)
        with ProcessCluster(small_model(), TileGrid(2, 2), None, cfg) as cluster:
            cluster.infer_stream(images(4), pipeline_depth=2)
            free, total = cluster._endpoint.task_slots_free
            assert free == total > 0

    def test_one_task_and_one_result_message_per_batch(self, monkeypatch):
        """The controller's batch is the wire unit: every SendBatch to a worker
        sends exactly one task frame, answered by exactly one result frame
        — counted on each worker's channel."""
        from repro.runtime.controller import SendBatch

        class Counting:
            """Records every frame one worker's channel sends and receives."""

            def __init__(self, channel):
                self.put_msgs, self.got_msgs = [], []
                send, receive = channel.send, channel.receive

                def counted_send(msg):
                    self.put_msgs.append(msg)
                    send(msg)

                def counted_receive():
                    msgs = receive()
                    self.got_msgs.extend(msgs)
                    return msgs

                channel.send, channel.receive = counted_send, counted_receive

        cfg = ProcessClusterConfig(num_workers=2)
        with ProcessCluster(small_model(), TileGrid(2, 2), CompressionPipeline(bits=4), cfg) as cluster:
            cluster.infer(images(1)[0])  # the ring grants ride the first image's batches
            counted = [Counting(cluster._channels[wid]) for wid in range(2)]
            batches = []
            handle = cluster._controller.handle

            def spy(event):
                cmds = handle(event)
                batches.extend(c for c in cmds if isinstance(c, SendBatch))
                return cmds

            monkeypatch.setattr(cluster._controller, "handle", spy)
            outcomes = cluster.infer_stream(images(5), pipeline_depth=2)
            assert all(o.zero_filled_tiles == [] for o in outcomes)
            assert sum(b.count for b in batches) == 5 * 4
            for wid in range(2):
                mine = [(b.image_id, b.count) for b in batches if b.node == wid]
                assert [(m.image_id, len(m.tile_ids)) for m in counted[wid].put_msgs] == mine
                assert [(m.image_id, len(m.tile_ids)) for m in counted[wid].got_msgs] == mine

    def test_no_ring_fallback_on_the_steady_compute_shape(self):
        """96x96 / 4x4 / 2 workers / window 2 (the ledger's steady_compute):
        at most ``window`` batches per worker are outstanding, so the
        4-slot ring never overflows and no batch ships inline."""
        model = vgg_mini(num_classes=3, input_size=96, base_width=12, separable_prefix=4).eval()
        imgs = [RNG.normal(size=(1, 3, 96, 96)).astype(np.float32) for _ in range(12)]
        tel = TelemetryRecorder()
        cfg = ProcessClusterConfig(num_workers=2)
        with ProcessCluster(
            model, TileGrid(4, 4), CompressionPipeline(bits=4), cfg, telemetry=tel
        ) as cluster:
            outcomes = cluster.infer_stream(imgs, pipeline_depth=2)
            assert cluster._endpoint.task_slots_free == (2, 2)
        assert all(o.zero_filled_tiles == [] for o in outcomes)
        assert tel.metrics.counter_total("adcnn_result_ring_fallback_total") == 0
        # One conv_compute span per batch — one batch per (image, worker)
        # here — carrying its exact tile count; the counts cover every tile.
        spans = tel.spans("conv_compute")
        assert len({(sp["image_id"], sp["node"]) for sp in spans}) == len(spans)
        assert sum(sp["tiles"] for sp in spans) == 12 * 16

    def test_telemetry_wire_bits_measured(self):
        """Down-direction wire bits equal the sum of actual packed buffer
        lengths (8 * nbytes), not the token-stream accounting."""
        tel = TelemetryRecorder()
        pipe = CompressionPipeline(bits=4)
        cfg = ProcessClusterConfig(num_workers=2)
        x = images(1)[0]
        with ProcessCluster(small_model(), TileGrid(2, 2), pipe, cfg, telemetry=tel) as cluster:
            res = cluster.infer(x)
        total = tel.metrics.counter_value("adcnn_bits_wire_total", direction="down")
        raw = tel.metrics.counter_value("adcnn_bits_raw_total", direction="down")
        assert total > 0, "no down-direction wire bits recorded"
        # Measured packed buffers are byte-aligned (8 * nbytes each).
        assert total % 8 == 0
        assert total < raw  # compressed, but real nonzero bytes
        assert res.zero_filled_tiles == []

    def test_down_wire_bytes_are_the_batch_streams(self):
        """On the steady_compute shape (96x96 / 4x4 / 2 workers) each image's
        down-wire bytes are exactly its batch buffers' lengths, and one
        stream per batch saves at least one 40-byte header per extra tile
        against encoding every tile on its own."""
        model = vgg_mini(num_classes=3, input_size=96, base_width=12, separable_prefix=4).eval()
        grid, pipe, tel = TileGrid(4, 4), CompressionPipeline(bits=4), TelemetryRecorder()
        fused = try_compile(model.separable_part())
        header = 24 + 4 * 4  # fixed header + a 4-D shape
        with ProcessCluster(
            model, grid, pipe, ProcessClusterConfig(num_workers=2), telemetry=tel
        ) as cluster:
            streams = []
            materialize = cluster._endpoint.materialize

            def spy(res):
                payload = materialize(res)
                streams.append(payload)
                return payload

            cluster._endpoint.materialize = spy
            for _ in range(3):
                x = RNG.normal(size=(1, 3, 96, 96)).astype(np.float32)
                streams.clear()
                before = tel.metrics.counter_value("adcnn_bits_wire_total", direction="down")
                outcome = cluster.infer(x)
                wire_bytes = (tel.metrics.counter_value("adcnn_bits_wire_total", direction="down")
                              - before) / 8
                tiles = split_array(x, grid)
                per_tile = sum(pipe.compress_packed(fused(t)).packed.nbytes for t in tiles)
                assert outcome.zero_filled_tiles == []
                assert len(streams) == np.count_nonzero(outcome.allocation)  # one per batch
                assert wire_bytes == sum(p.packed.nbytes for p in streams)
                assert wire_bytes <= per_tile - (len(tiles) - len(streams)) * header


@needs_shm
class TestFaultIntegration:
    def test_kill_mid_flight_reclaims_slots(self):
        """Acceptance: a worker killed mid-flight -> its tiles re-dispatch
        over shm descriptors, output stays bit-identical, and every slot
        is back on the free list afterwards."""
        model = small_model()
        imgs = images(3)
        cfg = ProcessClusterConfig(
            num_workers=2, t_limit=30.0, delay_per_tile=(0.0, 0.15)
        )
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            healthy = cluster.infer_stream(imgs, pipeline_depth=2)
        with ProcessCluster(model, TileGrid(2, 2), config=cfg) as cluster:
            killer = threading.Timer(0.25, cluster.kill_worker, args=(1,))
            killer.start()
            try:
                outcomes = cluster.infer_stream(imgs, pipeline_depth=2)
            finally:
                killer.cancel()
            assert cluster._endpoint.task_slots_free == (2, 2)  # capacity, after re-dispatch
        for h, o in zip(healthy, outcomes):
            assert o.zero_filled_tiles == []
            np.testing.assert_array_equal(o.output, h.output)

    def test_restart_gets_fresh_result_ring(self):
        """A respawned worker's old result ring is destroyed and a new
        grant issued; the stream still completes with no zero-fill."""
        model = small_model()
        cfg = ProcessClusterConfig(
            num_workers=2,
            t_limit=10.0,
            gamma=1.0,
            max_restarts=1,
            restart_backoff=0.1,
            probe_interval=1,
        )
        with ProcessCluster(model, TileGrid(2, 2), CompressionPipeline(bits=4), cfg) as cluster:
            cluster.infer(images(1)[0])
            before = shm_segments()
            cluster.kill_worker(1)
            cluster.infer(images(1)[0])
            import time as _time

            _time.sleep(0.15)
            last = None
            for _ in range(3):
                last = cluster.infer(images(1)[0])
            assert cluster.restart_counts == [0, 1]
            assert last.zero_filled_tiles == []
            after = shm_segments()
            assert len(before - after) == RESULT_RING_SLOTS  # old ring unlinked
            assert len(after - before) == RESULT_RING_SLOTS  # fresh ring granted

    def test_all_workers_dead_still_degrades_locally(self):
        """Central-local fallback produces the one wire format too: one
        packed stream for its stacked batch, decoded by the same merge,
        counted as measured wire bits."""
        tel = TelemetryRecorder()
        pipe = CompressionPipeline(bits=4)
        model, x = small_model(), images(1)[0]
        cfg = ProcessClusterConfig(num_workers=2)
        with ProcessCluster(model, TileGrid(2, 2), pipe, cfg) as cluster:
            healthy = cluster.infer(x)
        with ProcessCluster(model, TileGrid(2, 2), pipe, cfg, telemetry=tel) as cluster:
            cluster.kill_worker(0)
            cluster.kill_worker(1)
            out = cluster.infer(x)
        assert out.zero_filled_tiles == []
        assert out.locally_computed_tiles == [0, 1, 2, 3]
        np.testing.assert_array_equal(out.output, healthy.output)
        separable = model.separable_part()
        with no_grad():  # the controller sends all four tiles as one local batch
            stacked = separable(Tensor(np.concatenate(split_array(x, TileGrid(2, 2))))).data
        expected = pipe.compress_packed(stacked).wire_bits
        assert tel.metrics.counter_value("adcnn_bits_wire_total", direction="down") == expected


def finishes(fn, timeout):
    """Run ``fn`` on a daemon thread; its result, or fail when it hangs."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still blocked after {timeout} s"
    return out[0]


#: A Linux pipe's default buffer: frames above it cannot fit in one write.
PIPE_BUFFER = 1 << 16


class TestChannels:
    """The worker pipes, driven without a cluster."""

    def test_send_to_a_worker_not_reading_returns_at_once(self):
        """Central's writer never blocks: frames the pipe cannot take wait in
        the outbox and reach the worker intact and in order once it reads."""
        channels = CentralChannels(1)
        worker = channels.open(0)
        blocks = [RNG.standard_normal((4, 3, 64, 64)).astype(np.float32) for _ in range(5)]
        assert blocks[0].nbytes > PIPE_BUFFER
        try:
            for i, block in enumerate(blocks):  # nobody reads yet
                finishes(lambda i=i, block=block: channels[0].send(BatchTask(i, (0, 1, 2, 3), block)), 5.0)
            assert channels[0]._outbox  # the pipe took 64 KB; the rest waits
            got = []
            reader = threading.Thread(target=lambda: got.extend(worker.recv() for _ in blocks), daemon=True)
            reader.start()
            deadline = time.monotonic() + 10.0
            while reader.is_alive() and time.monotonic() < deadline:
                channels.wait(0.1)
                assert channels.receive() == []  # flushes the outbox as the pipe drains
            assert not reader.is_alive() and not channels[0]._outbox
            assert [t.image_id for t in got] == list(range(len(blocks)))
            for task, block in zip(got, blocks):
                np.testing.assert_array_equal(task.block, block)
        finally:
            worker.close()
            channels.close()

    def test_worker_death_reads_as_eof_and_epipe(self):
        """Each pipe end lives in one process: once the worker side closes,
        Central's read sees EOF (the fd leaves the poll set) and its next
        write sees EPIPE — neither raises nor blocks."""
        channels = CentralChannels(1)
        worker = channels.open(0)
        worker.send(BatchResult(0, (0,), np.ones(4, dtype=np.float32), worker=0))
        worker.close()
        try:
            (res,) = channels.receive()
            assert res.tile_ids == (0,)
            assert channels.receive() == [] and channels.readers() == []  # EOF
            channels[0].send(BatchTask(0, (0,), np.ones((1, 1, 2, 2), dtype=np.float32)))
            assert channels[0].task_fd == -1 and not channels[0]._outbox
        finally:
            channels.close()


def pipe_ends(pid, inodes):
    """How many of process ``pid``'s fds refer to each pipe in ``inodes``."""
    counts = dict.fromkeys(inodes, 0)
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            link = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # closed while listing
        if link.startswith("pipe:[") and int(link[6:-1]) in counts:
            counts[int(link[6:-1])] += 1
    return counts


def test_each_pipe_end_lives_in_one_process():
    """Central holds exactly its two ends per worker and each worker exactly
    its own two — no worker keeps another's (or its own Central-side) end,
    across a respawn too — so a worker's death is EOF/EPIPE at Central."""
    cfg = ProcessClusterConfig(num_workers=2, max_restarts=1, restart_backoff=0.0, probe_interval=1)
    with ProcessCluster(small_model(), TileGrid(2, 2), None, cfg) as cluster:
        cluster.infer(images(1)[0])  # both workers are running their loops
        for respawned in (False, True):
            if respawned:
                cluster.kill_worker(0)
                for img in images(20):  # until the successor has served a tile
                    if cluster.infer(img).received_per_worker[0] and cluster.restart_counts[0]:
                        break
                assert cluster.restart_counts == [1, 0]
            chans = [cluster._channels[wid] for wid in range(2)]
            ends = [(os.fstat(c.task_fd).st_ino, os.fstat(c.result_fd).st_ino) for c in chans]
            inodes = [ino for pair in ends for ino in pair]
            assert set(pipe_ends(os.getpid(), inodes).values()) == {1}
            for wid, proc in enumerate(cluster._procs):
                want = dict.fromkeys(inodes, 0) | dict.fromkeys(ends[wid], 1)
                assert pipe_ends(proc.pid, inodes) == want


class TestLargeFramesWithoutShm:
    def test_window_three_slow_worker_no_hang_bit_identical(self, monkeypatch):
        """The case the feeder thread once covered: no shared memory, no
        codec, and task and result frames both larger than the pipe buffer,
        three images in flight and one slow worker.  Central must neither
        block on a full task pipe nor starve a worker blocked writing its
        result, and every image must match the in-process reference."""
        monkeypatch.setattr("repro.runtime.transport.shm_available", lambda: False)
        model = vgg_mini(num_classes=3, input_size=128, base_width=8, separable_prefix=4).eval()
        grid = TileGrid(2, 2)
        imgs = [RNG.normal(size=(1, 3, 128, 128)).astype(np.float32) for _ in range(6)]
        fused, rest = try_compile(model.separable_part()), try_compile(model.rest_part())
        expected = [
            rest(reassemble_array(np.split(fused(np.concatenate(split_array(x, grid))), 4), grid))
            for x in imgs
        ]
        tile = split_array(imgs[0], grid)[0]
        assert 2 * tile.nbytes > PIPE_BUFFER and 2 * fused(tile).nbytes > PIPE_BUFFER
        cfg = ProcessClusterConfig(num_workers=2, t_limit=60.0, delay_per_tile=(0.0, 0.02))
        with ProcessCluster(model, grid, None, cfg) as cluster:
            assert cluster.transport == "pickle"
            outcomes = finishes(lambda: cluster.infer_stream(imgs, pipeline_depth=3), 120.0)
        assert max(max(o.allocation) for o in outcomes) >= 2  # multi-tile batches crossed
        for outcome, want in zip(outcomes, expected):
            assert outcome.zero_filled_tiles == [] and outcome.locally_computed_tiles == []
            np.testing.assert_array_equal(outcome.output, want)


@needs_shm
class TestShutdownHygiene:
    def test_no_leaked_shared_memory_warnings(self):
        """Run a full infer + kill + stop cycle in a subprocess and assert
        the resource tracker prints no leaked_shared_memory warnings."""
        code = """
import numpy as np
from repro.compression import CompressionPipeline
from repro.models import vgg_mini
from repro.partition import TileGrid
from repro.runtime import ProcessCluster, ProcessClusterConfig

model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()
rng = np.random.default_rng(0)
imgs = [rng.normal(size=(1, 3, 24, 24)).astype(np.float32) for _ in range(2)]
cfg = ProcessClusterConfig(num_workers=2, delay_per_tile=(0.0, 0.1), t_limit=30.0)
with ProcessCluster(model, TileGrid(2, 2), CompressionPipeline(bits=4), cfg) as cluster:
    import threading
    threading.Timer(0.2, cluster.kill_worker, args=(1,)).start()
    cluster.infer_stream(imgs, pipeline_depth=2)
print("OK")
"""
        repo_root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
            cwd=repo_root,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
