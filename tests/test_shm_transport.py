"""Tile transport tests: the worker pipes, the one path every batch takes.

Every batch rides its own pickled frame on the worker's pipes; nothing
goes through shared memory.  A cluster that starts, streams, respawns a
worker and stops leaves no ``/dev/shm`` entry.  Each pipe is sized to hold
its largest frame, and outputs stay bit-identical when the kernel refuses
the size.  The pipes must never let Central block on a worker: a send to a
worker that is not reading returns at once, and frames larger than the pipe
buffer flow both ways with no hang.  A worker killed mid-flight costs
nothing but re-dispatch, and shutdown trips no resource-tracker warning.
"""

import fcntl
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.compression import CompressionPipeline
from repro.models import vgg_mini
from repro.nn import Tensor, no_grad, try_compile
from repro.partition import TileGrid
from repro.partition.geometry import reassemble_array, split_array
from repro.runtime import BatchResult, BatchTask, ProcessCluster, ProcessClusterConfig
from repro.runtime.transport import CentralChannels, _frame
from repro.telemetry import TelemetryRecorder

RNG = np.random.default_rng(47)

#: A Linux pipe's default buffer: frames above it cannot fit in one write.
PIPE_BUFFER = 1 << 16


def small_model():
    return vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()


def images(n):
    return [RNG.normal(size=(1, 3, 24, 24)).astype(np.float32) for _ in range(n)]


def large_model():
    """128x128 input: a 2x2 tile is 48 KB, so a two-tile batch, and its raw
    result, outgrow a default pipe."""
    return vgg_mini(num_classes=3, input_size=128, base_width=8, separable_prefix=4).eval()


def large_images(n):
    return [RNG.normal(size=(1, 3, 128, 128)).astype(np.float32) for _ in range(n)]


def reference_outputs(model, grid, imgs):
    """The in-process reference: one stacked forward per image, then the rest."""
    fused, rest = try_compile(model.separable_part()), try_compile(model.rest_part())
    out = []
    for x in imgs:
        tiles = split_array(x, grid)
        out.append(rest(reassemble_array(np.split(fused(np.concatenate(tiles)), len(tiles)), grid)))
    return out


def dev_shm_entries():
    """Every ``/dev/shm`` entry: shared-memory segments and ``sem.*`` semaphores."""
    return set(os.listdir("/dev/shm"))


class TestOnePath:
    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="host has no /dev/shm")
    def test_cluster_lifecycle_creates_no_dev_shm_entry(self):
        """Start, stream, kill and respawn a worker, stop: on a host that has
        /dev/shm, no step creates a segment or a named semaphore."""
        before = dev_shm_entries()
        cfg = ProcessClusterConfig(num_workers=2, max_restarts=1, restart_backoff=0.0,
                                   probe_interval=1)
        with ProcessCluster(small_model(), TileGrid(2, 2), CompressionPipeline(bits=4), cfg) as cluster:
            assert cluster.transport == cluster.health().transport == "pipe"
            assert dev_shm_entries() == before
            outcomes = cluster.infer_stream(images(4), pipeline_depth=2)
            assert all(o.zero_filled_tiles == [] for o in outcomes)
            assert dev_shm_entries() == before
            cluster.kill_worker(1)
            for img in images(20):  # until the successor has served a tile
                if cluster.infer(img).received_per_worker[1] and cluster.restart_counts[1]:
                    break
            assert cluster.restart_counts == [0, 1]
            assert dev_shm_entries() == before
        assert dev_shm_entries() == before

    def test_task_pipe_holds_one_image_frame(self):
        """After start, a large model's task pipe holds one image's whole
        task frame, and its result pipe the worst-case batch result."""
        model, grid = large_model(), TileGrid(2, 2)
        tiles = split_array(large_images(1)[0], grid)
        task = _frame(BatchTask(0, tuple(range(len(tiles))), np.concatenate(tiles)))
        assert len(task) > PIPE_BUFFER
        fused = try_compile(model.separable_part())
        result = _frame(BatchResult(0, tuple(range(len(tiles))),
                                    fused(np.concatenate(tiles)), worker=0))
        with ProcessCluster(model, grid, None, ProcessClusterConfig(num_workers=2)) as cluster:
            for wid in range(2):
                channel = cluster._channels[wid]
                assert fcntl.fcntl(channel.task_fd, fcntl.F_GETPIPE_SZ) >= len(task)
                assert fcntl.fcntl(channel.result_fd, fcntl.F_GETPIPE_SZ) >= len(result)

    def test_refused_pipe_size_is_still_bit_identical(self, monkeypatch):
        """A kernel that refuses ``F_SETPIPE_SZ`` leaves default pipes; frames
        then cross in pieces and every image still matches the reference."""
        real = fcntl.fcntl

        def refusing(fd, cmd, *args):
            if cmd == fcntl.F_SETPIPE_SZ:
                raise PermissionError("pipe size refused")
            return real(fd, cmd, *args)

        monkeypatch.setattr(fcntl, "fcntl", refusing)
        model, grid = large_model(), TileGrid(2, 2)
        imgs = large_images(6)
        expected = reference_outputs(model, grid, imgs)
        with ProcessCluster(model, grid, None, ProcessClusterConfig(num_workers=2)) as cluster:
            assert real(cluster._channels[0].task_fd, fcntl.F_GETPIPE_SZ) == PIPE_BUFFER
            outcomes = cluster.infer_stream(imgs, pipeline_depth=2)
        for outcome, want in zip(outcomes, expected):
            assert outcome.zero_filled_tiles == []
            np.testing.assert_array_equal(outcome.output, want)


class TestTransportEquivalence:
    def test_task_slots_recycled_across_stream(self):
        """Every pipelining-window slot is free again once the stream ends,
        and no task frame is left waiting in an outbox."""
        cfg = ProcessClusterConfig(num_workers=2)
        with ProcessCluster(small_model(), TileGrid(2, 2), None, cfg) as cluster:
            cluster.infer_stream(images(4), pipeline_depth=2)
            assert cluster._controller.in_flight == 0 and cluster._controller.can_dispatch
            assert not any(cluster._channels[wid].has_outbox for wid in range(2))

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
            cluster.infer(images(1)[0])
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
        down-wire bytes are exactly its batch buffers' lengths, one stream
        per batch saves at least one 40-byte header per extra tile against
        encoding every tile on its own, and each batch is traced once."""
        model = vgg_mini(num_classes=3, input_size=96, base_width=12, separable_prefix=4).eval()
        grid, pipe, tel = TileGrid(4, 4), CompressionPipeline(bits=4), TelemetryRecorder()
        fused = try_compile(model.separable_part())
        header = 24 + 4 * 4  # fixed header + a 4-D shape
        with ProcessCluster(
            model, grid, pipe, ProcessClusterConfig(num_workers=2), telemetry=tel
        ) as cluster:
            streams = []
            receive = cluster._channels.receive

            def spy():
                results = receive()
                streams.extend(res.payload for res in results)
                return results

            cluster._channels.receive = spy
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
                assert wire_bytes == sum(p.nbytes for p in streams)
                assert wire_bytes <= per_tile - (len(tiles) - len(streams)) * header
        # One conv_compute span per batch — one batch per (image, worker)
        # here — carrying its exact tile count; the counts cover every tile.
        spans = tel.spans("conv_compute")
        assert len({(sp["image_id"], sp["node"]) for sp in spans}) == len(spans)
        assert sum(sp["tiles"] for sp in spans) == 3 * 16


class TestFaultIntegration:
    def test_kill_mid_flight_reclaims_slots(self):
        """Acceptance: a worker killed mid-flight -> its tiles re-dispatch
        in fresh task frames, output stays bit-identical, and every
        pipelining-window slot is free again afterwards."""
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
            # Capacity, after re-dispatch: no image is left holding the window.
            assert cluster._controller.in_flight == 0 and cluster._controller.can_dispatch
        for h, o in zip(healthy, outcomes):
            assert o.zero_filled_tiles == []
            np.testing.assert_array_equal(o.output, h.output)

    def test_restart_gets_fresh_pipes(self):
        """A respawned worker gets new pipes, sized like the first ones; the
        stream still completes with no zero-fill."""
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
            old = cluster._channels[1]
            sizes = [fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) for fd in (old.task_fd, old.result_fd)]
            cluster.kill_worker(1)
            cluster.infer(images(1)[0])
            time.sleep(0.15)
            last = None
            for _ in range(3):
                last = cluster.infer(images(1)[0])
            assert cluster.restart_counts == [0, 1]
            assert last.zero_filled_tiles == []
            new = cluster._channels[1]
            assert new is not old and old.task_fd == old.result_fd == -1  # old pipes closed
            assert [fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) for fd in (new.task_fd, new.result_fd)] == sizes

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
            assert channels.receive() == [] and channels.wait_set() == []  # EOF
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


class TestLargeFrames:
    def test_window_three_slow_worker_no_hang_bit_identical(self):
        """No codec, and task and result frames both larger than a default
        pipe buffer, three images in flight and one slow worker.  Central
        must neither block on a full task pipe nor starve a worker blocked
        writing its result, and every image must match the in-process
        reference."""
        model, grid = large_model(), TileGrid(2, 2)
        imgs = large_images(6)
        expected = reference_outputs(model, grid, imgs)
        fused = try_compile(model.separable_part())
        tile = split_array(imgs[0], grid)[0]
        assert 2 * tile.nbytes > PIPE_BUFFER and 2 * fused(tile).nbytes > PIPE_BUFFER
        cfg = ProcessClusterConfig(num_workers=2, t_limit=60.0, delay_per_tile=(0.0, 0.02))
        with ProcessCluster(model, grid, None, cfg) as cluster:
            assert cluster.transport == "pipe"
            outcomes = finishes(lambda: cluster.infer_stream(imgs, pipeline_depth=3), 120.0)
        assert max(max(o.allocation) for o in outcomes) >= 2  # multi-tile batches crossed
        for outcome, want in zip(outcomes, expected):
            assert outcome.zero_filled_tiles == [] and outcome.locally_computed_tiles == []
            np.testing.assert_array_equal(outcome.output, want)


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
