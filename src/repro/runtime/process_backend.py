"""Process-emulated edge cluster: Conv nodes as OS processes (DESIGN.md §2).

This backend runs the *actual* computation end-to-end: worker processes hold
the separable-block weights, receive real tile arrays over OS pipes, run
the NumPy forward pass, compress with the §4 pipeline, and stream results
back; the central process allocates tiles with Algorithms 2/3 against
wall-clock statistics, enforces the ``T_L`` deadline with zero-fill, and
finishes the rest layers.  It validates the protocol (IDs, stragglers, node
death, load re-balancing) on real data — the DES backend covers timing.

Every scheduling decision (allocation, probes, deadline arming, trigger,
rate credits, re-dispatch planning) is made by the shared
:class:`~repro.runtime.controller.CentralController` (DESIGN.md §5f); this
module is the *driver* that feeds it wall-clock events and translates its
commands into pipe frames, local compute, and telemetry.

Workers are forked, so the separable module is inherited, not pickled.
An optional per-worker ``delay_per_tile`` emulates slow/throttled devices.

Fault tolerance (beyond the paper's zero-fill-only story):

- **Supervision** — ``proc.is_alive()`` is checked in the collect loops; a
  dead worker is detected within ``poll_interval`` seconds.
- **Fault isolation** — every worker has its own task and result pipe,
  and each pipe end lives in one process, so a worker's death closes its
  pipes: Central's next write sees ``EPIPE``, its next read EOF.  A frame
  the worker left half-written is dropped with its pipe — Central reads only
  ready fds and never waits on a partial frame — and no lock exists that a
  killed process could leave held.
- **Re-dispatch** — every tile a dead worker owned but never answered is
  re-queued onto surviving workers before the ``T_L`` deadline, from the
  Central node's assignment map (never pipe contents); with no survivors
  the central process computes the tiles itself.  A restarted worker gets
  fresh pipes, so it never replays stale work.
- **Restart policy** — optionally (``max_restarts > 0``) a dead worker is
  respawned after a capped exponential backoff.
- **Recovery probes** — a revived worker whose ``s_k`` has decayed to ~0
  periodically receives one probe tile so it can re-earn share (the
  controller's probe-donation step).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import time
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any, TypedDict

import numpy as np

import repro.nn as nn
from repro.compression import CompressionPipeline, PackedStream, PackedTensor, max_packed_nbytes
from repro.models.blocks import PartitionableCNN
from repro.nn import blas
from repro.partition.geometry import (
    SegmentGrid,
    TileGrid,
    grid_for_model,
    reassemble_array,
    split_array,
)
from repro.telemetry import (
    STAGE_CENTRAL,
    STAGE_COMPRESS,
    STAGE_CONV_COMPUTE,
    STAGE_MERGE,
    STAGE_PARTITION,
    STAGE_QUEUE_WAIT,
    STAGE_REQUEST,
    STAGE_RESULT_TRANSFER,
    STAGE_TRANSFER,
    ClusterHealth,
    NullRecorder,
    Recorder,
    TraceContext,
    TraceScope,
    node_health_scores,
)

from .controller import (
    ArmDeadline,
    BatchDelivered,
    CentralController,
    Command,
    ControllerConfig,
    DeadlineFired,
    EmitTelemetry,
    ImageReady,
    MergeCompleted,
    Redispatch,
    ResultReceived,
    SendBatch,
    TriggerMerge,
    WorkerDied,
    WorkerRevived,
)
from .messages import LOCAL_WORKER, BatchResult, BatchTask, Shutdown
from .policies import AllocationPolicy
from .transport import CentralChannels, WorkerChannel

class _ImageState(TypedDict):
    """Per-image in-flight bookkeeping (tiles, assignment map, results, timing).

    ``trigger`` is ``None`` until the controller's :class:`TriggerMerge`
    command lands; only a triggered image is finalized.

    ``batches`` holds each accepted batch's one payload (a packed stream or
    the raw stacked output), decoded once at merge; ``results`` maps every
    accepted tile to ``(index into batches, row of the tile in it)``.
    ``enqueued`` stamps each batch's enqueue (tracing only), keyed by the
    ``tile_ids`` tuple its result echoes.
    """

    tiles: list[np.ndarray]
    allocation: np.ndarray
    assignment: dict[int, int]
    batches: list[PackedTensor | np.ndarray]
    results: dict[int, tuple[int, int]]
    busy: np.ndarray
    local: list[int]
    enqueued: dict[tuple[int, ...], float]
    deadline: float
    start: float
    trigger: TriggerMerge | None
    next_tile: int
    ipc_tiles: int
    scope: TraceScope | None


__all__ = ["ProcessClusterConfig", "InferenceOutcome", "ProcessCluster", "StreamEngine"]


def _worker_loop(
    worker_id: int,
    separable: nn.Sequential,
    pipeline: CompressionPipeline | None,
    channel: WorkerChannel,
    delay_per_tile: float,
) -> None:
    """Conv-node main loop (runs in a forked child process).

    The batch is the message (DESIGN.md §5i): every :class:`BatchTask` is
    answered by exactly one :class:`BatchResult`.  The task's stacked block
    runs as one forward (identically-shaped tiles) through the compiled
    no-grad chain, with the emulated per-tile delay scaled by the batch
    size, and the stacked output is then encoded as one codec stream
    (pipeline on) or shipped raw (pipeline off), in the result's frame.

    The worker runs one thread: it reads tasks from, and writes results to,
    its two pipes itself (``channel``).  It exits on :class:`Shutdown`, on
    EOF of the task pipe, or when a result write finds Central's end closed.
    """
    channel.adopt()
    separable.eval()
    fused = nn.try_compile(separable)
    try:
        while True:
            msg = channel.recv()
            if msg is None or isinstance(msg, Shutdown):
                break
            assert isinstance(msg, BatchTask)
            t_start = time.perf_counter()
            if delay_per_tile > 0:
                # Emulated slow device (cpulimit stand-in), one sleep for
                # the whole batch: k tiles cost k * delay.
                time.sleep(delay_per_tile * len(msg.tile_ids))
            out_block = fused(msg.block)
            t_forward = time.perf_counter()
            payload = out_block if pipeline is None else pipeline.compress_packed(out_block).packed.buffer
            channel.send(
                BatchResult(
                    image_id=msg.image_id,
                    tile_ids=msg.tile_ids,
                    payload=payload,
                    worker=worker_id,
                    t_start=t_start,
                    forward_seconds=t_forward - t_start,
                    compress_seconds=time.perf_counter() - t_forward,
                    trace=msg.trace,
                )
            )
    except BrokenPipeError:
        return  # Central closed the result pipe: the cluster is stopping
    finally:
        channel.close()


@dataclass(frozen=True)
class ProcessClusterConfig:
    """Cluster shape, deadline policy, and fault-tolerance knobs."""

    num_workers: int = 2
    t_limit: float = 10.0          # generous default: correctness over speed
    gamma: float = 0.9
    delay_per_tile: tuple[float, ...] = ()  # per-worker artificial slowness
    redispatch: bool = True        # re-queue a dead worker's pending tiles
    max_restarts: int = 0          # restart policy is opt-in
    restart_backoff: float = 0.25  # first-restart delay, doubled per restart
    restart_backoff_cap: float = 5.0
    probe_interval: int = 0        # images between recovery probes (0 = off)
    poll_interval: float = 0.05    # liveness-check cadence in the collect loop
    policy: str | AllocationPolicy = "greedy_min_max"  # allocation policy name

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("need at least one worker")
        if self.t_limit <= 0:
            raise ValueError("t_limit must be positive")
        if self.delay_per_tile and len(self.delay_per_tile) != self.num_workers:
            raise ValueError("delay_per_tile must have one entry per worker")
        if self.max_restarts < 0:
            raise ValueError("max_restarts cannot be negative")
        if self.restart_backoff < 0 or self.restart_backoff_cap < self.restart_backoff:
            raise ValueError("need 0 <= restart_backoff <= restart_backoff_cap")
        if self.probe_interval < 0:
            raise ValueError("probe_interval cannot be negative")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


@dataclass
class InferenceOutcome:
    """Result of one distributed inference.

    ``allocation`` reflects the final tile ownership after any fault
    re-dispatch (entry ``LOCAL_WORKER`` tiles are excluded — they appear in
    ``locally_computed_tiles`` instead).
    """

    output: np.ndarray
    allocation: np.ndarray
    received_per_worker: np.ndarray
    zero_filled_tiles: list[int] = field(default_factory=list)
    locally_computed_tiles: list[int] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Worker-measured seconds, summed per worker over this image's
    #: batches: dequeue → result built (the busy time Algorithm 2's rate
    #: credits use; a partially duplicate batch adds only its new tiles'
    #: share).  Empty for images where no worker replied.
    compute_seconds_per_worker: np.ndarray = field(default_factory=lambda: np.zeros(0))


class ProcessCluster:
    """A live process-backed ADCNN deployment.

    Use as a context manager::

        with ProcessCluster(model, "4x4", pipeline, config) as cluster:
            out = cluster.infer(image).output
    """

    def __init__(
        self,
        model: PartitionableCNN,
        grid: TileGrid | SegmentGrid | str,
        pipeline: CompressionPipeline | None = None,
        config: ProcessClusterConfig | None = None,
        telemetry: Recorder | None = None,
    ) -> None:
        self.model = model
        self.grid = grid_for_model(model, grid) if isinstance(grid, str) else grid
        self.pipeline = pipeline
        self.config = config or ProcessClusterConfig()
        #: Telemetry sink (``repro.telemetry.TelemetryRecorder``); the
        #: default ``NullRecorder`` keeps instrumentation zero-cost.
        self.telemetry = telemetry if telemetry is not None else NullRecorder()
        # Both halves compiled once: the one inference definition (§5i).
        self._fused = nn.try_compile(model.separable_part().eval())
        self._rest = nn.try_compile(model.rest_part().eval())
        #: The shared decision machine.  Built once and reused across every
        #: ``infer_stream`` call so the Algorithm-2 ``s_k`` statistics carry
        #: over between streams (the historical behavior of this backend).
        self._controller = self.build_controller()
        #: Per-request trace ids (DESIGN.md §5h).  Monotonic within this
        #: cluster; the serving front-end mints through :meth:`mint_trace`
        #: so ids stay unique across bare and served dispatches alike.
        self._trace_ids = itertools.count()
        # A flight recorder (duck-typed: any sink exposing bind_decisions)
        # snapshots the controller's decision journal into its dumps.
        bind = getattr(self.telemetry, "bind_decisions", None)
        if callable(bind):
            bind(self._controller)
        #: Tile ids awaiting re-dispatch, keyed by image id — filled right
        #: before a ``WorkerDied`` event, consumed by ``Redispatch`` commands.
        self._redispatch_tids: dict[int, list[int]] = {}
        self._ctx = mp.get_context("fork")
        #: Central's ends of every worker's task and result pipes, each pipe
        #: sized for its largest frame.
        self._channels = CentralChannels(self.config.num_workers, *self._frame_nbytes())
        self._procs: list[mp.Process] = []
        self._delays: tuple[float, ...] = ()
        self._image_counter = 0
        self._known_dead: set[int] = set()
        self._restart_counts: list[int] = []
        self._restart_at: list[float | None] = []

    # ------------------------------------------------------------- controller
    def controller_config(self) -> ControllerConfig:
        """This backend's :class:`CentralController` profile.

        ``credit_mode="busy-span"``: rate credits come from worker-measured
        busy seconds (wall-clock stamps are too noisy over IPC).  The
        deadline carries no nominal-compute term (``deadline_slack=0``), so
        it is the paper's plain ``dispatch_done + T_L``.  Dead workers are
        masked out of the rates before allocating, a fully-decayed surviving
        set restarts from an even split, and when *no* worker can accept
        tiles the controller degrades to central-local compute instead of
        raising :class:`~repro.runtime.scheduler.SchedulingError`.
        """
        return ControllerConfig(
            window=2,  # per-stream; infer_stream resizes via set_window
            t_limit=self.config.t_limit,
            deadline_slack=0.0,
            gamma=self.config.gamma,
            probe_interval=self.config.probe_interval,
            redispatch=self.config.redispatch,
            policy=self.config.policy,
            credit_mode="busy-span",
            mask_dead=True,
            revive_even_split=True,
            local_fallback=True,
        )

    def build_controller(self) -> CentralController:
        """A fresh controller with this cluster's profile (conformance hook)."""
        return CentralController(self.config.num_workers, self.controller_config())

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "ProcessCluster":
        if self._procs:
            raise RuntimeError("cluster already started")
        # One BLAS thread per node process (DESIGN.md §5l), lowered before
        # the first fork so every worker (respawns included) inherits it and
        # never builds a pool.  One-way: the process that starts a cluster
        # is a Central node from then on.
        blas.pin_single_thread()
        self._delays = self.config.delay_per_tile or (0.0,) * self.config.num_workers
        self._known_dead = set()
        self._restart_counts = [0] * self.config.num_workers
        self._restart_at = [None] * self.config.num_workers
        for wid in range(self.config.num_workers):
            self._procs.append(self._spawn(wid))
        return self

    @property
    def transport(self) -> str:
        """How tile bytes travel: always ``"pipe"``, one pickled frame per
        batch on the worker's pipes (DESIGN.md §5d)."""
        return "pipe"

    def _frame_nbytes(self) -> tuple[int, int]:
        """The largest task and result a worker's pipes carry for one
        ``N = 1`` image, from the model: the image's whole tile stack, and
        the worst-case batch result — every tile's raw float32 output or the
        bound of one packed stream over it, whichever is larger.  A larger
        frame is still correct; it crosses the pipe in pieces."""
        tiles = split_array(np.zeros((1, *self.model.input_shape), np.float32), self.grid)
        shapes = [self._tile_output_shape(t) for t in tiles]
        n_out = sum(int(np.prod(shape)) for shape in shapes)
        result = n_out * 4
        if self.pipeline is not None:
            result = max(result, max_packed_nbytes(
                n_out, len(shapes[0]), self.pipeline.bits, self.pipeline.run_bits))
        return sum(t.nbytes for t in tiles), result

    def _spawn(self, worker_id: int) -> mp.Process:
        # Fresh pipes for every incarnation, opened right before the fork;
        # the worker-side ends are closed here as soon as the child holds
        # them, so a later fork never inherits them.
        channel = self._channels.open(worker_id)
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(
                worker_id,
                self._fused.stack,
                self.pipeline,
                channel,
                self._delays[worker_id],
            ),
            daemon=True,
        )
        try:
            proc.start()
        finally:
            channel.close()
        return proc

    def stop(self) -> None:
        if self._procs:
            for wid in range(self.config.num_workers):
                self._channels[wid].send(Shutdown())
        # Closing Central's ends is the fallback signal: a worker whose
        # Shutdown is still in the outbox reads EOF, and one blocked writing
        # a result gets EPIPE.
        self._channels.close()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs.clear()
        self._known_dead.clear()

    def kill_worker(self, worker_id: int) -> None:
        """Fail-stop a Conv node mid-run (fault-injection for tests)."""
        self._procs[worker_id].terminate()
        self._procs[worker_id].join(timeout=5.0)

    def __enter__(self) -> "ProcessCluster":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ---------------------------------------------------------- introspection
    def mint_trace(self, start: float) -> TraceContext:
        """Mint a fresh request trace identity (entry-point hook, §5h).

        ``start`` is the ``perf_counter`` reading at which the request
        entered the system; the front-end calls this at ``submit()`` so
        queue wait is part of the trace, while ``StreamEngine.dispatch``
        mints lazily for bare (unserved) dispatches.
        """
        return TraceContext(trace_id=next(self._trace_ids), start=start)

    def health(self) -> ClusterHealth:
        """Live cluster snapshot: per-node health scores + pipeline depth.

        Safe to call from any thread at any time (reads controller EWMA
        stats and process liveness; allocates nothing on the hot path).
        """
        num = self.config.num_workers
        rates = self._controller.rates()
        alive = (
            [bool(p.is_alive()) for p in self._procs] if self._procs else [False] * num
        )
        restarts = self._restart_counts or [0] * num
        return ClusterHealth(
            nodes=node_health_scores(
                [f"worker{i}" for i in range(num)],
                alive,
                [float(r) for r in rates],
                restarts,
            ),
            in_flight=self._controller.in_flight,
            window=self._controller.window,
            transport=self.transport,
            images_dispatched=self._image_counter,
            blas_threads=blas.get_num_threads(),
        )

    # ------------------------------------------------------------ supervision
    @property
    def worker_rates(self) -> np.ndarray:
        return self._controller.rates()

    @property
    def restart_counts(self) -> list[int]:
        """How many times each worker has been respawned."""
        return list(self._restart_counts)

    def _supervise(self, inflight: dict[int, _ImageState]) -> tuple[bool, ...]:
        """Detect dead workers, drain + re-dispatch their work, restart them.

        Called from the collect loops and before every dispatch, so death is
        noticed within ``poll_interval`` while results are pending and at
        the latest at the next image.  Returns the liveness mask it read
        (one ``waitpid`` per worker), respawns included.
        """
        now = time.monotonic()
        alive = [proc.is_alive() for proc in self._procs]
        for wid, up in enumerate(alive):
            if up:
                continue
            if wid not in self._known_dead:
                self._known_dead.add(wid)
                self.telemetry.record(time.perf_counter(), "worker_dead", node=f"worker{wid}")
                if self._restart_counts[wid] < self.config.max_restarts:
                    backoff = min(
                        self.config.restart_backoff * (2 ** self._restart_counts[wid]),
                        self.config.restart_backoff_cap,
                    )
                    self._restart_at[wid] = now + backoff
                else:
                    self._restart_at[wid] = None
                # Every tile the dead worker owned but never answered goes
                # to the controller; its Redispatch commands name only the
                # per-target counts, so the concrete tile ids wait in
                # ``_redispatch_tids`` for the command executor.
                lost: list[tuple[int, int]] = []
                for image_id, st in inflight.items():
                    pending = [
                        tid
                        for tid, owner in st["assignment"].items()
                        if owner == wid and tid not in st["results"]
                    ]
                    if pending:
                        self._redispatch_tids[image_id] = pending
                        lost.append((image_id, len(pending)))
                self._execute(
                    self._controller.handle(WorkerDied(now, wid, tuple(alive), tuple(lost))),
                    inflight,
                )
                self._redispatch_tids.clear()
            elif self._restart_at[wid] is not None and now >= self._restart_at[wid]:
                self._respawn(wid)
                alive[wid] = True
        return tuple(alive)

    def _respawn(self, worker_id: int) -> None:
        # _spawn hands the successor fresh pipes.  Its predecessor's unread
        # tasks go with the old pipe; re-dispatch already covered them.
        self._procs[worker_id] = self._spawn(worker_id)
        self._restart_counts[worker_id] += 1
        self._restart_at[worker_id] = None
        self._known_dead.discard(worker_id)
        self._execute(
            self._controller.handle(WorkerRevived(time.monotonic(), worker_id)), {}
        )

    def _compute_locally(
        self,
        image_id: int,
        tile_ids: Iterable[int],
        st: _ImageState,
        inflight: dict[int, _ImageState],
    ) -> None:
        """Central-node fallback: run the separable block in-process.

        The tiles run as one stacked forward and the result takes the shape
        a worker's batch would (one packed stream when the pipeline is on),
        so merge and wire-bit accounting see one format.
        """
        ids = list(tile_ids)
        block = np.concatenate([st["tiles"][tid] for tid in ids])
        out = self._fused(block)
        st["batches"].append(self.pipeline.compress_packed(out) if self.pipeline is not None else out)
        batch = len(st["batches"]) - 1
        for row, tid in enumerate(ids):
            st["results"][tid] = (batch, row)
            st["assignment"][tid] = LOCAL_WORKER
        st["local"].extend(ids)
        self._execute(
            self._controller.handle(
                ResultReceived(time.monotonic(), image_id, LOCAL_WORKER, count=len(ids))
            ),
            inflight,
        )

    def _enqueue(
        self, node: int, image_id: int, tile_ids: Sequence[int], st: _ImageState, probe: bool = False
    ) -> None:
        """Queue one batch onto a worker (first dispatch or fault re-dispatch):
        one task message, whatever the tile count, carrying the batch's
        tiles stacked in ``tile_ids`` order."""
        # The task carries the request's frozen trace context across the IPC
        # boundary; the worker echoes it back on the BatchResult (§5h).
        scope = st["scope"]
        trace = scope.context() if scope is not None else None
        st["assignment"].update(dict.fromkeys(tile_ids, node))
        if self.telemetry.enabled:
            st["enqueued"][tuple(tile_ids)] = time.perf_counter()
        block = np.concatenate([st["tiles"][t] for t in tile_ids])
        self._channels[node].send(
            BatchTask(image_id, tuple(tile_ids), block, probe=probe, trace=trace)
        )

    # -------------------------------------------------------------- inference
    def validate_image(self, image: np.ndarray) -> np.ndarray:
        """Coerce one input to float32 and check it against the model.

        Accepts ``model.input_shape`` (a batch dim is added) or
        ``(N, *model.input_shape)``; anything else raises a clear
        :class:`ValueError` *here*, instead of a cryptic partition/conv
        error deep inside a worker process.
        """
        img = np.asarray(image, dtype=np.float32)
        expected = tuple(self.model.input_shape)
        if img.shape == expected:
            return img[None]
        if img.ndim == len(expected) + 1 and img.shape[1:] == expected:
            return img
        raise ValueError(
            f"image shape {img.shape} does not match model input shape {expected}; "
            f"expected {expected} or (N, *{expected})"
        )

    def infer(self, image: np.ndarray) -> InferenceOutcome:
        """One distributed inference over the live cluster.

        Follows Figure 8: partition → allocate (Algorithm 3) → dispatch →
        collect until all results or ``T_L`` → zero-fill stragglers →
        rest layers.  Worker delivery counts feed Algorithm 2.
        """
        return self.infer_stream([image], pipeline_depth=1)[0]

    def stream_engine(self, window: int = 2) -> "StreamEngine":
        """An incremental open-loop driver over this cluster (serving mode).

        ``infer_stream`` is the bounded-batch convenience wrapper; the
        continuous serving front-end (:mod:`repro.serving`) admits images
        one at a time through the returned engine instead.
        """
        return StreamEngine(self, window)

    def infer_stream(
        self, images: Sequence[np.ndarray], pipeline_depth: int = 2
    ) -> list[InferenceOutcome]:
        """Pipelined inference over a sequence of images (Figure 9).

        Up to ``pipeline_depth`` images are in flight: the next image's
        tiles are dispatched before the current image's results finish
        collecting, overlapping Conv-node compute with Central-node work.
        Results are returned in input order.  Dead workers are supervised
        as described in the module docstring.
        """
        if not self._procs:
            raise RuntimeError("cluster not started — use `with ProcessCluster(...)`")
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        batch = [self.validate_image(img) for img in images]
        engine = StreamEngine(self, pipeline_depth)
        outcomes: dict[int, InferenceOutcome] = {}
        idx_of: dict[int, int] = {}
        next_idx = 0
        while next_idx < len(batch) or engine.in_flight:
            while next_idx < len(batch) and engine.can_dispatch:
                idx_of[engine.dispatch(batch[next_idx])] = next_idx
                next_idx += 1
            for image_id, outcome in engine.pump():
                outcomes[idx_of[image_id]] = outcome
        return [outcomes[i] for i in range(len(batch))]

    def _finalize(self, image_id: int, inflight: dict[int, _ImageState]) -> InferenceOutcome:
        """Merge one image: zero-fill, rest layers, telemetry."""
        tel = self.telemetry
        st = inflight.pop(image_id)
        trig = st["trigger"]
        assert trig is not None, "only a triggered image is finalized"
        t_merge = time.perf_counter()
        out_tiles, missing = self._materialize_tiles(st["tiles"], st["batches"], st["results"])
        feature_map = reassemble_array(out_tiles, self.grid)
        t_rest = time.perf_counter()
        output = self._rest(feature_map)
        t_done = time.perf_counter()
        if st["local"]:
            tel.count("adcnn_tiles_local_total", len(st["local"]))
        scope = st["scope"]
        if tel.enabled:
            tel.span(STAGE_MERGE, t_merge, t_rest - t_merge, node="central",
                     image_id=image_id, zero_filled=len(missing),
                     **(scope.child_fields() if scope is not None else {}))
            tel.span(STAGE_CENTRAL, t_rest, t_done - t_rest, node="central", image_id=image_id,
                     **(scope.child_fields() if scope is not None else {}))
            for payload in st["batches"]:
                if isinstance(payload, PackedTensor):
                    # The measured buffer length is the honest wire count:
                    # one stream per batch, header included.
                    tel.count("adcnn_bits_wire_total", payload.wire_bits, direction="down")
                    tel.count("adcnn_bits_raw_total", payload.raw_bits, direction="down")
                else:
                    tel.count("adcnn_bits_wire_total", payload.nbytes * 8, direction="down")
                    tel.count("adcnn_bits_raw_total", payload.nbytes * 8, direction="down")
            latency = t_done - st["start"]
            done_fields: dict[str, Any] = {}
            if scope is not None:
                # Close the trace: the ``request`` root span covers the
                # image's whole residence (admission → final output).
                tel.span(STAGE_REQUEST, scope.start, t_done - scope.start,
                         node="central", image_id=image_id, **scope.root_fields())
                done_fields["trace_id"] = scope.trace_id
            tel.record(t_done, "image_done", image_id=image_id,
                       latency=latency, zero_filled=len(missing), **done_fields)
            tel.observe("adcnn_image_latency_seconds", latency)
        outcome = InferenceOutcome(
            output=output,
            allocation=st["allocation"],
            received_per_worker=np.array(trig.received, dtype=int),
            zero_filled_tiles=missing,
            locally_computed_tiles=sorted(st["local"]),
            wall_seconds=t_done - st["start"],
            compute_seconds_per_worker=st["busy"].copy(),
        )
        self._execute(
            self._controller.handle(MergeCompleted(time.monotonic(), image_id)),
            inflight,
        )
        return outcome

    def wait_set(self) -> list[tuple[int, int]]:
        """``(fd, poll events)`` pairs this cluster's idle wait polls: every
        open result pipe, and every task pipe whose outbox holds a frame.

        Exposed so multi-cluster drivers (:class:`repro.sharding.ClusterRouter`)
        can park on *every* shard's pipes in one ``poll`` instead of polling
        clusters round-robin, and wake when a result arrives or a task frame
        can move on.
        """
        return self._channels.wait_set()

    def _wait_results(self, timeout: float) -> bool:
        """Block until a result pipe is readable or a task outbox can move,
        or ``timeout``: one ``poll`` over the persistent set, so an arriving
        result wakes the Central loop immediately."""
        return self._channels.wait(timeout)

    # ------------------------------------------------------ command execution
    def _execute(self, cmds: list[Command], inflight: dict[int, _ImageState]) -> None:
        """Translate controller commands into IPC, local compute, telemetry."""
        tel = self.telemetry
        for cmd in cmds:
            if isinstance(cmd, EmitTelemetry):
                if not tel.enabled:
                    continue
                labels: dict[str, Any] = {}
                if cmd.node is not None:
                    labels["node"] = f"worker{cmd.node}"
                if cmd.op == "count":
                    tel.count(cmd.metric, cmd.value, **labels)  # repro-lint: disable=RL009
                elif cmd.op == "gauge":
                    tel.gauge(cmd.metric, cmd.value, **labels)  # repro-lint: disable=RL009
                elif cmd.op == "record":
                    fields = {
                        key: (list(value) if isinstance(value, tuple) else value)
                        for key, value in cmd.data
                    }
                    if cmd.image_id is not None:
                        fields["image_id"] = cmd.image_id
                        # Controller commands inherit the request's trace
                        # identity so scheduling events correlate with the
                        # span tree they acted on (§5h).
                        target = inflight.get(cmd.image_id)
                        if target is not None and target["scope"] is not None:
                            fields["trace_id"] = target["scope"].trace_id
                    fields.update(labels)
                    tel.record(time.perf_counter(), cmd.metric, **fields)
            elif isinstance(cmd, SendBatch):
                self._send_batch(cmd, inflight[cmd.image_id], inflight)
            elif isinstance(cmd, Redispatch):
                self._redispatch(cmd, inflight[cmd.image_id], inflight)
            elif isinstance(cmd, ArmDeadline):
                inflight[cmd.image_id]["deadline"] = cmd.deadline
            elif isinstance(cmd, TriggerMerge):
                inflight[cmd.image_id]["trigger"] = cmd
            else:  # pragma: no cover - defensive
                raise TypeError(f"unhandled controller command: {cmd!r}")

    def _send_batch(
        self, cmd: SendBatch, st: _ImageState, inflight: dict[int, _ImageState]
    ) -> None:
        """Dispatch one batch: enqueue tiles to a worker, or compute locally."""
        tile_ids = range(st["next_tile"], st["next_tile"] + cmd.count)
        st["next_tile"] += cmd.count
        if cmd.node == LOCAL_WORKER:
            # Graceful degradation: no worker can accept tiles, so the
            # central process runs the separable block itself.
            self._compute_locally(cmd.image_id, tile_ids, st, inflight)
            return
        self._enqueue(cmd.node, cmd.image_id, tile_ids, st, probe=cmd.probe)
        st["ipc_tiles"] += cmd.count

    def _redispatch(
        self, cmd: Redispatch, st: _ImageState, inflight: dict[int, _ImageState]
    ) -> None:
        """Re-queue tiles a dead worker never answered (ids from the
        assignment map staged in ``_redispatch_tids``)."""
        pending = self._redispatch_tids.get(cmd.image_id, [])
        take, self._redispatch_tids[cmd.image_id] = pending[: cmd.count], pending[cmd.count:]
        if not take:
            return
        if cmd.node == LOCAL_WORKER:
            # No survivors left: the central process computes the tiles.
            self._compute_locally(cmd.image_id, take, st, inflight)
            return
        self._enqueue(cmd.node, cmd.image_id, take, st)
        self.telemetry.count("adcnn_tiles_dispatched_total", len(take), node=f"worker{cmd.node}")

    def _sweep_results(self, inflight: dict[int, _ImageState]) -> bool:
        """Flush task outboxes and take every whole result frame from the ready
        result pipes; True if any result arrived.  Never blocks."""
        tel = self.telemetry
        arrived: list[BatchResult] = self._channels.receive()
        for res in arrived:
            recv = time.perf_counter() if tel.enabled else 0.0
            payload: PackedTensor | np.ndarray = res.payload
            if res.payload.dtype == np.uint8:  # the batch's packed codec stream
                try:
                    stream = PackedStream.from_buffer(res.payload)
                except ValueError:
                    # Corrupt result bytes: the tiles stay unanswered (they
                    # follow re-dispatch or zero-fill), but counted so T_L
                    # is not the only trace of it.
                    tel.count("adcnn_result_corrupt_total", len(res.tile_ids),
                              node=f"worker{res.worker}")
                    continue
                payload = PackedTensor(stream, raw_bits=32 * stream.num_elements)
            target = inflight.get(res.image_id)
            if target is None:
                continue  # stale image
            results = target["results"]
            new = {tid: row for row, tid in enumerate(res.tile_ids) if tid not in results}
            if not new:
                continue  # duplicate after a re-dispatch race
            # Kept encoded: the merge decodes each batch once (DESIGN.md §5d).
            target["batches"].append(payload)
            batch = len(target["batches"]) - 1
            results.update((tid, (batch, row)) for tid, row in new.items())
            # A partial duplicate (re-dispatch race) is credited only
            # its new tiles' share of the batch's busy time.
            busy = (res.forward_seconds + res.compress_seconds) * len(new) / len(res.tile_ids)
            target["busy"][res.worker] += busy
            if tel.enabled:
                self._record_batch_spans(res, target, recv)
            self._execute(
                self._controller.handle(
                    ResultReceived(
                        time.monotonic(), res.image_id, res.worker,
                        busy_seconds=busy, count=len(new),
                    )
                ),
                inflight,
            )
        return bool(arrived)

    def _record_batch_spans(self, res: BatchResult, st: _ImageState, recv: float) -> None:
        """One batch's transfer/compute/compress/return spans, each carrying
        ``tiles=k``: the batch is the unit the worker timed.

        ``perf_counter`` is CLOCK_MONOTONIC on Linux, shared across forked
        workers, so worker stamps and central stamps sit on one timeline.
        Trace identity comes from the context the *worker echoed* (proof the
        id crossed the IPC boundary and back); span ids are allocated
        driver-side where the scope lives.
        """
        t_forward = res.t_start + res.forward_seconds
        t_end = t_forward + res.compress_seconds
        enqueued = st["enqueued"].get(res.tile_ids)
        stages = [] if enqueued is None else [(STAGE_TRANSFER, enqueued, max(res.t_start - enqueued, 0.0))]
        stages.append((STAGE_CONV_COMPUTE, res.t_start, res.forward_seconds))
        if res.compress_seconds > 0:
            stages.append((STAGE_COMPRESS, t_forward, res.compress_seconds))
        stages.append((STAGE_RESULT_TRANSFER, t_end, max(recv - t_end, 0.0)))
        scope, ctx = st["scope"], res.trace
        for kind, start, duration in stages:
            trace = (
                {} if ctx is None or scope is None
                else {"trace_id": ctx.trace_id, "span_id": scope.next_span_id(),
                      "parent_id": ctx.span_id}
            )
            self.telemetry.span(kind, start, duration, node=f"worker{res.worker}",
                                image_id=res.image_id, tiles=len(res.tile_ids), **trace)

    def _materialize_tiles(
        self,
        tiles: list[np.ndarray],
        batches: list[PackedTensor | np.ndarray],
        results: dict[int, tuple[int, int]],
    ) -> tuple[list[np.ndarray], list[int]]:
        """Decode each batch once and take every received tile's rows from
        it; zero-fill the rest (§6.1)."""
        shape = self._tile_output_shape(tiles[0])
        n = shape[0]
        blocks = [
            self.pipeline.decompress(b) if self.pipeline is not None and isinstance(b, PackedTensor)
            else np.asarray(b, dtype=np.float32)
            for b in batches
        ]
        out: list[np.ndarray] = []
        missing: list[int] = []
        for tile_id in range(len(tiles)):
            entry = results.get(tile_id)
            if entry is None:
                missing.append(tile_id)
                out.append(np.zeros(shape, dtype=np.float32))
            else:
                batch, row = entry
                out.append(blocks[batch][row * n : (row + 1) * n])
        return out, missing

    def _tile_output_shape(self, tile: np.ndarray) -> tuple[int, ...]:
        reduction = self.model.separable_spatial_reduction()
        channels = self.model.separable_out_channels()
        if tile.ndim == 3:  # (N, C, L)
            return (tile.shape[0], channels, tile.shape[2] // reduction)
        return (tile.shape[0], channels, tile.shape[2] // reduction, tile.shape[3] // reduction)


class StreamEngine:
    """Incremental, open-loop driver over a live :class:`ProcessCluster`.

    ``ProcessCluster.infer_stream`` is a bounded-batch loop over this class;
    the continuous serving front-end (:mod:`repro.serving`) drives it
    directly, one admission decision at a time:

    - :attr:`can_dispatch` mirrors the controller's Figure-9 pipelining
      window — the admission-control signal for open-loop arrivals;
    - :meth:`dispatch` partitions one *validated* image, runs the
      controller's allocation, and enqueues its tiles;
    - :meth:`pump` advances the collect loop (supervision, deadline firing,
      result sweeping, oldest-first finalize) and returns every image that
      finished since the last call.  When idle it blocks in one ``poll`` on
      the result pipes — never a fixed sleep — so results wake it instantly.

    The engine holds no OS resources of its own; abandoning one mid-stream
    leaks nothing, but the owning cluster's controller window stays occupied
    by any images never pumped to completion.
    """

    def __init__(self, cluster: ProcessCluster, window: int = 2) -> None:
        if not cluster._procs:
            raise RuntimeError("cluster not started — use `with ProcessCluster(...)`")
        if window < 1:
            raise ValueError("pipeline window must be >= 1")
        self._cluster = cluster
        cluster._controller.set_window(window)
        self._inflight: dict[int, _ImageState] = {}
        self._order: deque[int] = deque()

    @property
    def can_dispatch(self) -> bool:
        """True when the controller's pipelining window has a free slot."""
        return self._cluster._controller.can_dispatch

    @property
    def in_flight(self) -> int:
        """Images dispatched but not yet finalized."""
        return len(self._inflight)

    @property
    def inflight_images(self) -> tuple[int, ...]:
        """Ids of in-flight images, oldest first (drain bookkeeping)."""
        return tuple(self._order)

    def dispatch(self, image: np.ndarray, trace: TraceContext | None = None) -> int:
        """Admit one validated ``(N, *input_shape)`` image; returns its id.

        Callers must check :attr:`can_dispatch` first and validate the
        image via :meth:`ProcessCluster.validate_image`.  ``trace`` is the
        request's identity when one was already minted upstream (the
        serving front-end mints at ``submit()`` so queue wait is traced);
        bare dispatches mint their own here.
        """
        cluster = self._cluster
        if not cluster._controller.can_dispatch:
            raise RuntimeError("pipeline window is full — check can_dispatch first")
        alive = cluster._supervise(self._inflight)
        image_id = cluster._image_counter
        cluster._image_counter += 1
        tel = cluster.telemetry
        t_partition = time.perf_counter()
        scope: TraceScope | None = None
        if tel.enabled:
            if trace is None:
                trace = cluster.mint_trace(t_partition)
            scope = TraceScope.from_context(trace)
        tiles = split_array(image, cluster.grid)
        now = time.monotonic()
        cmds = cluster._controller.handle(ImageReady(now, image_id, len(tiles), alive))
        start = time.perf_counter()
        if tel.enabled and scope is not None and trace is not None:
            if t_partition > trace.start:
                # Time between admission (trace minted) and this dispatch.
                tel.span(STAGE_QUEUE_WAIT, trace.start, t_partition - trace.start,
                         node="central", image_id=image_id, **scope.child_fields())
            # Partition + Algorithm 3 run back to back on the Central
            # node; one span covers the whole Input-partition block.
            tel.span(STAGE_PARTITION, t_partition, start - t_partition,
                     node="central", image_id=image_id, **scope.child_fields())
        st: _ImageState = {
            "tiles": tiles,
            # Shares the controller's live allocation array so fault
            # re-dispatch adjustments show through to the outcome.
            "allocation": cluster._controller.allocation_view(image_id),
            "assignment": {},
            "batches": [],
            "results": {},
            "busy": np.zeros(cluster.config.num_workers),
            "local": [],
            "enqueued": {},
            "deadline": now + cluster.config.t_limit,
            "start": start,
            "trigger": None,
            "next_tile": 0,
            "ipc_tiles": 0,
            "scope": scope,
        }
        self._inflight[image_id] = st
        self._order.append(image_id)
        cluster._execute(cmds, self._inflight)
        # A batch is "on the wire" the moment ``send`` returns (in the
        # pipe, or in the outbox the pump flushes), so every transfer
        # completes at dispatch time and the deadline arms from here.
        for cmd in cmds:
            if isinstance(cmd, SendBatch) and cmd.node != LOCAL_WORKER:
                cluster._execute(
                    cluster._controller.handle(BatchDelivered(now, image_id, cmd.node)),
                    self._inflight,
                )
        if tel.enabled and st["ipc_tiles"]:
            # Input tiles cross the IPC "wire" uncompressed.
            up_bits = tiles[0].nbytes * 8 * st["ipc_tiles"]
            tel.count("adcnn_bits_wire_total", up_bits, direction="up")
            tel.count("adcnn_bits_raw_total", up_bits, direction="up")
        return image_id

    def pump(self, block: bool = True) -> list[tuple[int, InferenceOutcome]]:
        """Advance collection; returns ``(image_id, outcome)`` pairs done.

        One call makes bounded progress: finalize anything already
        triggered, supervise worker liveness, sweep the result pipes, and
        (when ``block`` and nothing happened) wait on the pipes until the
        oldest image's deadline or the liveness-poll interval, whichever is
        sooner.  Callers loop; an empty list is not "stream
        over", it is "nothing finished yet".
        """
        cluster = self._cluster
        done: list[tuple[int, InferenceOutcome]] = []
        self._collect(done)
        if not self._order:
            return done
        cluster._supervise(self._inflight)
        self._collect(done)
        if cluster._sweep_results(self._inflight):
            self._collect(done)
        if done or not block or not self._order:
            return done
        head = self._inflight[self._order[0]]
        timeout = head["deadline"] - time.monotonic()
        if timeout > 0:
            if cluster._wait_results(min(timeout, cluster.config.poll_interval)):
                cluster._sweep_results(self._inflight)
        self._collect(done)  # the deadline may have expired during the wait
        return done

    def _collect(self, done: list[tuple[int, InferenceOutcome]]) -> None:
        """Finalize ready images oldest-first (T_L fires per Figure 9 order)."""
        cluster = self._cluster
        while self._order:
            image_id = self._order[0]
            st = self._inflight[image_id]
            if st["trigger"] is None and time.monotonic() >= st["deadline"]:
                # T_L expired for the oldest image: the controller settles
                # the trigger (stats update + zero-fill accounting) and the
                # merge runs on whatever arrived.
                cluster._execute(
                    cluster._controller.handle(DeadlineFired(time.monotonic(), image_id)),
                    self._inflight,
                )
            if st["trigger"] is None:
                return
            self._order.popleft()
            done.append((image_id, cluster._finalize(image_id, self._inflight)))
