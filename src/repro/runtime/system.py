"""The ADCNN system of §6 as a discrete-event application (Figure 8/9).

One Central node and K Conv nodes connected by a (by default shared, WiFi-
like) medium.  Per image: the Input-partition block allocates tiles with
Algorithm 3, tile batches stream to Conv nodes, each node computes its tiles
FIFO and returns one (compressed) intermediate result per tile, and the
Central node runs the rest layers once all results arrive or the deadline
expires (missing tiles are zero-filled).  Algorithm 2 folds the per-image
delivery counts into the ``s_k`` statistics that drive the next allocation.

All of that *decision* logic lives in the backend-agnostic
:class:`~repro.runtime.controller.CentralController` (DESIGN.md §5f);
``ADCNNSystem.run`` is a thin driver that feeds the controller sim-time
events and translates its commands into medium transfers, node submissions,
deadline timers, and telemetry.

Deadline semantics: the paper starts a timer "after transmitting all the
tiles of an input image" with T_L = 30 ms.  A fixed 30 ms from dispatch
would expire long before *any* VGG16 tile completes (~25 ms/tile, 8 tiles
per node), so we interpret T_L as slack on top of the Central node's own
completion estimate: ``deadline = dispatch_done + slack * expected + T_L``
(``expected`` = nominal compute time of the largest per-node batch;
``slack`` defaults to 2).  EXPERIMENTS.md discusses this calibration.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.profiling.latency_model import WIFI_LAN, LinkProfile
from repro.simulator.core import Simulator
from repro.simulator.node import SimNode
from repro.telemetry import (
    STAGE_CENTRAL,
    STAGE_CONV_COMPUTE,
    STAGE_MERGE,
    STAGE_PARTITION,
    STAGE_QUEUE_WAIT,
    STAGE_REQUEST,
    STAGE_RESULT_TRANSFER,
    STAGE_TRANSFER,
    NullRecorder,
    Recorder,
    TraceScope,
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
)
from .policies import AllocationPolicy
from .workload import ADCNNWorkload

__all__ = ["ADCNNConfig", "ImageRecord", "ADCNNSystem", "MediumQueue", "OpenLoopResult"]


class MediumQueue:
    """A DES-integrated FIFO transmission resource (shared WiFi medium)."""

    def __init__(self, sim: Simulator, profile: LinkProfile) -> None:
        self.sim = sim
        self.profile = profile
        self._queue: deque[tuple[float, Callable[[float], None]]] = deque()
        self._busy = False
        self.transferred_bits = 0.0

    def request(self, bits: float, on_delivered: Callable[[float], None]) -> None:
        """Enqueue ``bits`` that are ready *now*; callback gets arrival time."""
        if bits < 0:
            raise ValueError("negative transfer size")
        self._queue.append((bits, on_delivered))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        bits, callback = self._queue.popleft()
        duration = self.profile.transfer_time(bits)

        def complete() -> None:
            # Bits are credited on *delivery*, not when the transfer starts,
            # so a simulation stopped mid-transfer never overcounts.
            self.transferred_bits += bits
            arrival = self.sim.now
            self._start_next()
            callback(arrival)

        self.sim.schedule(duration, complete)


@dataclass(frozen=True)
class ADCNNConfig:
    """Runtime knobs of §6/§7.2."""

    t_limit: float = 0.030        # T_L
    deadline_slack: float = 2.0   # multiplier on the nominal completion estimate
    gamma: float = 0.9            # Algorithm 2 decay
    stats_initial: float = 1.0    # equal s_k at start -> even first split
    pipeline_depth: int = 2       # images in flight (Figure 9 overlapping)
    redispatch: bool = False      # re-send a dead node's batch to survivors
    probe_interval: int = 0       # images between recovery probes (0 = off)
    policy: str | AllocationPolicy = "greedy_min_max"  # allocation policy name

    def __post_init__(self) -> None:
        if self.t_limit < 0 or self.deadline_slack < 1.0:
            raise ValueError("need t_limit >= 0 and deadline_slack >= 1")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline depth must be >= 1")
        if self.probe_interval < 0:
            raise ValueError("probe_interval cannot be negative")


@dataclass
class ImageRecord:
    """Per-image outcome of a simulated run.

    ``arrival_time`` is NaN for closed-loop :meth:`ADCNNSystem.run` records
    (every image is "available" at t=0); open-loop records carry the
    arrival-process timestamp, which may precede ``dispatch_start`` by the
    admission-queue wait.
    """

    image_id: int
    dispatch_start: float
    allocation: np.ndarray
    dispatch_done: float = math.nan
    deadline: float = math.nan
    trigger_time: float = math.nan
    completion: float = math.nan
    received: np.ndarray = field(default_factory=lambda: np.zeros(0))
    zero_filled_tiles: int = 0
    arrival_time: float = math.nan

    @property
    def latency(self) -> float:
        """End-to-end (§7.2): partition start -> final output."""
        return self.completion - self.dispatch_start

    @property
    def queue_wait(self) -> float:
        """Admission-queue wait (0.0 for closed-loop records)."""
        if not math.isfinite(self.arrival_time):
            return 0.0
        return self.dispatch_start - self.arrival_time

    @property
    def sojourn(self) -> float:
        """What an open-loop client sees: arrival -> final output.

        Falls back to :attr:`latency` for closed-loop records, where there
        is no meaningful arrival instant.
        """
        if not math.isfinite(self.arrival_time):
            return self.latency
        return self.completion - self.arrival_time


@dataclass
class OpenLoopResult:
    """Outcome of one :meth:`ADCNNSystem.run_open_loop` run.

    ``records`` hold only *admitted* images; ``shed`` arrivals bounced off
    the full admission queue (load-shedding) and have no record.
    """

    records: list[ImageRecord]
    offered: int
    shed: int
    horizon: float  # last completion (or arrival) instant, sim seconds

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if math.isfinite(r.completion))

    @property
    def throughput(self) -> float:
        """Completed images per sim-second over the whole run."""
        return self.completed / self.horizon if self.horizon > 0 else 0.0

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def sojourns(self) -> np.ndarray:
        """Finite arrival->completion latencies (seconds), admission order."""
        vals = [r.sojourn for r in self.records if math.isfinite(r.sojourn)]
        return np.asarray(vals, dtype=float)

    def sojourn_quantile(self, q: float) -> float:
        """Tail latency (e.g. ``q=0.99`` for p99); NaN with no completions."""
        sojourns = self.sojourns()
        if sojourns.size == 0:
            return math.nan
        return float(np.quantile(sojourns, q))


class ADCNNSystem:
    """Simulated ADCNN deployment: build, ``run(n)``, inspect records."""

    def __init__(
        self,
        workload: ADCNNWorkload,
        conv_nodes: list[SimNode],
        central: SimNode,
        link: LinkProfile = WIFI_LAN,
        config: ADCNNConfig | None = None,
        shared_medium: bool = True,
        rng: np.random.Generator | None = None,
        telemetry: Recorder | None = None,
    ) -> None:
        if not conv_nodes:
            raise ValueError("need at least one Conv node")
        self.workload = workload
        self.nodes = conv_nodes
        self.central = central
        self.link_profile = link
        self.config = config or ADCNNConfig()
        self.shared_medium = shared_medium
        self.rng = rng
        #: Telemetry sink (``TelemetryRecorder``); events
        #: carry *sim-time* seconds but use the same schema as the process
        #: backend's wall-clock spans.  Defaults to the zero-cost no-op.
        self.telemetry = telemetry if telemetry is not None else NullRecorder()
        self.records: list[ImageRecord] = []
        self._media: list[MediumQueue] = []

    # ----------------------------------------------------------- controller
    def controller_config(self) -> ControllerConfig:
        """This backend's :class:`CentralController` profile.

        ``credit_mode="arrival-span"``: rate credits span first batch
        arrival to last node-side completion stamp (the DES observes exact
        sim-time).  Dead nodes are *not* masked out of the rates — a batch
        sent to a dead node bounces at delivery and is re-dispatched, which
        is the fail-stop story the DES models — and there is no central-
        local fallback (the Central node has no Conv stage in the sim).
        """
        return ControllerConfig(
            window=self.config.pipeline_depth,
            t_limit=self.config.t_limit,
            deadline_slack=self.config.deadline_slack,
            gamma=self.config.gamma,
            stats_initial=self.config.stats_initial,
            probe_interval=self.config.probe_interval,
            redispatch=self.config.redispatch,
            policy=self.config.policy,
            credit_mode="arrival-span",
            mask_dead=False,
            revive_even_split=False,
            local_fallback=False,
            tile_bits=self.workload.tile_input_bits,
            storage_bits=tuple(float(n.storage_bits) for n in self.nodes),
            tile_macs=self.workload.tile_macs,
            node_macs_per_second=tuple(
                float(n.device.macs_per_second) for n in self.nodes
            ),
            result_comm_seconds=self.workload.output_bits / self.link_profile.bandwidth_bps,
            rng=self.rng,
        )

    def build_controller(self) -> CentralController:
        """A fresh controller for one ``run`` (also the conformance hook)."""
        return CentralController(len(self.nodes), self.controller_config())

    # ------------------------------------------------------------------ run
    def run(self, num_images: int) -> list[ImageRecord]:
        """Simulate ``num_images`` consecutive inferences; returns records.

        Closed-loop: every image is available at t=0 and dispatch is gated
        only by the pipelining window (the paper's bounded-batch setup).
        """
        if num_images < 1:
            raise ValueError("need at least one image")
        return self._drive(num_images, arrivals=None, queue_capacity=None).records

    def run_open_loop(
        self,
        arrival_times: Sequence[float] | np.ndarray,
        queue_capacity: int | None = None,
    ) -> OpenLoopResult:
        """Simulate an *open-loop* arrival process (serving regime).

        Images arrive at the given absolute sim-times (e.g. from
        :func:`repro.runtime.arrivals.poisson_arrival_times`) whether or not
        the pipeline has capacity.  An arrival that finds the controller's
        window full waits in a FIFO admission queue; with ``queue_capacity``
        set, an arrival that finds the queue full is *shed* (counted, never
        dispatched) instead of growing the queue without bound.  This is the
        regime where throughput-vs-offered-load and p99-under-burst curves
        are measurable — at cluster sizes the process backend can't reach.
        """
        arrivals = np.asarray(arrival_times, dtype=float)
        if arrivals.size < 1:
            raise ValueError("need at least one arrival")
        if not np.all(np.isfinite(arrivals)) or np.any(arrivals < 0):
            raise ValueError("arrival times must be finite and non-negative")
        if np.any(np.diff(arrivals) < 0):
            raise ValueError("arrival times must be sorted")
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None for unbounded)")
        return self._drive(int(arrivals.size), arrivals=arrivals, queue_capacity=queue_capacity)

    def _drive(
        self,
        num_images: int,
        arrivals: np.ndarray | None,
        queue_capacity: int | None,
    ) -> OpenLoopResult:
        sim = Simulator()
        tel = self.telemetry
        controller = self.build_controller()
        # A flight recorder (duck-typed) snapshots the controller's
        # decision journal into its dumps.
        bind = getattr(tel, "bind_decisions", None)
        if callable(bind):
            bind(controller)
        # Prefer the measured packed-buffer size for result transfers; fall
        # back to the accounted token-stream size when nothing was measured.
        out_bits = self.workload.tile_output_wire_bits or self.workload.tile_output_bits
        raw_out_bits = self.workload.tile_output_raw_bits or out_bits
        for node in self.nodes:
            node.reset()
        self.central.reset()
        k = len(self.nodes)
        if self.shared_medium:
            shared = MediumQueue(sim, self.link_profile)
            up = [shared] * k
            down = [shared] * k
        else:
            up = [MediumQueue(sim, self.link_profile) for _ in range(k)]
            down = [MediumQueue(sim, self.link_profile) for _ in range(k)]
        self._media = list({id(m): m for m in up + down}.values())

        records: list[ImageRecord] = []
        state = {"next_image": 0, "shed": 0, "next_trace": 0}
        pending: deque[float] = deque()  # open-loop arrivals awaiting admission
        # Per-request trace scopes (§5h), same schema as the process backend
        # but deterministic sim-time ids.  Kept for the whole run so spans
        # recorded after late/bounced results still join their tree.
        scopes: dict[int, TraceScope] = {}

        def handle(event: object) -> None:
            execute(controller.handle(event))  # type: ignore[arg-type]

        def dispatch_one(arrival_time: float) -> None:
            image_id = state["next_image"]
            state["next_image"] += 1
            if tel.enabled:
                # The trace starts at *arrival* (open loop) so queue wait is
                # part of the request's span tree; closed-loop images have no
                # meaningful arrival instant and start at dispatch.
                t0 = arrival_time if math.isfinite(arrival_time) else sim.now
                scope = TraceScope(state["next_trace"], t0)
                state["next_trace"] += 1
                scopes[image_id] = scope
                if math.isfinite(arrival_time) and sim.now > arrival_time:
                    tel.span(STAGE_QUEUE_WAIT, arrival_time, sim.now - arrival_time,
                             node=self.central.name, image_id=image_id,
                             **scope.child_fields())
            alive = tuple(bool(n.is_alive(sim.now)) for n in self.nodes)
            cmds = controller.handle(
                ImageReady(sim.now, image_id, self.workload.num_tiles, alive)
            )
            # The record shares the controller's live allocation array so
            # re-dispatch adjustments show through.
            records.append(
                ImageRecord(
                    image_id,
                    sim.now,
                    controller.allocation_view(image_id),
                    arrival_time=arrival_time,
                )
            )
            execute(cmds)

        def try_dispatch() -> None:
            while controller.can_dispatch:
                if arrivals is None:
                    # Closed loop: images are inexhaustible until the count
                    # runs out; keep the historical one-dispatch-per-call
                    # pacing (callers schedule one call per window slot).
                    if state["next_image"] >= num_images:
                        return
                    dispatch_one(math.nan)
                    return
                if not pending:
                    return
                dispatch_one(pending.popleft())

        def arrive() -> None:
            if tel.enabled:
                tel.count("adcnn_arrivals_total")
                tel.gauge("adcnn_admission_queue_depth", float(len(pending)))
            if queue_capacity is not None and len(pending) >= queue_capacity:
                # Load-shedding: reject at the door rather than queueing
                # unboundedly — the arrival gets no record.
                state["shed"] += 1
                if tel.enabled:
                    tel.count("adcnn_shed_total")
                return
            pending.append(sim.now)
            try_dispatch()

        def send_batch(image_id: int, node_idx: int, count: int, redispatched: bool) -> None:
            bits = count * self.workload.tile_input_bits
            t0 = sim.now

            def on_up(t: float, i: int = node_idx, c: int = count, b: float = bits,
                      t00: float = t0) -> None:
                if tel.enabled:
                    extra: dict[str, object] = {"redispatch": True} if redispatched else {}
                    scope = scopes.get(image_id)
                    if scope is not None:
                        extra.update(scope.child_fields())
                    tel.span(STAGE_TRANSFER, t00, t - t00, node=self.nodes[i].name,
                             image_id=image_id, bits=b, **extra)
                    # Input tiles ship uncompressed: raw == wire.
                    tel.count("adcnn_bits_wire_total", b, direction="up")
                    tel.count("adcnn_bits_raw_total", b, direction="up")
                handle(BatchDelivered(t, image_id, i, redispatched=redispatched))
                start_node_compute(image_id, i, c, t)

            up[node_idx].request(bits, on_up)

        def start_node_compute(image_id: int, node_idx: int, count: int, arrival: float) -> None:
            node = self.nodes[node_idx]
            failed = 0
            for _ in range(count):
                finish = node.submit(arrival, self.workload.tile_macs)
                if math.isfinite(finish):
                    if tel.enabled:
                        busy_start, busy_end = node.busy_intervals[-1]
                        scope = scopes.get(image_id)
                        tel.span(STAGE_CONV_COMPUTE, busy_start, busy_end - busy_start,
                                 node=node.name, image_id=image_id,
                                 **(scope.child_fields() if scope is not None else {}))
                    sim.schedule_at(
                        finish,
                        lambda i=image_id, n=node_idx, f=finish: down[n].request(
                            out_bits,
                            lambda t, i=i, n=n, f=f: result_arrived(i, n, f, t),
                        ),
                    )
                else:
                    failed += 1
            if failed:
                # Fail-stop supervision: the batch bounced off a dead node
                # (detected at delivery time — the transport refuses the
                # connection).  The controller decides whether survivors
                # take over or the deadline zero-fill absorbs the loss.
                alive = tuple(bool(n.is_alive(sim.now)) for n in self.nodes)
                handle(WorkerDied(sim.now, node_idx, alive, ((image_id, failed),)))

        def result_arrived(image_id: int, node_idx: int, compute_finish: float,
                           arrival: float) -> None:
            if tel.enabled:
                scope = scopes.get(image_id)
                tel.span(STAGE_RESULT_TRANSFER, compute_finish, arrival - compute_finish,
                         node=self.nodes[node_idx].name, image_id=image_id, bits=out_bits,
                         **(scope.child_fields() if scope is not None else {}))
                tel.count("adcnn_bits_wire_total", out_bits, direction="down")
                tel.count("adcnn_bits_raw_total", raw_out_bits, direction="down")
            handle(ResultReceived(arrival, image_id, node_idx, compute_finish=compute_finish))

        def emit_telemetry(cmd: EmitTelemetry) -> None:
            if not tel.enabled:
                return
            labels: dict[str, object] = {}
            if cmd.node is not None:
                labels["node"] = self.nodes[cmd.node].name
            scope = scopes.get(cmd.image_id) if cmd.image_id is not None else None
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
                    if scope is not None:
                        # Controller commands inherit the request's trace
                        # identity so scheduling events correlate with the
                        # span tree they acted on (§5h).
                        fields["trace_id"] = scope.trace_id
                fields.update(labels)
                tel.record(sim.now, cmd.metric, **fields)
                if cmd.metric == "dispatch":
                    # The Input-partition block's bookkeeping runs on the
                    # Central node; its cost is folded into the rest-layer
                    # MACs at trigger time, so the span here carries the
                    # nominal duration rather than simulated occupancy.
                    tel.span(STAGE_PARTITION, sim.now,
                             self.workload.partition_macs / self.central.device.macs_per_second,
                             node=self.central.name, image_id=cmd.image_id,
                             **(scope.child_fields() if scope is not None else {}))

        def execute(cmds: list[Command]) -> None:
            for cmd in cmds:
                if isinstance(cmd, EmitTelemetry):
                    emit_telemetry(cmd)
                elif isinstance(cmd, SendBatch):
                    send_batch(cmd.image_id, cmd.node, cmd.count, redispatched=False)
                elif isinstance(cmd, Redispatch):
                    send_batch(cmd.image_id, cmd.node, cmd.count, redispatched=True)
                elif isinstance(cmd, ArmDeadline):
                    rec = records[cmd.image_id]
                    rec.dispatch_done = sim.now
                    rec.deadline = cmd.deadline
                    sim.schedule_at(
                        cmd.deadline,
                        lambda i=cmd.image_id: handle(DeadlineFired(sim.now, i)),
                    )
                elif isinstance(cmd, TriggerMerge):
                    finish_image(records[cmd.image_id], cmd)
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unhandled controller command: {cmd!r}")

        def finish_image(rec: ImageRecord, cmd: TriggerMerge) -> None:
            rec.trigger_time = sim.now
            rec.received = np.array(cmd.received, dtype=int)
            rec.zero_filled_tiles = cmd.zero_filled
            scope = scopes.get(rec.image_id)
            if tel.enabled:
                # Zero-fill + reassembly are instantaneous in the DES; the
                # marker span keeps the stage set identical to the process
                # backend's trace.
                tel.span(STAGE_MERGE, sim.now, 0.0, node=self.central.name,
                         image_id=rec.image_id, zero_filled=int(cmd.zero_filled),
                         **(scope.child_fields() if scope is not None else {}))
            rec.completion = self.central.submit(
                sim.now, self.workload.rest_macs + self.workload.partition_macs
            )
            if tel.enabled and math.isfinite(rec.completion):
                busy_start, busy_end = (
                    self.central.busy_intervals[-1]
                    if self.central.busy_intervals
                    else (sim.now, rec.completion)
                )
                tel.span(STAGE_CENTRAL, busy_start, busy_end - busy_start,
                         node=self.central.name, image_id=rec.image_id,
                         **(scope.child_fields() if scope is not None else {}))
                done_fields: dict[str, object] = {}
                if scope is not None:
                    # Close the trace: the ``request`` root covers arrival
                    # (open loop) or dispatch (closed loop) → completion, so
                    # its duration IS the record's sojourn/latency.
                    tel.span(STAGE_REQUEST, scope.start, rec.completion - scope.start,
                             node=self.central.name, image_id=rec.image_id,
                             **scope.root_fields())
                    done_fields["trace_id"] = scope.trace_id
                tel.record(rec.completion, "image_done", image_id=rec.image_id,
                           latency=rec.latency, zero_filled=int(cmd.zero_filled),
                           **done_fields)
                tel.observe("adcnn_image_latency_seconds", rec.latency)
                if math.isfinite(rec.arrival_time):
                    # Open loop: the client-visible latency includes time
                    # spent waiting in the admission queue.
                    tel.observe("adcnn_sojourn_seconds", rec.sojourn)

            def release(image_id: int = rec.image_id) -> None:
                handle(MergeCompleted(sim.now, image_id))
                try_dispatch()

            # The pipeline window opens when the image *completes* (not at
            # trigger): Figure 9 overlaps transfer/conv of image i+1 with
            # the rest-layer stage of image i, but an unbounded in-flight
            # count would let the Central node's queue grow without limit
            # whenever the rest layers are the bottleneck stage.  A failed
            # Central returns a non-finite completion — release the window
            # immediately instead of parking it on an event that never
            # fires (which would silently stall every remaining dispatch).
            if math.isfinite(rec.completion):
                sim.schedule_at(rec.completion, release)
            else:
                sim.schedule(0.0, release)

        if arrivals is None:
            # Seed the full pipeline window: one dispatch per in-flight slot
            # (try_dispatch itself dispatches at most one image per call).
            for _ in range(self.config.pipeline_depth):
                sim.schedule(0.0, try_dispatch)
        else:
            # Open loop: the arrival process drives admission; the window
            # frees up via MergeCompleted -> try_dispatch.
            for t in arrivals:
                sim.schedule_at(float(t), arrive)
        sim.run()
        self.records = records
        horizon = max(
            [r.completion for r in records if math.isfinite(r.completion)]
            + ([float(arrivals[-1])] if arrivals is not None else [0.0])
        )
        return OpenLoopResult(
            records=records,
            offered=num_images,
            shed=state["shed"],
            horizon=horizon,
        )

    # ------------------------------------------------------------- analysis
    def mean_latency(self, skip: int = 0) -> float:
        """Average end-to-end latency (optionally skipping warm-up images).

        Records whose latency is non-finite (the Central node died before
        merging that image) are skipped rather than poisoning the mean; if
        *every* record is non-finite the failure is surfaced as an error.
        """
        lat = [r.latency for r in self.records[skip:]]
        if not lat:
            raise ValueError("no records — call run() first")
        finite = [x for x in lat if math.isfinite(x)]
        if not finite:
            raise ValueError("no finite latencies — every merge failed (dead Central node?)")
        return float(np.mean(finite))

    def total_transferred_bits(self) -> float:
        if not self._media:
            raise ValueError("no records — call run() first")
        return sum(m.transferred_bits for m in self._media)

    def makespan(self) -> float:
        """Last *finite* completion: records whose merge never finished (a
        dead Central node leaves ``inf``) are skipped, as in
        :meth:`mean_latency`."""
        finite = [r.completion for r in self.records if math.isfinite(r.completion)]
        if not finite:
            raise ValueError("no finite completions — call run() first, or every merge failed")
        return max(finite)

    def node_utilization(self) -> np.ndarray:
        """Per-Conv-node busy fraction over the run (§6.3's "nearly perfect
        utilization" claim).  Measured from first dispatch to makespan."""
        if not self.records:
            raise ValueError("no records — call run() first")
        end = self.makespan()
        window = end - self.records[0].dispatch_start
        if window <= 0:
            return np.zeros(len(self.nodes))
        return np.array([n.total_busy_time(until=end) / window for n in self.nodes])
