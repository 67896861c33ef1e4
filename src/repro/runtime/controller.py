"""The Central node's control logic as a pure state machine (DESIGN.md §5f).

Both runtime backends — the DES (:class:`repro.runtime.system.ADCNNSystem`)
and the process cluster (:class:`repro.runtime.process_backend.ProcessCluster`)
— drive one :class:`CentralController`.  The controller is I/O-free: it never
touches clocks, queues, sockets, or the simulator.  Drivers feed it *events*
(an image is ready, a tile batch landed on a node, a result came back, the
deadline timer fired, a worker died/revived, a merge finished) and execute
the *commands* it returns (send a batch, arm a deadline, re-dispatch tiles,
trigger the zero-fill merge, emit a telemetry sample).  Everything the paper
calls scheduling lives here:

- Algorithm 3 allocation + recovery-probe donation, routed through a
  pluggable :mod:`~repro.runtime.policies` policy;
- the Figure-9 pipelining window (``can_dispatch`` / in-flight accounting);
- ``T_L`` deadline arming (``deadline = dispatch_done + slack * nominal +
  t_limit``) and the zero-fill trigger when it fires;
- Algorithm 2 rate credits (two credit modes, matching the two backends'
  historical measurement styles) folded into the shared
  :class:`~repro.runtime.scheduler.StatisticsCollector`;
- fail-stop re-dispatch of a dead node's unanswered tiles.

Because the machine is pure, one recorded event trace replayed through two
differently-configured controllers must produce identical decisions — the
differential conformance tests in ``tests/test_controller.py`` assert
exactly that, and every decision is also journaled in :attr:`CentralController.decisions`.

Event timestamps (``now``) are opaque driver-clock readings: sim-time in the
DES, ``time.monotonic()`` in the process backend.  The controller only ever
subtracts them from each other or adds configured durations to them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .messages import LOCAL_WORKER
from .policies import AllocationPolicy, AllocationRequest, resolve_policy
from .scheduler import SchedulingError, StatisticsCollector

__all__ = [
    "ImageReady",
    "BatchDelivered",
    "ResultReceived",
    "DeadlineFired",
    "WorkerDied",
    "WorkerRevived",
    "MergeCompleted",
    "Event",
    "SendBatch",
    "ArmDeadline",
    "Redispatch",
    "TriggerMerge",
    "EmitTelemetry",
    "Command",
    "ControllerConfig",
    "CentralController",
    "Decision",
    "CREDIT_MODES",
    "arrival_span_credits",
    "busy_span_credits",
    "replay",
]


# ------------------------------------------------------------------- events
@dataclass(frozen=True, slots=True)
class ImageReady:
    """A new image is partitioned and ready to dispatch.

    Drivers must check :attr:`CentralController.can_dispatch` first — the
    controller refuses an image that would overflow the pipeline window.
    """

    now: float
    image_id: int
    num_tiles: int
    alive: tuple[bool, ...]


@dataclass(frozen=True, slots=True)
class BatchDelivered:
    """A tile batch finished transferring to ``node``.

    ``redispatched`` marks deliveries caused by a :class:`Redispatch`
    command; they update the node's first-arrival stamp but do not count
    toward the original dispatch completing.
    """

    now: float
    image_id: int
    node: int
    redispatched: bool = False


@dataclass(frozen=True, slots=True)
class ResultReceived:
    """``count`` tile results of one batch landed at the Central node.

    The DES reports every tile on its own (``count=1``: its medium really
    delivers them one at a time); the process backend reports each accepted
    batch once, with ``count`` the tiles it newly answered.
    ``compute_finish`` is the node-side completion stamp (arrival-span
    credits); ``busy_seconds`` is the worker-measured busy time for those
    tiles (busy-span credits).  ``node`` may be :data:`LOCAL_WORKER` for
    tiles the Central node computed itself — they count toward completion
    but earn no node credit.  Drivers drop duplicates before reporting.
    """

    now: float
    image_id: int
    node: int
    compute_finish: float = math.nan
    busy_seconds: float = 0.0
    count: int = 1


@dataclass(frozen=True, slots=True)
class DeadlineFired:
    """The timer armed by :class:`ArmDeadline` expired."""

    now: float
    image_id: int


@dataclass(frozen=True, slots=True)
class WorkerDied:
    """A node was observed dead; ``lost`` lists ``(image_id, tiles)`` it
    owned but never answered.  ``alive`` is the liveness vector *excluding*
    the dead node."""

    now: float
    node: int
    alive: tuple[bool, ...]
    lost: tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class WorkerRevived:
    """A previously-dead node was restarted by the driver."""

    now: float
    node: int


@dataclass(frozen=True, slots=True)
class MergeCompleted:
    """The merged output of an image left the Central node; its pipeline
    slot is free again."""

    now: float
    image_id: int


Event = (
    ImageReady
    | BatchDelivered
    | ResultReceived
    | DeadlineFired
    | WorkerDied
    | WorkerRevived
    | MergeCompleted
)


# ----------------------------------------------------------------- commands
@dataclass(frozen=True, slots=True)
class SendBatch:
    """Transfer ``count`` tiles of ``image_id`` to ``node``.

    ``node == LOCAL_WORKER`` asks the driver to compute the batch on the
    Central node itself (graceful degradation when no node can accept
    tiles); ``probe`` flags a recovery-probe batch.
    """

    image_id: int
    node: int
    count: int
    probe: bool = False


@dataclass(frozen=True, slots=True)
class ArmDeadline:
    """Start the ``T_L`` timer: deliver :class:`DeadlineFired` at
    ``deadline`` (absolute, on the driver's own clock)."""

    image_id: int
    deadline: float


@dataclass(frozen=True, slots=True)
class Redispatch:
    """Re-send ``count`` of a dead node's unanswered tiles to ``node``
    (``LOCAL_WORKER`` = compute them centrally)."""

    image_id: int
    node: int
    count: int


@dataclass(frozen=True, slots=True)
class TriggerMerge:
    """Stop collecting: zero-fill ``zero_filled`` missing tiles and run the
    merge + rest layers.  ``received`` is the final per-node result count."""

    image_id: int
    by_deadline: bool
    zero_filled: int
    received: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class EmitTelemetry:
    """A decision-layer telemetry sample.

    ``op`` is ``"count"``/``"gauge"``/``"record"``; the driver supplies the
    timestamp and maps the node *index* to its backend-specific label
    (``conv1`` / ``worker0``).  ``data`` carries extra record fields.
    """

    op: str
    metric: str
    value: float = 1
    node: int | None = None
    image_id: int | None = None
    data: tuple[tuple[str, object], ...] = ()


Command = SendBatch | ArmDeadline | Redispatch | TriggerMerge | EmitTelemetry


@dataclass(frozen=True, slots=True)
class Decision:
    """One journaled scheduling decision (for conformance testing)."""

    kind: str  # "allocate" | "probe" | "deadline" | "redispatch" | "trigger" | "stats"
    image_id: int
    values: tuple[float, ...]


#: Algorithm-2 credit styles; see :meth:`CentralController._credits`.
CREDIT_MODES = ("arrival-span", "busy-span")


def arrival_span_credits(
    received: np.ndarray,
    node_start: np.ndarray,
    last_finish: np.ndarray,
    window: float,
    num_tiles: int,
) -> np.ndarray:
    """``n_k`` from node-side timestamps (the DES credit style).

    Each node's within-window count is normalized by its busy span — first
    batch arrival to last completion stamp — so a node that returned its
    tiles in half the window is credited with twice the rate; a node with
    no usable span (straggler) is credited its raw count, exactly the
    paper's rule.  Credits are capped at the image's tile total.
    """
    counts = np.zeros(len(received))
    for i in range(len(received)):
        d = received[i]
        if d == 0:
            continue
        span = last_finish[i] - node_start[i]
        span = window if not math.isfinite(span) or span <= 0 else min(span, window)
        counts[i] = min(d * window / span, float(num_tiles))
    return counts


def busy_span_credits(
    received: np.ndarray,
    allocation: np.ndarray,
    busy_seconds: np.ndarray,
    window: float,
    num_tiles: int,
) -> np.ndarray:
    """``n_k`` from worker-measured busy time (the process-backend style):
    a worker that delivered its full batch in a fraction of the window is
    credited proportionally more; a worker that missed the deadline is
    credited its raw within-window count, exactly the paper's rule.
    Credits are capped at the image's tile total."""
    credits = np.zeros(len(received))
    for k in range(len(received)):
        if received[k] == 0:
            continue
        if received[k] >= allocation[k] and busy_seconds[k] > 0:
            span = min(busy_seconds[k], window)
            credits[k] = min(received[k] * window / span, float(num_tiles))
        else:
            credits[k] = float(received[k])
    return credits


# ------------------------------------------------------------------- config
@dataclass(frozen=True)
class ControllerConfig:
    """Backend-profile knobs for one :class:`CentralController`.

    The deadline is ``dispatch_done + deadline_slack * (nominal_compute +
    result_comm_seconds) + t_limit`` where ``nominal_compute`` is the
    largest per-node batch's nominal duration, ``allocation[i] * tile_macs /
    node_macs_per_second[i]``.  The process backend models no nominal term
    (``node_macs_per_second=None``) so its deadline degenerates to the
    paper's plain ``dispatch_done + T_L``.

    ``mask_dead``/``revive_even_split``/``local_fallback`` encode the
    backends' historically different liveness postures: the process backend
    masks dead workers out of the rates, restarts a fully-decayed cluster
    from an even split, and computes locally when nobody can accept tiles;
    the DES allocates on rates alone (a dead node's batch bounces and is
    re-dispatched) and lets :class:`SchedulingError` propagate.
    """

    window: int = 2
    t_limit: float = 0.030
    deadline_slack: float = 1.0
    gamma: float = 0.9
    stats_initial: float = 1.0
    probe_interval: int = 0
    redispatch: bool = False
    policy: str | AllocationPolicy = "greedy_min_max"
    credit_mode: str = "arrival-span"
    mask_dead: bool = False
    revive_even_split: bool = False
    local_fallback: bool = False
    tile_bits: float = 0.0
    storage_bits: tuple[float, ...] | None = None
    tile_macs: float = 0.0
    node_macs_per_second: tuple[float, ...] | None = None
    result_comm_seconds: float = 0.0
    rng: np.random.Generator | None = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("pipeline window must be >= 1")
        if self.credit_mode not in CREDIT_MODES:
            raise ValueError(f"credit_mode must be one of {CREDIT_MODES}, got {self.credit_mode!r}")
        if self.t_limit < 0 or self.deadline_slack < 0:
            raise ValueError("need t_limit >= 0 and deadline_slack >= 0")
        if self.probe_interval < 0:
            raise ValueError("probe_interval cannot be negative")


@dataclass
class _ImageEntry:
    """Controller-internal per-image bookkeeping."""

    image_id: int
    num_tiles: int
    dispatch_start: float
    allocation: np.ndarray
    received: np.ndarray
    node_start: np.ndarray
    last_finish: np.ndarray
    busy_seconds: np.ndarray
    pending_batches: int = 0
    results_landed: int = 0
    dispatch_done: float = math.nan
    deadline: float = math.nan
    triggered: bool = False


# --------------------------------------------------------------- controller
class CentralController:
    """Events in, commands out — see the module docstring for the protocol.

    The controller persists across streams (the process backend reuses one
    instance for every ``infer_stream`` call, carrying ``s_k`` forward);
    the DES builds a fresh one per ``run``.  ``handle`` must be called with
    events in driver-observed order; it never blocks and never raises for
    stale events (unknown/retired image ids are ignored).
    """

    def __init__(self, num_nodes: int, config: ControllerConfig | None = None) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self.config = config if config is not None else ControllerConfig()
        if (
            self.config.node_macs_per_second is not None
            and len(self.config.node_macs_per_second) != num_nodes
        ):
            raise ValueError("node_macs_per_second must have one entry per node")
        self._policy: AllocationPolicy = resolve_policy(self.config.policy)
        self._stats = StatisticsCollector(
            num_nodes,
            gamma=self.config.gamma,
            initial=self.config.stats_initial,
            probe_interval=self.config.probe_interval,
        )
        self._window = self.config.window
        self._in_flight = 0
        self._images: dict[int, _ImageEntry] = {}
        #: Journal of every scheduling decision, in order (conformance).
        self.decisions: list[Decision] = []

    # ------------------------------------------------------------ inspection
    @property
    def window(self) -> int:
        return self._window

    def set_window(self, depth: int) -> None:
        """Resize the pipeline window (per-stream knob in the process backend)."""
        if depth < 1:
            raise ValueError("pipeline window must be >= 1")
        self._window = depth

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def can_dispatch(self) -> bool:
        """True when the Figure-9 pipeline window has a free slot.

        This is also the admission-control signal for open-loop serving:
        arrivals are *not* scheduled by the controller, so a driver feeding
        it an arrival process (Poisson, trace, live clients) simply holds
        images back — in a bounded queue, shedding beyond it — until this
        flips true.
        """
        return self._in_flight < self._window

    @property
    def inflight_images(self) -> tuple[int, ...]:
        """Ids of images currently in flight, oldest dispatch first.

        Serving drains use this to account for every admitted image when
        shutting down (finish these, then stop the cluster).
        """
        return tuple(self._images)

    def rates(self) -> np.ndarray:
        """Current Algorithm-2 ``s_k`` estimates (copy)."""
        return self._stats.rates()

    def allocation_view(self, image_id: int) -> np.ndarray:
        """The *live* per-node allocation array for an in-flight image.

        Deliberately not a copy: re-dispatch decisions mutate it in place,
        so driver-side records sharing the array stay current.
        """
        return self._images[image_id].allocation

    # ---------------------------------------------------------------- events
    def handle(self, event: Event) -> list[Command]:
        """Advance the machine by one event; returns commands to execute, in order."""
        if isinstance(event, ImageReady):
            return self._on_image_ready(event)
        if isinstance(event, BatchDelivered):
            return self._on_batch_delivered(event)
        if isinstance(event, ResultReceived):
            return self._on_result_received(event)
        if isinstance(event, DeadlineFired):
            return self._on_deadline_fired(event)
        if isinstance(event, WorkerDied):
            return self._on_worker_died(event)
        if isinstance(event, WorkerRevived):
            return self._on_worker_revived(event)
        if isinstance(event, MergeCompleted):
            return self._on_merge_completed(event)
        raise TypeError(f"unknown controller event: {event!r}")

    # ---------------------------------------------------------------- phases
    def _on_image_ready(self, ev: ImageReady) -> list[Command]:
        if not self.can_dispatch:
            raise RuntimeError(
                "pipeline window is full — drivers must check can_dispatch before ImageReady"
            )
        if ev.image_id in self._images:
            raise ValueError(f"image {ev.image_id} is already in flight")
        if len(ev.alive) != self.num_nodes:
            raise ValueError("alive vector must have one entry per node")
        self._in_flight += 1
        allocation, probes = self._plan_dispatch(ev.image_id, ev.num_tiles, ev.alive)
        fallback = allocation is None
        entry = _ImageEntry(
            image_id=ev.image_id,
            num_tiles=ev.num_tiles,
            dispatch_start=ev.now,
            allocation=(
                allocation
                if allocation is not None
                else np.zeros(self.num_nodes, dtype=int)
            ),
            received=np.zeros(self.num_nodes, dtype=int),
            node_start=np.full(self.num_nodes, math.nan),
            last_finish=np.full(self.num_nodes, math.nan),
            busy_seconds=np.zeros(self.num_nodes),
        )
        self._images[ev.image_id] = entry
        self.decisions.append(
            Decision("allocate", ev.image_id, tuple(float(a) for a in entry.allocation))
        )
        alloc_field: tuple[int, ...] = (
            () if fallback else tuple(int(a) for a in entry.allocation)
        )
        cmds: list[Command] = [
            EmitTelemetry(
                "record", "dispatch", image_id=ev.image_id, data=(("allocation", alloc_field),)
            )
        ]
        rates_now = self._stats.rates()
        for i in range(self.num_nodes):
            cmds.append(
                EmitTelemetry("gauge", "adcnn_scheduler_share", float(rates_now[i]), node=i)
            )
            if not fallback and entry.allocation[i] > 0:
                cmds.append(
                    EmitTelemetry(
                        "count",
                        "adcnn_tiles_dispatched_total",
                        int(entry.allocation[i]),
                        node=i,
                    )
                )
        if fallback:
            cmds.append(SendBatch(ev.image_id, LOCAL_WORKER, ev.num_tiles))
        else:
            for i in range(self.num_nodes):
                if entry.allocation[i] > 0:
                    cmds.append(
                        SendBatch(ev.image_id, i, int(entry.allocation[i]), probe=i in probes)
                    )
            entry.pending_batches = int((entry.allocation > 0).sum())
        if entry.pending_batches == 0:
            # Degenerate (nothing allocated) or central-local dispatch: the
            # transfer stage is skipped, so the deadline arms immediately.
            entry.dispatch_done = ev.now
            cmds.append(self._arm_deadline(entry))
        return cmds

    def _plan_dispatch(
        self, image_id: int, num_tiles: int, alive: tuple[bool, ...]
    ) -> tuple[np.ndarray | None, set[int]]:
        """Policy allocation + recovery-probe donation (Algorithm 3 + probes)."""
        cfg = self.config
        alive_arr = np.asarray(alive, dtype=bool)
        rates = self._stats.rates()
        if cfg.mask_dead:
            rates = np.where(alive_arr, rates, 0.0)
            if cfg.revive_even_split and alive_arr.any() and not (rates > 1e-9).any():
                # Every survivor fully decayed (all stragglers or freshly
                # restarted): restart from an even split rather than
                # abandoning the cluster.
                rates = np.where(alive_arr, 1.0, 0.0)
        request = AllocationRequest(
            num_tiles=num_tiles,
            rates=rates,
            alive=alive_arr,
            tile_bits=cfg.tile_bits,
            storage_bits=(
                None if cfg.storage_bits is None else np.asarray(cfg.storage_bits, dtype=float)
            ),
            rng=cfg.rng,
        )
        try:
            allocation = np.asarray(self._policy(request))
        except SchedulingError:
            if not cfg.local_fallback:
                raise
            return None, set()
        if allocation.shape != (self.num_nodes,) or (allocation < 0).any():
            raise SchedulingError(
                f"policy returned an invalid allocation {allocation!r} for {self.num_nodes} nodes"
            )
        if int(allocation.sum()) != num_tiles:
            raise SchedulingError(
                f"policy allocated {int(allocation.sum())} tiles, expected {num_tiles}"
            )
        probes: set[int] = set()
        # Recovery probes: a revived node whose s_k decayed to ~0 gets one
        # tile so it can re-earn share (the paper's EWMA alone pins a
        # recovered node at zero forever).
        for probe in self._stats.probe_due(alive_arr, allocation):
            donor = int(np.argmax(allocation))
            if donor == probe or allocation[donor] < 2:
                continue  # never drain the donor itself to zero
            allocation[donor] -= 1
            allocation[probe] += 1
            probes.add(probe)
            self._stats.note_probe(probe)
            self.decisions.append(Decision("probe", image_id, (float(probe), float(donor))))
        return allocation, probes

    def _arm_deadline(self, entry: _ImageEntry) -> ArmDeadline:
        cfg = self.config
        if cfg.node_macs_per_second is None:
            nominal_compute = 0.0
        else:
            nominal_compute = max(
                (
                    entry.allocation[i] * cfg.tile_macs / cfg.node_macs_per_second[i]
                    for i in range(self.num_nodes)
                    if entry.allocation[i] > 0
                ),
                default=0.0,
            )
        # The completion estimate budgets result transfer too — on a slow
        # link the wire, not the CPU, is the long pole.
        nominal = nominal_compute + cfg.result_comm_seconds
        entry.deadline = entry.dispatch_done + cfg.deadline_slack * nominal + cfg.t_limit
        self.decisions.append(
            Decision(
                "deadline", entry.image_id, (float(entry.deadline - entry.dispatch_done),)
            )
        )
        return ArmDeadline(entry.image_id, float(entry.deadline))

    def _on_batch_delivered(self, ev: BatchDelivered) -> list[Command]:
        entry = self._images.get(ev.image_id)
        if entry is None:
            return []  # delivery raced past the image's retirement
        if 0 <= ev.node < self.num_nodes and not math.isfinite(entry.node_start[ev.node]):
            entry.node_start[ev.node] = ev.now
        if ev.redispatched:
            return []
        entry.pending_batches -= 1
        if entry.pending_batches == 0:
            entry.dispatch_done = ev.now
            return [self._arm_deadline(entry)]
        return []

    def _on_result_received(self, ev: ResultReceived) -> list[Command]:
        entry = self._images.get(ev.image_id)
        if entry is None or entry.triggered:
            return []  # late result past the deadline — already zero-filled
        if 0 <= ev.node < self.num_nodes:
            entry.received[ev.node] += ev.count
            # Results carry the node-side completion timestamp; rate credits
            # should reflect compute speed, not medium queueing noise.
            entry.last_finish[ev.node] = ev.compute_finish
            entry.busy_seconds[ev.node] += ev.busy_seconds
        entry.results_landed += ev.count
        if entry.results_landed == entry.num_tiles:
            return self._trigger(entry, ev.now, by_deadline=False)
        return []

    def _on_deadline_fired(self, ev: DeadlineFired) -> list[Command]:
        entry = self._images.get(ev.image_id)
        if entry is None or entry.triggered:
            return []
        return self._trigger(entry, ev.now, by_deadline=True)

    def _trigger(self, entry: _ImageEntry, now: float, by_deadline: bool) -> list[Command]:
        entry.triggered = True
        zero_filled = entry.num_tiles - entry.results_landed
        self._stats.update(self._credits(entry, now))
        self.decisions.append(
            Decision("trigger", entry.image_id, (float(by_deadline), float(zero_filled)))
        )
        self.decisions.append(
            Decision("stats", entry.image_id, tuple(float(s) for s in self._stats.rates()))
        )
        cmds: list[Command] = []
        if by_deadline:
            cmds.append(EmitTelemetry("count", "adcnn_deadline_triggers_total"))
            cmds.append(
                EmitTelemetry(
                    "record",
                    "deadline",
                    image_id=entry.image_id,
                    data=(("zero_filled", zero_filled),),
                )
            )
        if zero_filled:
            cmds.append(
                EmitTelemetry("count", "adcnn_tiles_zero_filled_total", zero_filled)
            )
        cmds.append(
            TriggerMerge(
                entry.image_id,
                by_deadline,
                zero_filled,
                tuple(int(r) for r in entry.received),
            )
        )
        return cmds

    def _credits(self, entry: _ImageEntry, now: float) -> np.ndarray:
        """The ``n_k`` fed to Algorithm 2.

        The paper counts results received within the window.  Raw counts can
        only shrink a node's share (a fast node that finishes its batch early
        still reports ``n_k = x_k``), so both modes normalize by how long the
        node actually took; when a node uses the full window — the straggler
        case the paper targets — both reduce exactly to the paper's count.
        Credits are capped at the image's tile total.

        ``"arrival-span"`` (DES) spans first batch arrival → last node-side
        completion stamp.  ``"busy-span"`` (process backend) uses the
        worker-measured busy seconds when the full batch came back, and the
        raw within-window count otherwise.
        """
        if self.config.credit_mode == "arrival-span":
            window = max(now - entry.dispatch_done, 1e-9)
            return arrival_span_credits(
                entry.received, entry.node_start, entry.last_finish, window, entry.num_tiles
            )
        window = max(now - entry.dispatch_done, 1e-6)
        return busy_span_credits(
            entry.received, entry.allocation, entry.busy_seconds, window, entry.num_tiles
        )

    def _on_worker_died(self, ev: WorkerDied) -> list[Command]:
        """Fail-stop supervision: re-dispatch a dead node's unanswered tiles.

        Without ``redispatch`` the tiles stay lost and are zero-filled at
        the deadline — the paper's story.
        """
        cfg = self.config
        if not cfg.redispatch:
            return []
        alive = np.asarray(ev.alive, dtype=bool).copy()
        if 0 <= ev.node < self.num_nodes:
            alive[ev.node] = False
        cmds: list[Command] = []
        for image_id, count in ev.lost:
            entry = self._images.get(image_id)
            if entry is None or entry.triggered or count <= 0:
                continue
            if not alive.any():
                if cfg.local_fallback:
                    # No survivors left: the Central node computes the tiles.
                    cmds.append(Redispatch(image_id, LOCAL_WORKER, count))
                    self.decisions.append(
                        Decision(
                            "redispatch",
                            image_id,
                            (float(ev.node), float(LOCAL_WORKER), float(count)),
                        )
                    )
                continue  # nobody left — deadline zero-fill will handle it
            cmds.append(EmitTelemetry("count", "adcnn_redispatch_total", count))
            cmds.append(
                EmitTelemetry(
                    "record",
                    "redispatch",
                    node=ev.node,
                    image_id=image_id,
                    data=(("tiles", count),),
                )
            )
            rates = np.where(alive, np.maximum(self._stats.rates(), 1e-6), 0.0)
            extra = np.asarray(
                self._policy(
                    AllocationRequest(num_tiles=count, rates=rates, alive=alive)
                )
            )
            entry.allocation[ev.node] -= count
            for idx in range(self.num_nodes):
                if extra[idx] > 0:
                    entry.allocation[idx] += int(extra[idx])
                    cmds.append(Redispatch(image_id, idx, int(extra[idx])))
            self.decisions.append(
                Decision(
                    "redispatch",
                    image_id,
                    (float(ev.node),) + tuple(float(x) for x in extra),
                )
            )
        return cmds

    def _on_worker_revived(self, ev: WorkerRevived) -> list[Command]:
        return [
            EmitTelemetry("count", "adcnn_worker_restarts_total", node=ev.node),
            EmitTelemetry("record", "restart", node=ev.node),
        ]

    def _on_merge_completed(self, ev: MergeCompleted) -> list[Command]:
        entry = self._images.pop(ev.image_id, None)
        if entry is not None:
            self._in_flight -= 1
        return []


def replay(controller: CentralController, trace: Iterable[Event]) -> list[Command]:
    """Feed a recorded event trace through a controller; concatenated commands.

    The differential conformance harness: build two controllers (one per
    backend profile), replay the same trace through both, and compare the
    returned commands and :attr:`CentralController.decisions` journals.
    """
    commands: list[Command] = []
    for event in trace:
        commands.extend(controller.handle(event))
    return commands
