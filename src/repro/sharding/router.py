"""Two-tier fan-out: one :class:`ClusterRouter` over N independent clusters.

The router is the second supervision tier the ADCNN paper's single-Central
design lacks: worker death inside a cluster is the cluster controller's
business (re-dispatch, worker restart, Algorithm-2 masking); *cluster*
death is the router's.  Per cluster it runs the state machine

    up ──death──▶ restarting ──backoff elapsed──▶ probation ──probe ok──▶ up
     │                │                               │
     │ (restarts/failures exhausted)                  └──death──▶ restarting/down
     └──────────────▶ down ◀──────────────────────────┘

with capped exponential backoff between restarts, a single live probe
image to revalidate a restarted shard before it rejoins the routable set,
and mark-down (terminal ``down``) once ``mark_down_after`` consecutive
failures or the restart budget are exhausted.  Images in flight on a dying
shard are re-routed to siblings carrying their original
:class:`~repro.telemetry.TraceContext` — the span tree stays singly rooted
because only the completing cluster emits the ``request`` root — and an
image whose re-route budget or sibling pool runs out resolves as a typed
:class:`~repro.sharding.handle.ShardFailure`, never a hang.

The router itself satisfies :class:`~repro.sharding.handle.ClusterHandle`,
so :class:`~repro.serving.ServingFrontEnd` drives a sharded topology with
the exact driver loop it uses for one cluster.
"""

from __future__ import annotations

import itertools
import select
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.runtime.process_backend import InferenceOutcome
from repro.telemetry import (
    NullRecorder,
    Recorder,
    RouterHealth,
    ShardHealth,
    TraceContext,
)

from .handle import ClusterDown, ClusterHandle, ShardFailure
from .policies import RoutingPolicy, RoutingRequest, resolve_routing_policy

__all__ = ["RouterConfig", "ClusterRouter", "STATE_UP", "STATE_DOWN",
           "STATE_RESTARTING", "STATE_PROBATION"]

STATE_UP = "up"
STATE_DOWN = "down"
STATE_RESTARTING = "restarting"
STATE_PROBATION = "probation"


@dataclass(frozen=True)
class RouterConfig:
    """Supervision + routing knobs for one :class:`ClusterRouter`."""

    #: Routing policy: registry name or a callable (see
    #: :mod:`repro.sharding.policies`).
    policy: str | RoutingPolicy = "least_outstanding"
    #: Consecutive whole-cluster failures before the shard is marked down
    #: for good (probe success resets the count).
    mark_down_after: int = 3
    #: Fresh incarnations the router may build per shard.
    max_restarts: int = 1
    #: Base restart backoff, doubled per restart up to the cap (seconds).
    restart_backoff: float = 0.5
    restart_backoff_cap: float = 10.0
    #: Re-validate a restarted shard with one live image before it rejoins
    #: the routable set; ``False`` returns it straight to ``up``.
    probe_revival: bool = True
    #: Times one image may be re-routed to a sibling before it resolves as
    #: a :class:`ShardFailure`.
    max_reroutes: int = 2
    #: Idle-wait bound when no shard's pipe becomes ready (seconds).
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        # Fail fast on unknown policy names — a spec with a typo should die
        # at construction, not when the first image needs routing.
        resolve_routing_policy(self.policy)
        if self.mark_down_after < 1:
            raise ValueError("mark_down_after must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.restart_backoff < 0 or self.restart_backoff_cap < self.restart_backoff:
            raise ValueError("need 0 <= restart_backoff <= restart_backoff_cap")
        if self.max_reroutes < 0:
            raise ValueError("max_reroutes must be >= 0")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


@dataclass
class _RouterRequest:
    """One image in flight at the router tier (survives cluster death)."""

    image: np.ndarray
    trace: TraceContext | None
    client: str
    model: str
    cluster: int = -1       # current cluster index; -1 while parked
    local_id: int = -1      # image id within that cluster
    reroutes: int = 0
    probe: bool = False
    last_cluster: str = ""


class ClusterRouter:
    """Fan a stream of images across N cluster handles (ClusterHandle itself).

    Thread model matches :class:`~repro.runtime.process_backend.StreamEngine`:
    all calls from one driver thread.  The router keeps each in-flight
    image's original array precisely so whole-cluster death is survivable —
    the cluster tier's pipes die with the cluster, but the
    router can re-dispatch from its own copy.
    """

    def __init__(
        self,
        handles: list[ClusterHandle],
        config: RouterConfig | None = None,
        telemetry: Recorder | None = None,
        *,
        weights: list[float] | None = None,
        name: str = "router",
    ) -> None:
        if not handles:
            raise ValueError("router needs at least one cluster handle")
        names = [h.name for h in handles]
        if len(set(names)) != len(names):
            raise ValueError(f"cluster names must be unique, got {names}")
        if weights is not None and len(weights) != len(handles):
            raise ValueError("need one weight per cluster")
        self.name = name
        self.config = config or RouterConfig()
        self._handles = list(handles)
        self._names = tuple(names)
        self._weights = tuple(float(w) for w in (weights or [1.0] * len(handles)))
        self._policy = resolve_routing_policy(self.config.policy)
        self._policy_name = (
            self.config.policy if isinstance(self.config.policy, str)
            else getattr(self.config.policy, "__name__", "custom")
        )
        self._telemetry: Recorder = telemetry if telemetry is not None else NullRecorder()
        self._state = [STATE_UP for _ in handles]
        self._fail_counts = [0 for _ in handles]
        self._restarts_done = [0 for _ in handles]
        self._restart_at: list[float | None] = [None for _ in handles]
        self._probing: set[int] = set()
        self._requests: dict[int, _RouterRequest] = {}
        self._local: dict[tuple[int, int], int] = {}
        self._parked: deque[int] = deque()
        #: Typed failures minted outside a pump call (supervision triggered
        #: from dispatch) wait here; pump() delivers them exactly once.
        self._failed_outbox: list[tuple[int, ShardFailure]] = []
        self._rids = itertools.count()
        self._trace_ids = itertools.count()
        self._started = False
        self._draining_parked = False
        self._dispatched = 0
        self._rerouted = 0
        self._failed = 0

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "ClusterRouter":
        if self._started:
            raise RuntimeError("router already started")
        started: list[ClusterHandle] = []
        try:
            for handle in self._handles:
                handle.start()
                started.append(handle)
        except BaseException:
            for handle in started:
                try:
                    handle.stop()
                except Exception:
                    pass  # roll back as far as possible; the original error wins
            raise
        self._state = [STATE_UP for _ in self._handles]
        self._started = True
        return self

    def stop(self) -> None:
        """Tear every shard down (in-flight bookkeeping is the driver's to
        resolve before calling this — see ``ServingFrontEnd._abandon``)."""
        self._started = False
        for handle in self._handles:
            try:
                handle.stop()
            except Exception:
                pass  # fail-safe teardown: one wrecked shard must not leak the rest

    def alive(self) -> bool:
        return self._started and not self.terminal

    @property
    def terminal(self) -> bool:
        """True when no shard is routable now or ever again (all down)."""
        return all(s == STATE_DOWN for s in self._state)

    def __enter__(self) -> "ClusterRouter":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ---------------------------------------------------------- introspection
    @property
    def telemetry(self) -> Recorder:
        return self._telemetry

    def validate_image(self, image: np.ndarray) -> np.ndarray:
        return self._handles[0].validate_image(image)

    def mint_trace(self, start: float) -> TraceContext:
        """Router-minted trace ids — one namespace across every shard.

        Per-cluster counters all start at zero, so with a shared recorder
        two shards minting their own ids would collide; every traced image
        entering through the router gets its id here instead.
        """
        return TraceContext(trace_id=next(self._trace_ids), start=start)

    def cluster_states(self) -> dict[str, str]:
        """Shard name → supervision state (tests and dashboards)."""
        return dict(zip(self._names, self._state))

    def health(self) -> RouterHealth:
        shards = []
        for idx, handle in enumerate(self._handles):
            snapshot = None
            if self._state[idx] in (STATE_UP, STATE_PROBATION) and handle.alive():
                try:
                    snapshot = handle.health()
                except Exception:
                    snapshot = None  # racing with death; supervision will notice
            shards.append(
                ShardHealth(
                    name=self._names[idx],
                    state=self._state[idx],
                    in_flight=sum(
                        1 for r in self._requests.values() if r.cluster == idx
                    ),
                    restarts=self._restarts_done[idx],
                    consecutive_failures=self._fail_counts[idx],
                    cluster=snapshot,
                )
            )
        return RouterHealth(
            shards=tuple(shards),
            policy=str(self._policy_name),
            in_flight=len(self._requests),
            images_dispatched=self._dispatched,
            rerouted=self._rerouted,
            failed=self._failed,
        )

    # ---------------------------------------------------------------- routing
    @property
    def can_dispatch(self) -> bool:
        return bool(self._candidates()) or self._probe_target() is not None

    @property
    def in_flight(self) -> int:
        return len(self._requests)

    def _candidates(self) -> list[int]:
        return [
            idx
            for idx, handle in enumerate(self._handles)
            if self._state[idx] == STATE_UP and handle.alive() and handle.can_dispatch
        ]

    def _probe_target(self) -> int | None:
        for idx, handle in enumerate(self._handles):
            if (
                self._state[idx] == STATE_PROBATION
                and idx not in self._probing
                and handle.alive()
                and handle.can_dispatch
            ):
                return idx
        return None

    def _choose(self, candidates: list[int], client: str, model: str) -> int:
        request = RoutingRequest(
            candidates=tuple(candidates),
            names=self._names,
            outstanding=tuple(
                sum(1 for r in self._requests.values() if r.cluster == idx)
                for idx in range(len(self._handles))
            ),
            weights=self._weights,
            health=tuple(
                handle.health()
                if self._state[idx] == STATE_UP and handle.alive()
                else None
                for idx, handle in enumerate(self._handles)
            ),
            sequence=self._dispatched,
            client=client,
            model=model,
        )
        choice = int(self._policy(request))
        if choice not in candidates:
            raise ValueError(
                f"routing policy {self._policy_name!r} chose non-candidate {choice}"
            )
        return choice

    def dispatch(
        self,
        image: np.ndarray,
        trace: TraceContext | None = None,
        *,
        client: str = "",
        model: str = "",
    ) -> int:
        """Route one validated image; returns its router-level request id.

        Check :attr:`can_dispatch` first.  A shard dying *during* placement
        is absorbed: the image parks and :meth:`pump` re-places it, so the
        returned id is always live in exactly one of (a shard's window, the
        parked queue, the failure outbox) until pump yields its outcome or
        failure.
        """
        self._supervise()
        if self._telemetry.enabled and trace is None:
            trace = self.mint_trace(time.perf_counter())
        rid = next(self._rids)
        request = _RouterRequest(image=image, trace=trace, client=client, model=model)
        self._requests[rid] = request
        self._dispatched += 1
        # A shard on probation claims the next image as its probe even when
        # healthy siblings exist — otherwise an up sibling would starve
        # revival forever.  The re-route budget protects the probe image if
        # the shard is still bad.
        probe_idx = self._probe_target()
        while True:
            if probe_idx is not None:
                placed = self._place(rid, request, probe_idx, probe=True)
            else:
                candidates = self._candidates()
                if not candidates:
                    # Park it: pump() re-places once capacity or a restart
                    # shows up, or fails it typed when nothing can revive.
                    self._parked.append(rid)
                    self._drain_parked()
                    return rid
                placed = self._place(
                    rid, request, self._choose(candidates, client, model)
                )
            if placed:
                return rid
            probe_idx = None  # placement killed a shard; re-derive targets

    def _place(
        self, rid: int, request: _RouterRequest, idx: int, probe: bool = False
    ) -> bool:
        handle = self._handles[idx]
        try:
            local_id = handle.dispatch(request.image, trace=request.trace)
        except ClusterDown:
            self._on_cluster_death(idx)
            return False
        request.cluster = idx
        request.local_id = local_id
        request.probe = probe
        request.last_cluster = self._names[idx]
        self._local[(idx, local_id)] = rid
        if probe:
            self._probing.add(idx)
        tel = self._telemetry
        if tel.enabled:
            tel.count("adcnn_router_dispatch_total", cluster=self._names[idx])
            tel.gauge("adcnn_router_in_flight", float(len(self._requests)))
        return True

    # --------------------------------------------------------------- pumping
    def pump(
        self, block: bool = True
    ) -> list[tuple[int, "InferenceOutcome | ShardFailure"]]:
        """Advance every live shard; returns finished ``(id, outcome)`` pairs.

        Outcomes are :class:`InferenceOutcome` on success and
        :class:`ShardFailure` for images supervision gave up on.  When
        ``block`` and nothing finished, parks on *all* shards' pipes at once
        (bounded by ``poll_interval`` and the earliest pending restart), so
        a result anywhere, or room for a queued task frame, wakes the driver
        immediately.
        """
        done: list[tuple[int, InferenceOutcome | ShardFailure]] = []
        self._supervise()
        for idx, handle in enumerate(self._handles):
            if self._state[idx] not in (STATE_UP, STATE_PROBATION):
                continue
            try:
                pairs = handle.pump(block=False)
            except ClusterDown:
                self._on_cluster_death(idx)
                continue
            for local_id, outcome in pairs:
                rid = self._local.pop((idx, local_id), None)
                if rid is None:
                    continue  # pragma: no cover - bookkeeping is driver-private
                request = self._requests.pop(rid)
                if request.probe:
                    self._on_probe_success(idx)
                done.append((rid, outcome))
        self._supervise()
        if self._failed_outbox:
            done.extend(self._failed_outbox)
            self._failed_outbox.clear()
        if done and self._telemetry.enabled:
            self._telemetry.gauge(
                "adcnn_router_in_flight", float(len(self._requests))
            )
        if done or not block or not self._requests:
            return done
        self._idle_wait()
        return self.pump(block=False)

    def _idle_wait(self) -> None:
        timeout = self.config.poll_interval
        now = time.monotonic()
        for at in self._restart_at:
            if at is not None:
                timeout = min(timeout, max(at - now, 0.0))
        poller = select.poll()
        waiting = False
        for idx, handle in enumerate(self._handles):
            if self._state[idx] not in (STATE_UP, STATE_PROBATION):
                continue
            wait_set = getattr(handle, "wait_set", None)
            if callable(wait_set):
                for fd, events in wait_set():
                    poller.register(fd, events)
                    waiting = True
        if not waiting:
            if timeout > 0:
                time.sleep(timeout)
            return
        # Wakes on a result anywhere, or on room for a shard's queued task
        # frame: a frame larger than its pipe moves one pipe-full per wake.
        poller.poll(timeout * 1000.0)

    # ------------------------------------------------------------ supervision
    def _supervise(self) -> None:
        now = time.monotonic()
        for idx, handle in enumerate(self._handles):
            state = self._state[idx]
            if state in (STATE_UP, STATE_PROBATION) and not handle.alive():
                self._on_cluster_death(idx)
            elif state == STATE_RESTARTING:
                at = self._restart_at[idx]
                if at is not None and now >= at:
                    self._do_restart(idx)
        self._drain_parked()

    def _on_cluster_death(self, idx: int) -> None:
        if self._state[idx] in (STATE_DOWN, STATE_RESTARTING):
            return  # already being handled
        name = self._names[idx]
        self._fail_counts[idx] += 1
        self._probing.discard(idx)
        tel = self._telemetry
        if tel.enabled:
            tel.count("adcnn_router_cluster_down_total", cluster=name)
            tel.record(time.perf_counter(), "cluster_down", cluster=name,
                       failures=self._fail_counts[idx])
        # Reclaim every image the dead shard held: the shard-side state is
        # gone, but the router kept the arrays — park them for re-route,
        # oldest first, ahead of anything already parked.
        victims = sorted(
            (rid for (c, _lid), rid in self._local.items() if c == idx)
        )
        for rid in victims:
            request = self._requests[rid]
            del self._local[(idx, request.local_id)]
            request.cluster = -1
            request.local_id = -1
            request.probe = False
            request.last_cluster = name
        self._parked.extendleft(reversed(victims))
        if (
            self._fail_counts[idx] < self.config.mark_down_after
            and self._restarts_done[idx] < self.config.max_restarts
        ):
            backoff = min(
                self.config.restart_backoff * (2 ** self._restarts_done[idx]),
                self.config.restart_backoff_cap,
            )
            self._state[idx] = STATE_RESTARTING
            self._restart_at[idx] = time.monotonic() + backoff
        else:
            self._state[idx] = STATE_DOWN
            self._restart_at[idx] = None
        self._drain_parked()

    def _do_restart(self, idx: int) -> None:
        handle = self._handles[idx]
        name = self._names[idx]
        self._restart_at[idx] = None
        try:
            restart = getattr(handle, "restart", None)
            if not callable(restart):
                raise ClusterDown(name, "handle is not restartable")
            restart()
        except Exception:
            self._state[idx] = STATE_UP  # let the death path re-run the budget
            self._on_cluster_death(idx)
            return
        self._restarts_done[idx] += 1
        tel = self._telemetry
        if tel.enabled:
            tel.count("adcnn_router_cluster_restart_total", cluster=name)
            tel.record(time.perf_counter(), "cluster_restart", cluster=name,
                       incarnation=self._restarts_done[idx])
        self._state[idx] = STATE_PROBATION if self.config.probe_revival else STATE_UP
        if not self.config.probe_revival:
            self._fail_counts[idx] = 0

    def _on_probe_success(self, idx: int) -> None:
        self._probing.discard(idx)
        if self._state[idx] != STATE_PROBATION:
            return
        self._state[idx] = STATE_UP
        self._fail_counts[idx] = 0
        tel = self._telemetry
        if tel.enabled:
            tel.count("adcnn_router_probe_total", cluster=self._names[idx])
            tel.record(time.perf_counter(), "probe_success", cluster=self._names[idx])

    def _any_revivable(self) -> bool:
        return any(s != STATE_DOWN for s in self._state)

    def _drain_parked(self) -> None:
        """Re-place parked images, or fail them when no avenue remains.

        Invariant on exit: every parked image is either placed on a shard,
        failed into the outbox, or legitimately waiting on future capacity
        / a pending restart — so no request can be silently stranded.
        """
        if self._draining_parked:
            return  # _place -> death -> _drain_parked re-entrancy guard
        self._draining_parked = True
        try:
            while self._parked:
                rid = self._parked[0]
                request = self._requests.get(rid)
                if request is None:  # pragma: no cover - failed while parked
                    self._parked.popleft()
                    continue
                if request.reroutes >= self.config.max_reroutes:
                    self._parked.popleft()
                    self._fail(rid, request, "re-route budget exhausted")
                    continue
                candidates = self._candidates()
                probe_idx = None if candidates else self._probe_target()
                if candidates or probe_idx is not None:
                    self._parked.popleft()
                    request.reroutes += 1
                    if probe_idx is not None:
                        placed = self._place(rid, request, probe_idx, probe=True)
                    else:
                        placed = self._place(
                            rid, request,
                            self._choose(candidates, request.client, request.model),
                        )
                    if placed:
                        self._rerouted += 1
                        if self._telemetry.enabled:
                            self._telemetry.count(
                                "adcnn_router_reroute_total",
                                cluster=request.last_cluster,
                            )
                    else:
                        request.reroutes -= 1  # placement death is not the image's fault
                        self._parked.appendleft(rid)
                elif not self._any_revivable():
                    self._parked.popleft()
                    self._fail(rid, request, "no routable cluster remains")
                else:
                    break  # wait for a restart or for window capacity
        finally:
            self._draining_parked = False

    def _fail(self, rid: int, request: _RouterRequest, reason: str) -> None:
        self._requests.pop(rid, None)
        self._failed += 1
        tel = self._telemetry
        if tel.enabled:
            tel.count("adcnn_router_failed_total",
                      cluster=request.last_cluster or self.name)
        self._failed_outbox.append(
            (rid, ShardFailure(
                cluster=request.last_cluster or self.name,
                reason=reason,
                reroutes=request.reroutes,
            ))
        )
