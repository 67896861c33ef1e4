"""Continuous multi-client serving front-end over a :class:`ClusterHandle`.

The paper's runtime (and ``ProcessCluster.infer_stream``) is closed-loop: a
bounded batch is known up front and the driver loops until it drains.  A
deployed edge cluster instead faces an *open-loop* arrival process — images
arrive from many clients whether or not the pipeline has capacity.  This
module adds that serving regime without touching the controller's
decision logic (DESIGN.md §5g):

- :class:`ServingFrontEnd` owns the cluster lifecycle and a single driver
  thread that pulls admitted images from a bounded FIFO queue and feeds
  them through a :class:`~repro.sharding.ClusterHandle` — the
  controller's Figure-9 pipelining window *is* the admission-control
  signal, so in-flight concurrency never exceeds the window.  The handle
  seam (DESIGN.md §5k) means the same driver loop serves one
  :class:`ProcessCluster` or a whole
  :class:`~repro.sharding.ClusterRouter` of them — the front-end holds no
  hardcoded "the cluster" reference.
- :meth:`ServingFrontEnd.submit` is thread-safe and non-blocking: a full
  admission queue sheds the request with a typed :class:`Overloaded`
  rejection instead of queueing unboundedly (bounded-queue backpressure).
- :class:`ClientSession` is the asyncio face: ``await session.submit(img)``
  from any number of concurrent coroutines, with per-client latency
  accounting against a configurable SLO.
- :meth:`ServingFrontEnd.stop` drains gracefully: admission closes first,
  everything already admitted finishes (bounded by ``drain_timeout``),
  then the cluster's processes and pipes are torn down.

Thread model: ``submit`` may be called from any thread; all engine calls
happen on the one driver thread; completion flows back through
:class:`concurrent.futures.Future`, which ``asyncio.wrap_future`` bridges
onto the caller's event loop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import math
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.runtime.process_backend import InferenceOutcome
from repro.sharding.handle import ClusterDown, ClusterHandle, ShardFailure
from repro.telemetry import (
    ClusterHealth,
    RouterHealth,
    ServingStatus,
    StreamingQuantiles,
    TraceContext,
)

__all__ = [
    "Overloaded",
    "ServingConfig",
    "ServedResult",
    "ClientStats",
    "ClientSession",
    "ServingFrontEnd",
]


#: Longest the idle driver parks before re-checking on its own.  ``submit()``
#: and ``stop()`` wake it explicitly; this is only the safety net.
_IDLE_WAIT_S = 0.05


class Overloaded(RuntimeError):
    """A submission was shed: the admission queue was full (or draining).

    Typed so callers can distinguish load-shedding (retry later, with
    backoff) from programming errors like a bad image shape
    (:class:`ValueError`) or submitting after shutdown
    (:class:`RuntimeError`).
    """

    def __init__(self, reason: str, queue_depth: int, capacity: int) -> None:
        super().__init__(
            f"submission shed ({reason}): admission queue {queue_depth}/{capacity}"
        )
        self.reason = reason
        self.queue_depth = queue_depth
        self.capacity = capacity


@dataclass(frozen=True)
class ServingConfig:
    """Front-end knobs; the cluster's own config governs everything below."""

    #: Controller pipelining window (images in flight; Figure 9 overlap).
    #: Descriptive: the front-end never reads it, it follows ``can_dispatch``
    #: of the handle — build that with the same ``window=`` (it enforces it).
    window: int = 2
    #: Bounded admission-queue capacity; arrivals beyond it are shed with
    #: :class:`Overloaded`.  Queue + window bound the worst-case sojourn.
    queue_capacity: int = 8
    #: Client-visible latency objective (submit -> result).  Misses are
    #: counted per client and in ``adcnn_serving_slo_miss_total``; infinity
    #: disables the accounting.
    slo_seconds: float = math.inf
    #: Upper bound on graceful drain: how long ``stop()`` waits for
    #: admitted work to finish before abandoning what remains.
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.slo_seconds <= 0:
            raise ValueError("slo_seconds must be positive (math.inf to disable)")
        if self.drain_timeout <= 0:
            raise ValueError("drain_timeout must be positive")


@dataclass(frozen=True)
class ServedResult:
    """One completed submission, with the client-visible timing envelope."""

    outcome: InferenceOutcome
    client: str
    #: submit() call -> dispatched into the pipeline (admission-queue wait).
    queue_wait_s: float
    #: submit() call -> result finalized (what the SLO is judged against).
    latency_s: float
    slo_miss: bool


@dataclass
class ClientStats:
    """Per-client serving counters (see :meth:`ServingFrontEnd.client_stats`)."""

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    slo_misses: int = 0
    #: Admitted images that terminated with :class:`ClusterFailed` (their
    #: cluster died and no sibling could take the work over).
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)

    def latency_quantile(self, q: float) -> float:
        if not self.latencies_s:
            return math.nan
        return float(np.quantile(np.asarray(self.latencies_s), q))


@dataclass
class _Pending:
    """A submission in flight between ``submit`` and finalize."""

    image: np.ndarray
    client: str
    submit_ts: float
    future: concurrent.futures.Future[ServedResult]
    dispatch_ts: float = math.nan
    #: Trace identity minted at submit() so admission-queue wait is part of
    #: the request's span tree (None when telemetry is off).
    trace: TraceContext | None = None


class ServingFrontEnd:
    """Long-lived open-loop serving loop around one :class:`ClusterHandle`.

    Accepts any :class:`ClusterHandle`: a single cluster from
    :func:`~repro.sharding.make_cluster_handle` or a
    :class:`~repro.sharding.ClusterRouter` spanning N clusters.  Use as a
    context manager; the front-end owns the handle's lifecycle end to end::

        handle = make_cluster_handle(model, "2x2", pipeline=pipeline, config=config, window=2)
        with ServingFrontEnd(handle, ServingConfig(window=2)) as fe:
            session = fe.session("camera-3")
            result = await session.submit(image)
    """

    def __init__(self, handle: ClusterHandle, config: ServingConfig | None = None) -> None:
        self.config = config or ServingConfig()
        self._handle = handle
        self._queue: queue.Queue[_Pending] = queue.Queue(maxsize=self.config.queue_capacity)
        self._stats: dict[str, ClientStats] = {}
        self._stats_lock = threading.Lock()
        # Streaming (P²) latency digests feeding status(); O(1) memory no
        # matter how long the front-end serves.
        self._latency_q = StreamingQuantiles()
        self._queue_wait_q = StreamingQuantiles()
        self._admitting = False
        self._stop_requested = threading.Event()
        #: Set by ``submit()`` and ``stop()`` to end the driver's idle wait.
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        self._driver_error: BaseException | None = None
        self._drain_started: float | None = None

    # ---------------------------------------------------------- lifecycle
    @property
    def handle(self) -> ClusterHandle:
        """The driven :class:`ClusterHandle` (single cluster or router)."""
        return self._handle

    def start(self) -> "ServingFrontEnd":
        if self._thread is not None:
            raise RuntimeError("front-end already started")
        self._handle.start()
        self._admitting = True
        self._thread = threading.Thread(
            target=self._drive, name="adcnn-serving-driver", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful drain: close admission, finish admitted work, stop cluster.

        Safe to call twice.  Submissions racing with shutdown are rejected
        with :class:`Overloaded` (reason ``"draining"``); anything already
        admitted gets its future resolved — with the outcome if it finished
        inside ``drain_timeout``, with :class:`Overloaded` otherwise.
        """
        self._admitting = False
        self._stop_requested.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=self.config.drain_timeout + 10.0)
            if self._thread.is_alive():  # pragma: no cover - defensive
                raise RuntimeError("serving driver thread failed to stop")
            self._thread = None

    def __enter__(self) -> "ServingFrontEnd":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ---------------------------------------------------------- submission
    def submit(
        self, image: np.ndarray, client: str = "default"
    ) -> concurrent.futures.Future[ServedResult]:
        """Thread-safe, non-blocking submission; never waits for capacity.

        Validates the image shape up front (:class:`ValueError` on
        mismatch), then either admits it into the bounded queue or sheds it
        with :class:`Overloaded`.  The returned future resolves when the
        pipeline finalizes the image (or shutdown abandons it).
        """
        if self._driver_error is not None:
            raise RuntimeError("serving driver died") from self._driver_error
        img = self._handle.validate_image(image)
        stats = self._client(client)
        if not self._admitting:
            with self._stats_lock:
                stats.shed += 1
            self._count_shed(client, "draining")
            raise Overloaded("draining", self._queue.qsize(), self.config.queue_capacity)
        # Mint the trace *before* enqueueing: the span tree's root starts at
        # submit(), so admission-queue wait is visible as queue_wait.  The
        # handle owns trace-id allocation (a router mints globally so sibling
        # clusters' id spaces never collide).
        tel = self._handle.telemetry
        submit_ts = time.perf_counter()
        trace = self._handle.mint_trace(submit_ts) if tel.enabled else None
        pending = _Pending(
            image=img,
            client=client,
            submit_ts=submit_ts,
            future=concurrent.futures.Future(),
            trace=trace,
        )
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            with self._stats_lock:
                stats.shed += 1
            self._count_shed(client, "queue_full")
            raise Overloaded(
                "queue_full", self.config.queue_capacity, self.config.queue_capacity
            ) from None
        self._wake.set()
        with self._stats_lock:
            stats.submitted += 1
        if tel.enabled:
            tel.count("adcnn_serving_admitted_total", client=client)
            tel.gauge("adcnn_serving_queue_depth", float(self._queue.qsize()))
        return pending.future

    def session(self, client: str = "default") -> "ClientSession":
        """An asyncio-facing handle for one client (see :class:`ClientSession`)."""
        return ClientSession(self, client)

    # ------------------------------------------------------------- queries
    def client_stats(self, client: str = "default") -> ClientStats:
        """Snapshot of one client's counters (copy; safe to keep)."""
        with self._stats_lock:
            st = self._stats.get(client, ClientStats())
            return ClientStats(
                submitted=st.submitted,
                completed=st.completed,
                shed=st.shed,
                slo_misses=st.slo_misses,
                failed=st.failed,
                latencies_s=list(st.latencies_s),
            )

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def status(self) -> ServingStatus:
        """One-call live snapshot of the serving loop (DESIGN.md §5h).

        Thread-safe and cheap (no engine calls, no allocation proportional
        to history): counters are aggregated across clients under the stats
        lock and latency quantiles come from the O(1) P² digests, so this
        can be polled at UI refresh rates while serving.
        """
        with self._stats_lock:
            submitted = sum(st.submitted for st in self._stats.values())
            completed = sum(st.completed for st in self._stats.values())
            shed = sum(st.shed for st in self._stats.values())
            slo_misses = sum(st.slo_misses for st in self._stats.values())
            failed = sum(st.failed for st in self._stats.values())
            latency = self._latency_q.snapshot()
            queue_wait = self._queue_wait_q.snapshot()
            clients = tuple(sorted(self._stats))
        return ServingStatus(
            admitting=self._admitting,
            queue_depth=self._queue.qsize(),
            queue_capacity=self.config.queue_capacity,
            in_flight=self._handle.in_flight,
            submitted=submitted,
            completed=completed,
            shed=shed,
            slo_misses=slo_misses,
            latency=latency,
            queue_wait=queue_wait,
            failed=failed,
            clients=clients,
        )

    def health(self) -> ClusterHealth | RouterHealth:
        """Health of whatever is being driven: one cluster's
        :class:`ClusterHealth`, or a router's aggregate
        :class:`RouterHealth` with per-shard drill-down."""
        return self._handle.health()

    # ------------------------------------------------------------- internal
    def _client(self, client: str) -> ClientStats:
        with self._stats_lock:
            return self._stats.setdefault(client, ClientStats())

    def _count_shed(self, client: str, reason: str) -> None:
        tel = self._handle.telemetry
        if tel.enabled:
            tel.count("adcnn_serving_shed_total", client=client, reason=reason)

    def _terminal(self) -> bool:
        """The handle can never serve again (e.g. every shard marked down)."""
        return bool(getattr(self._handle, "terminal", False))

    def _drive(self) -> None:
        """Driver-thread main loop: admit -> pump -> repeat, then drain."""
        handle = self._handle
        inflight: dict[int, _Pending] = {}
        try:
            while True:
                draining = self._stop_requested.is_set()
                if self._terminal():
                    # Dead end: no shard will ever take work again.  Collect
                    # any typed failures supervision already minted, fail the
                    # rest, and exit — never hang on a dead deployment.
                    self._pump_once(handle, inflight, block=False)
                    self._fail_all(inflight)
                    break
                self._admit(handle, inflight)
                if handle.in_flight:
                    # After _admit either the queue is empty or the window
                    # is full, so blocking never starves a waiting image;
                    # pump's wait is bounded by poll_interval / the oldest
                    # deadline, which also bounds shutdown responsiveness.
                    if not self._pump_once(handle, inflight, block=True):
                        # Handle died mid-pump: loop back to the terminal
                        # check rather than spinning.
                        continue
                elif draining and self._queue.empty():
                    break
                else:
                    # Idle: nothing in flight, so park until submit() or
                    # stop() wakes us.  Clearing before the queue is read
                    # means a submission landing in between is never missed
                    # (its put precedes its set).
                    if self._queue.empty():
                        self._wake.wait(timeout=_IDLE_WAIT_S)
                    self._wake.clear()
                    try:
                        pending = self._queue.get_nowait()
                    except queue.Empty:
                        continue
                    self._dispatch(handle, inflight, pending)
                if draining and self._drain_deadline_passed():
                    break
        except Exception as exc:  # pragma: no cover - defensive
            self._driver_error = exc
        finally:
            self._admitting = False
            self._abandon(inflight)
            handle.stop()
        if self._driver_error is not None:  # pragma: no cover - defensive
            raise self._driver_error

    def _pump_once(
        self, handle: ClusterHandle, inflight: dict[int, _Pending], block: bool
    ) -> bool:
        """One pump pass; False when the handle itself is down."""
        try:
            results = handle.pump(block)
        except ClusterDown:
            return False
        for image_id, outcome in results:
            self._complete(inflight.pop(image_id), outcome)
        if results:
            # Hand the GIL over once: a client woken by a completion submits
            # its next image before this thread merges the next one, so the
            # two overlap as in Figure 9 (DESIGN.md §5d).
            time.sleep(0)
        return True

    def _admit(self, handle: ClusterHandle, inflight: dict[int, _Pending]) -> None:
        while handle.can_dispatch:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                return
            self._dispatch(handle, inflight, pending)

    def _dispatch(
        self, handle: ClusterHandle, inflight: dict[int, _Pending], pending: _Pending
    ) -> None:
        if not handle.can_dispatch:
            # Raced with get(): requeue is pointless (we are the only
            # consumer) — hold it as the next dispatch instead.  A handle
            # that goes terminal while we wait fails the image typed
            # instead of spinning forever.
            while not handle.can_dispatch:
                if self._terminal() or not self._pump_once(handle, inflight, block=True):
                    self._fail(
                        pending,
                        ShardFailure(handle.name, "no routable cluster remains", 0),
                    )
                    return
        pending.dispatch_ts = time.perf_counter()
        try:
            image_id = handle.dispatch(pending.image, trace=pending.trace)
        except ClusterDown as exc:
            self._fail(pending, ShardFailure(exc.cluster, exc.reason, 0))
            return
        inflight[image_id] = pending
        tel = self._handle.telemetry
        if tel.enabled:
            tel.observe(
                "adcnn_serving_queue_wait_seconds",
                pending.dispatch_ts - pending.submit_ts,
                client=pending.client,
            )

    def _fail(self, pending: _Pending, failure: ShardFailure) -> None:
        """Resolve one admitted image with a typed infrastructure failure."""
        with self._stats_lock:
            self._stats.setdefault(pending.client, ClientStats()).failed += 1
        tel = self._handle.telemetry
        if tel.enabled:
            tel.count(
                "adcnn_serving_failed_total",
                client=pending.client,
                cluster=failure.cluster,
            )
        if pending.future.set_running_or_notify_cancel():
            pending.future.set_exception(failure.to_exception())

    def _fail_all(self, inflight: dict[int, _Pending]) -> None:
        for pending in list(inflight.values()):
            self._fail(
                pending,
                ShardFailure(self._handle.name, "no routable cluster remains", 0),
            )
        inflight.clear()

    def _complete(self, pending: _Pending, outcome: InferenceOutcome | ShardFailure) -> None:
        if isinstance(outcome, ShardFailure):
            self._fail(pending, outcome)
            return
        now = time.perf_counter()
        latency = now - pending.submit_ts
        queue_wait = (
            pending.dispatch_ts - pending.submit_ts
            if math.isfinite(pending.dispatch_ts)
            else 0.0
        )
        slo_miss = latency > self.config.slo_seconds
        stats = self._client(pending.client)
        with self._stats_lock:
            stats.completed += 1
            stats.latencies_s.append(latency)
            if slo_miss:
                stats.slo_misses += 1
            self._latency_q.observe(latency)
            self._queue_wait_q.observe(queue_wait)
        tel = self._handle.telemetry
        if tel.enabled:
            tel.observe("adcnn_serving_latency_seconds", latency, client=pending.client)
            if slo_miss:
                tel.count("adcnn_serving_slo_miss_total", client=pending.client)
        result = ServedResult(
            outcome=outcome,
            client=pending.client,
            queue_wait_s=queue_wait,
            latency_s=latency,
            slo_miss=slo_miss,
        )
        if not pending.future.set_running_or_notify_cancel():
            return  # caller cancelled; nothing to deliver
        pending.future.set_result(result)

    def _drain_deadline_passed(self) -> bool:
        if self._drain_started is None:
            self._drain_started = time.perf_counter()
        return time.perf_counter() - self._drain_started > self.config.drain_timeout

    def _abandon(self, inflight: dict[int, _Pending]) -> None:
        """Resolve every future the drain could not finish."""
        leftovers = list(inflight.values())
        inflight.clear()
        while True:
            try:
                leftovers.append(self._queue.get_nowait())
            except queue.Empty:
                break
        for pending in leftovers:
            with self._stats_lock:
                self._stats.setdefault(pending.client, ClientStats()).shed += 1
            if pending.future.set_running_or_notify_cancel():
                pending.future.set_exception(
                    Overloaded("shutdown", 0, self.config.queue_capacity)
                )


class ClientSession:
    """Asyncio face of one client over a running :class:`ServingFrontEnd`.

    Any number of sessions (and any number of concurrent ``submit`` calls
    per session) may run against one front-end; fairness between them is
    the admission queue's FIFO order.  The session itself holds no
    resources — it is a name plus a pointer.
    """

    def __init__(self, frontend: ServingFrontEnd, client: str) -> None:
        self.frontend = frontend
        self.client = client

    async def submit(self, image: np.ndarray) -> ServedResult:
        """Submit one image; resolves when the pipeline finalizes it.

        Raises :class:`Overloaded` immediately when shed — callers decide
        whether to back off and retry.
        """
        future = self.frontend.submit(image, client=self.client)
        return await asyncio.wrap_future(future)

    @property
    def stats(self) -> ClientStats:
        return self.frontend.client_stats(self.client)
