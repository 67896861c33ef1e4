"""The five workloads and their untraced (end-to-end) runs.

Every run has the same four phases, so every end-to-end metric has a value
on every workload (README.md gives the per-workload definitions):

- **set-up** — from nothing to "accepts work", repeated and reported as a
  median (``setup_s``);
- **first result** after each set-up (recorded as ``first_image_ms``, not bounded);
- **steady state** — a measured window of ``--seconds``
  (``throughput_ips``, ``latency_p50_ms``, ``cpu_ms_per_image``);
- **wrap-up** after the last result (``teardown_ms``).

The program's recorder is off (``NullRecorder``) and nothing wraps the
handles: these numbers are what a user of the system sees.
"""

from __future__ import annotations

import hashlib
import itertools
import resource
import statistics
import time
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.compression import CompressionPipeline
from repro.models import get_spec, vgg_mini
from repro.partition import TileGrid
from repro.profiling import RASPBERRY_PI_3B
from repro.runtime import ADCNNSystem, ADCNNWorkload, ProcessClusterConfig
from repro.serving import ServingConfig, ServingFrontEnd
from repro.sharding import ClusterRouter, ShardedDeploymentSpec, build_router, make_cluster_handle
from repro.simulator import SimNode

from . import hygiene
from .loadgen import RESULT_TIMEOUT_S, Completion, closed_loop, open_loop, poisson_due_times
from .proxy import TimedHandle
from .reference import Reference
from .spans import SpanLog
from .stats import Segment, cut_segments, median_percentile, median_rate, percentile, supported_percentile

POOL_SIZE = 32        # distinct images per seed; each has its own reference output
WARMUP_IMAGES = 20
COLD_CYCLES = 8       # at least this many set-up/first-image/teardown cycles before a steady window,
COLD_BUDGET_S = 2.0   # and as many more as fit in this long (cheap cycles give steadier medians)


# ------------------------------------------------------------- topologies
@dataclass(frozen=True)
class Topology:
    """Model shape plus cluster layout; the only knobs a workload sets."""

    input_size: int
    base_width: int
    separable_prefix: int
    grid: TileGrid
    shards: int
    workers: int            # per cluster
    serving: ServingConfig
    outstanding: int        # closed-loop requests in flight (nproc per cluster window)

    def model(self) -> Any:
        # Weights come from the builder's fixed seed; --seed never reaches them.
        return vgg_mini(
            num_classes=3,
            input_size=self.input_size,
            base_width=self.base_width,
            separable_prefix=self.separable_prefix,
        ).eval()

    def pool(self, seed: int) -> list[np.ndarray]:
        rng = np.random.default_rng(seed)
        shape = (1, 3, self.input_size, self.input_size)
        return [rng.normal(size=shape).astype(np.float32) for _ in range(POOL_SIZE)]

    def inputs(self, seed: int) -> tuple[Any, list[np.ndarray], list[np.ndarray]]:
        """(model, image pool, the reference output of each pool image)."""
        model, pool = self.model(), self.pool(seed)
        reference = Reference(model, self.grid, CompressionPipeline(bits=4))
        return model, pool, [reference.output(img) for img in pool]

    def build(self, model: Any, telemetry: Any = None, log: SpanLog | None = None) -> Any:
        """The handle a front-end drives; with ``log``, every ClusterHandle
        boundary is wrapped in a timing proxy (traced runs only)."""
        pipeline = CompressionPipeline(bits=4)
        if self.shards == 1:
            handle = make_cluster_handle(
                model, self.grid, pipeline=pipeline, telemetry=telemetry,
                config=ProcessClusterConfig(num_workers=self.workers), window=self.serving.window,
            )
            return handle if log is None else TimedHandle(handle, log, "runtime")
        spec = ShardedDeploymentSpec.homogeneous(
            self.shards, num_workers=self.workers, policy="least_outstanding"
        )
        if log is None:
            return build_router(model, self.grid, spec, pipeline=pipeline, telemetry=telemetry)
        # build_router, spelled out so each shard handle can be proxied.
        shards = [
            TimedHandle(
                make_cluster_handle(
                    model, self.grid, pipeline=pipeline, telemetry=telemetry,
                    config=shard.cluster_config(spec.t_limit), name=shard.name, window=shard.window,
                ),
                log, "runtime",
            )
            for shard in spec.shards
        ]
        router = ClusterRouter(shards, spec.router_config(), telemetry, weights=spec.weights)
        return TimedHandle(router, log, "sharding")


COMPUTE = Topology(96, 12, 4, TileGrid(4, 4), shards=1, workers=2,
                   serving=ServingConfig(window=2), outstanding=2)
SMALL = Topology(24, 6, 2, TileGrid(2, 2), shards=1, workers=2,
                 serving=ServingConfig(window=2), outstanding=2)
SHARDED = Topology(24, 6, 2, TileGrid(2, 2), shards=2, workers=1,
                   serving=ServingConfig(window=4, queue_capacity=64), outstanding=4)

#: Open-loop steps of ``open_sharded`` as (rate in images/s, share of --seconds);
#: the rest of the window is the closed-loop capacity phase, which is where the
#: workload's bounded end-to-end numbers come from.  The open-loop latencies
#: (each request timed from its due time) are recorded per layer and in the
#: result file, without a bound: at 20-40 % utilisation the processes sleep
#: between requests, every hop pays a cold wake-up, and a slow stretch of the
#: machine moves the p50 about twice as far as it moves throughput (sizing:
#: p50 5.2-7.3 ms at 60 images/s, 7.7-31 ms at 120 images/s, run to run).
OPEN_STEPS = ((60.0, 0.35), (120.0, 0.20))
#: open_sharded restarts its deployment this many times within the window and
#: reports the median over incarnations: how fast two single-worker shards
#: run is decided when their processes start (sizing: p50 5.8-10.6 ms from one
#: incarnation to the next), so a single incarnation per run would flap.
OPEN_INCARNATIONS = 5

# des_open: the paper-figure configuration (vgg16, 8x8 tiles, 8 simulated RPi nodes).
DES_RATE_HZ = 2.0
DES_IMAGES_PER_REP = 60
DES_EXACT_REPS = 20          # reps pooled into the exact simulated numbers
DES_SETUP_REPEATS = 200
DES_FIRST_REPEATS = 20
#: sha256 over the rounded records of a fixed closed-loop run(64); the
#: simulator is deterministic, so any other value is an output mismatch.
DES_DIGEST = "36846ad17946eed0f68fefe206e8c065ea5e750b67b2d82dd1482b0553b65753"


# ------------------------------------------------------------------ tally
@dataclass
class Tally:
    """Requests attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, comps: list[Completion], refs: list[np.ndarray]) -> list[Completion]:
        """Count every request; return the ones whose output is correct."""
        good = []
        for comp in comps:
            self.attempted += 1
            if comp.error is not None:
                self.fail(f"request {comp.index}: {comp.error}")
            elif comp.result.outcome.zero_filled_tiles:
                self.fail(f"request {comp.index}: zero-filled tiles {comp.result.outcome.zero_filled_tiles}")
            elif not np.array_equal(comp.result.outcome.output, refs[comp.index % len(refs)]):
                self.fail(f"request {comp.index}: output differs from the in-process reference")
            else:
                good.append(comp)
        return good


def cpu_seconds() -> float:
    """User+system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- service
class Service:
    """One built-and-started front-end, timed from nothing to 'accepts work'."""

    def __init__(
        self,
        topo: Topology,
        model: Any,
        pool: list[np.ndarray],
        telemetry: Any = None,
        log: SpanLog | None = None,
    ) -> None:
        self.pool = pool
        self.log = log
        self._rids = itertools.count()
        t0 = time.perf_counter()
        self.handle = topo.build(model, telemetry, log)
        self.frontend = ServingFrontEnd(self.handle, topo.serving).start()
        self.setup_s = time.perf_counter() - t0

    def submit(self, index: int) -> Future[Any]:
        image = self.pool[index % len(self.pool)]
        log = self.log
        if log is None:
            return self.frontend.submit(image)
        # A fresh view per request: the program hands this very object to
        # every layer boundary, which is how proxy spans find their request.
        carrier = image.view()
        root = log.open_request(next(self._rids), carrier)
        try:
            with log.span("serving.submit", root.rid):
                future = self.frontend.submit(carrier)
        except Exception:
            log.close_request(root, carrier)
            raise
        future.add_done_callback(lambda _f: log.close_request(root, carrier))
        return future

    def first(self, index: int) -> Completion:
        """One request, waited for: the first image after a start."""
        comp = Completion(index=index, due=time.perf_counter(), submitted=time.perf_counter())
        try:
            comp.result = self.submit(index).result(timeout=RESULT_TIMEOUT_S)
        except Exception as exc:  # shed, ClusterFailed, timeout: all count as failed
            comp.error = type(exc).__name__
        comp.done = time.perf_counter()
        return comp

    def transports(self) -> list[str]:
        health = self.frontend.health()
        shards = getattr(health, "shards", None)
        if shards is None:
            return [health.transport]
        return [s.cluster.transport if s.cluster is not None else "down" for s in shards]

    def stop(self) -> float:
        t0 = time.perf_counter()
        self.frontend.stop()
        return time.perf_counter() - t0


@dataclass
class Cycle:
    setup_s: float
    first: Completion
    teardown_s: float
    end: float

    @property
    def first_ms(self) -> float:
        return self.first.served_ms


def cold_cycle(make: Callable[[], Service], index: int) -> Cycle:
    """build -> start -> first image -> stop, each part timed."""
    svc = make()
    first = svc.first(index)
    teardown = svc.stop()
    return Cycle(svc.setup_s, first, teardown, time.perf_counter())


# ----------------------------------------------------------- serving runs
@dataclass
class Traffic:
    """What one started service was asked to do during its share of the window."""

    warm: list[Completion]
    steps: list[list[Completion]]   # open-loop steps, in OPEN_STEPS order
    window: list[Completion]        # the closed-loop phase
    start: float                    # of the closed-loop phase
    end: float
    backlog: list[int]              # admission-queue depth when each open-loop step ended

    def requests(self) -> list[Completion]:
        return self.warm + [c for step in self.steps for c in step] + self.window

    def in_window(self) -> list[Completion]:
        return [c for c in self.window if c.result is not None and c.done <= self.end]


def drive(svc: Service, topo: Topology, rng: np.random.Generator, seconds: float, open_steps: bool) -> Traffic:
    """Warm-up, then the workload's traffic for ``seconds``: closed loop, or
    the open-loop steps followed by a closed-loop capacity phase."""
    warm = [svc.first(i) for i in range(WARMUP_IMAGES)]
    steps: list[list[Completion]] = []
    backlog: list[int] = []
    if open_steps:
        for rate, share in OPEN_STEPS:
            dues = poisson_due_times(rng, rate, seconds * share, time.perf_counter() + 0.01)
            steps.append(open_loop(svc.submit, dues,
                                   on_step_end=lambda: backlog.append(svc.frontend.queue_depth)))
        seconds *= 1.0 - sum(share for _, share in OPEN_STEPS)
    window, start, end = closed_loop(svc.submit, topo.outstanding, seconds)
    return Traffic(warm, steps, window, start, end, backlog)


def steady_metrics(segments: list[Segment], images_per_completion: int = 1) -> dict[str, float]:
    """Each steady-state metric per segment, then the median over segments."""
    return {
        "throughput_ips": median_rate(segments) * images_per_completion,
        "latency_p50_ms": median_percentile(segments, 50),
    }


def _extras(segments: list[Segment], tally: Tally, first_image_ms: float, **more: Any) -> dict[str, Any]:
    """Recorded in the result file, not bounded: the tail and first-image
    numbers proved too noisy on a shared 2-vCPU box to gate on (README)."""
    pooled = [x for s in segments for x in s.samples]
    return {
        "first_image_ms": first_image_ms,
        "latency_p95_ms": median_percentile(segments, 95),
        "latency_p99_ms": supported_percentile(pooled, 99),  # pooled: only where 1000 samples exist
        "latency_samples_per_segment": [len(s.samples) for s in segments],
        "failed_frac": tally.failed / max(tally.attempted, 1),
        **more,
    }


def run_serving(topo: Topology, seed: int, seconds: float, open_steps: bool) -> dict[str, Any]:
    """steady_compute / steady_small (closed loop) and open_sharded (open-loop
    steps, then a closed-loop capacity phase).

    A closed-loop window is one started service, cut into segments.  The
    open-loop workload restarts its deployment OPEN_INCARNATIONS times, gives
    each an equal share of the window, and each incarnation *is* a segment.
    """
    incarnations = OPEN_INCARNATIONS if open_steps else 1
    model, pool, refs = topo.inputs(seed)
    tally = Tally()
    rng = np.random.default_rng(seed)

    def make() -> Service:
        return Service(topo, model, pool)

    cold_start = time.perf_counter()
    cycles = [cold_cycle(make, 0)]
    baseline = hygiene.snapshot()
    while len(cycles) < COLD_CYCLES or time.perf_counter() - cold_start < COLD_BUDGET_S:
        cycles.append(cold_cycle(make, len(cycles)))

    cpu0 = cpu_seconds()
    setups, firsts, teardowns, runs = [], [], [], []
    transports: list[str] = []
    for _ in range(incarnations):
        svc = make()
        setups.append(svc.setup_s)
        firsts.append(svc.first(len(cycles)))
        transports = svc.transports()
        runs.append(drive(svc, topo, rng, seconds / incarnations, open_steps))
        teardowns.append(svc.stop())
    cpu = cpu_seconds() - cpu0
    leaked = hygiene.leaks(baseline)

    good_firsts = tally.check([c.first for c in cycles] + firsts, refs)
    for traffic in runs:
        tally.check(traffic.requests(), refs)
    for leak in leaked:
        tally.fail(leak)

    if open_steps:
        # One segment per incarnation: its closed-loop capacity phase.
        segments = []
        for t in runs:
            done = t.in_window()
            latencies = tuple(c.result.latency_s * 1e3 for c in done)
            segments.append(Segment(len(done), max(c.done for c in done) - t.start, latencies))
    else:
        (traffic,) = runs
        done = traffic.in_window()
        segments = cut_segments([c.done for c in done], [c.result.latency_s * 1e3 for c in done], traffic.start)
    images = sum(1 + len(t.requests()) for t in runs)
    metrics = {
        "setup_s": statistics.median([c.setup_s for c in cycles] + setups),
        "teardown_ms": statistics.median([c.teardown_s for c in cycles] + teardowns) * 1e3,
        **steady_metrics(segments),
        "cpu_ms_per_image": cpu * 1e3 / images,
        "rss_peak_mb": rss_peak_mb(),
    }
    first_image_ms = statistics.median([c.served_ms for c in good_firsts] or [float("nan")])
    extras = _extras(segments, tally, first_image_ms, transports=transports,
                     window_images=sum(s.count for s in segments))
    if open_steps:
        # Open loop, timed from due time: p50 per incarnation, median over incarnations.
        for (rate, _share), step in zip(OPEN_STEPS, zip(*(t.steps for t in runs))):
            p50s = [percentile([c.latency_from_due * 1e3 for c in part if c.result is not None], 50) for part in step]
            extras[f"rate{rate:.0f}_p50_ms"] = statistics.median(p50s)
        late = [c.lateness * 1e3 for t in runs for step in t.steps for c in step]
        extras.update(gen_late_p99_ms=percentile(late, 99), backlog_end=[t.backlog for t in runs])
    return {"metrics": metrics, "extras": extras, "tally": tally}


def run_cold(topo: Topology, seed: int, seconds: float) -> dict[str, Any]:
    """cold_start: nothing but start -> first image -> stop cycles."""
    model, pool, refs = topo.inputs(seed)
    tally = Tally()

    def make() -> Service:
        return Service(topo, model, pool)

    cold_cycle(make, 0)  # not measured: lets one-time interpreter state settle
    baseline = hygiene.snapshot()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    cycles: list[Cycle] = []
    while time.perf_counter() - start < seconds:
        cycles.append(cold_cycle(make, len(cycles)))
    cpu = cpu_seconds() - cpu0
    for leak in hygiene.leaks(baseline):
        tally.fail(leak)
    good = {id(c) for c in tally.check([c.first for c in cycles], refs)}
    ok = [c for c in cycles if id(c.first) in good]
    # What a client pays when no cluster is up: set-up plus the first image.
    segments = cut_segments([c.end for c in ok], [c.setup_s * 1e3 + c.first_ms for c in ok], start)
    metrics = {
        "setup_s": statistics.median(c.setup_s for c in cycles),
        "teardown_ms": statistics.median(c.teardown_s for c in cycles) * 1e3,
        **steady_metrics(segments),
        "cpu_ms_per_image": cpu * 1e3 / len(cycles),
        "rss_peak_mb": rss_peak_mb(),
    }
    extras = _extras(segments, tally, statistics.median(c.first_ms for c in ok), cycles=len(cycles))
    return {"metrics": metrics, "extras": extras, "tally": tally}


# ----------------------------------------------------------------- DES run
def des_system(telemetry: Any = None) -> ADCNNSystem:
    workload = ADCNNWorkload.from_spec(
        get_spec("vgg16"), num_tiles=64, separable_prefix=13, compression_ratio=0.032
    )
    nodes = [SimNode(f"n{k}", RASPBERRY_PI_3B) for k in range(8)]
    return ADCNNSystem(workload, nodes, SimNode("central", RASPBERRY_PI_3B), telemetry=telemetry)


def des_digest() -> str:
    """Digest of a fixed closed-loop run: the simulator's output check."""
    system = des_system()
    records = system.run(64)
    parts = [f"{r.image_id}:{r.completion:.9e}:{r.latency:.9e}:{r.allocation.tolist()}" for r in records]
    parts.append(f"{system.total_transferred_bits():.9e}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def des_arrivals(rng: np.random.Generator) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / DES_RATE_HZ, size=DES_IMAGES_PER_REP))


def des_wrap_up(system: ADCNNSystem, result: Any) -> dict[str, Any]:
    """Turn a finished run into the numbers a figure needs (the DES has no
    processes to reap; this is what its user does after the last image)."""
    return {
        "throughput_hz": result.throughput,
        "p50_s": result.sojourn_quantile(0.5),
        "p95_s": result.sojourn_quantile(0.95),
        "p99_s": result.sojourn_quantile(0.99),
        "mean_latency_s": system.mean_latency(),
        "utilization": system.node_utilization().tolist(),
        "bits": system.total_transferred_bits(),
    }


def des_check(result: Any, tally: Tally) -> None:
    tally.attempted += result.offered
    lost = result.offered - result.completed
    if lost:
        tally.fail(f"{lost} of {result.offered} simulated images shed or unfinished", lost)
    zero_filled = sum(1 for r in result.records if r.zero_filled_tiles)
    if zero_filled:
        tally.fail(f"{zero_filled} simulated images with zero-filled tiles", zero_filled)


def run_des(seed: int, seconds: float) -> dict[str, Any]:
    """des_open: Poisson open-loop runs of the simulated 8-node cluster."""
    tally = Tally()
    digest = des_digest()
    if digest != DES_DIGEST:
        tally.fail(f"closed-loop digest {digest} differs from the recorded {DES_DIGEST}")
    setups = []
    for _ in range(DES_SETUP_REPEATS):
        t0 = time.perf_counter()
        des_system()
        setups.append(time.perf_counter() - t0)
    firsts = []
    for _ in range(DES_FIRST_REPEATS):
        system = des_system()
        t0 = time.perf_counter()
        system.run(1)
        firsts.append((time.perf_counter() - t0) * 1e3)

    rng = np.random.default_rng(seed)
    system = des_system()
    rep_ms: list[float] = []
    wrap_ms: list[float] = []
    ends: list[float] = []
    sojourns: list[float] = []
    sim_images, sim_horizon = 0, 0.0
    first_rep: tuple[np.ndarray, dict[str, Any]] | None = None
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rep_ms) < DES_EXACT_REPS:
        arrivals = des_arrivals(rng)
        t0 = time.perf_counter()
        result = system.run_open_loop(arrivals)
        t1 = time.perf_counter()
        summary = des_wrap_up(system, result)
        t2 = time.perf_counter()
        rep_ms.append((t1 - t0) * 1e3)
        wrap_ms.append((t2 - t1) * 1e3)
        ends.append(t2)
        des_check(result, tally)
        if len(rep_ms) <= DES_EXACT_REPS:
            sojourns.extend(result.sojourns().tolist())
            sim_images += result.completed
            sim_horizon += result.horizon
        if first_rep is None:
            first_rep = (arrivals, summary)
    cpu = cpu_seconds() - cpu0
    if first_rep is not None and des_wrap_up(system, system.run_open_loop(first_rep[0])) != first_rep[1]:
        tally.fail("the simulator gave two different results for one arrival trace")
    segments = cut_segments(ends, rep_ms, start)
    metrics = {
        "setup_s": statistics.median(setups),
        "teardown_ms": statistics.median(wrap_ms),
        **steady_metrics(segments, images_per_completion=DES_IMAGES_PER_REP),
        "cpu_ms_per_image": cpu * 1e3 / (len(rep_ms) * DES_IMAGES_PER_REP),
        "rss_peak_mb": rss_peak_mb(),
    }
    extras = _extras(
        segments, tally, statistics.median(firsts), reps=len(rep_ms),
        sim_throughput_hz=sim_images / sim_horizon,
        sim_p50_sojourn_s=percentile(sojourns, 50),
        sim_p99_sojourn_s=percentile(sojourns, 99),
    )
    return {"metrics": metrics, "extras": extras, "tally": tally}


UNTRACED: dict[str, Callable[[int, float], dict[str, Any]]] = {
    "steady_compute": lambda seed, seconds: run_serving(COMPUTE, seed, seconds, open_steps=False),
    "steady_small": lambda seed, seconds: run_serving(SMALL, seed, seconds, open_steps=False),
    "open_sharded": lambda seed, seconds: run_serving(SHARDED, seed, seconds, open_steps=True),
    "cold_start": lambda seed, seconds: run_cold(COMPUTE, seed, seconds),
    "des_open": run_des,
}
