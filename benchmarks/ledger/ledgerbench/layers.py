"""The traced run: one value per per-layer metric, all measured from outside.

Three sources, in this order for every workload:

1. **probes** — timed calls into a layer's public functions on the
   workload's own tiles (``nn``, ``partition``, ``compression``, a direct
   ``ProcessCluster.infer``, the simulator's closed loop);
2. a short **untraced** stretch of the workload's traffic, the base for
   ``telemetry.overhead_frac``;
3. the same traffic **traced**: the program's ``TelemetryRecorder`` is
   passed through the public ``telemetry=`` argument (its span trees give
   the ``runtime.stage.*`` budget) and timing proxies from this directory
   sit on every ``ClusterHandle`` boundary (their spans give dispatch, pump
   and router self time).

A layer that does not run on a workload reports 0: no time, no work.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

import repro.nn as nn
from repro.compression import CompressionPipeline
from repro.compression.pipeline import sparsity
from repro.nn import Tensor
from repro.partition.geometry import reassemble_array, split_array
from repro.runtime import ProcessClusterConfig, allocate_tiles
from repro.sharding import make_cluster_handle
from repro.telemetry import TelemetryRecorder, assemble_traces, critical_path

from . import workloads as wl
from .loadgen import Completion
from .reference import Reference
from .spans import SpanLog, self_times
from .stats import percentile, segment_rate, supported_percentile

#: Share of --seconds given to the untraced stretch and to the traced one.
UNTRACED_SHARE = 0.25
TRACED_SHARE = 0.30

STAGE_KEYS = ("queue_wait", "partition", "transfer", "conv_compute", "compress",
              "result_transfer", "merge", "central_layers", "wait")


def median_ms(fn: Callable[[], Any], repeats: int = 30, warmup: int = 3) -> float:
    for _ in range(warmup):
        fn()
    laps = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        laps.append(time.perf_counter() - t0)
    return statistics.median(laps) * 1e3


# ------------------------------------------------------------------ probes
def probe_kernels(topo: wl.Topology, model: Any, image: np.ndarray) -> dict[str, float]:
    """nn, partition and compression, timed on the workload's own tiles."""
    pipeline = CompressionPipeline(bits=4)
    reference = Reference(model, topo.grid, pipeline)
    tiles = split_array(image, topo.grid)
    share = np.concatenate(tiles[: len(tiles) // topo.workers], axis=0)  # one worker's tiles
    features = reference.feature_tiles(image)
    packed = [pipeline.compress_packed(t) for t in features]
    received = [pipeline.decompress(p) for p in packed]
    feature_map = reassemble_array(received, topo.grid)

    def central() -> None:
        with nn.no_grad():
            reference.rest(Tensor(feature_map))

    # Computed, not measured: multiply-adds and im2col bytes of the separable
    # stack over one whole image (tiles partition the image, halo-free).
    flop, im2col_bytes, size = 0.0, 0.0, topo.input_size
    for block in model.separable_part():
        conv = block.conv
        size //= conv.stride
        patch = conv.in_channels * conv.kernel_size**2 * size * size
        flop += 2.0 * conv.out_channels * patch
        im2col_bytes += 4.0 * patch
        size //= block.spatial_reduction // conv.stride
    wire_bits = sum(p.wire_bits for p in packed)
    return {
        "nn.separable_forward_ms": median_ms(lambda: reference.fused(share)),
        "nn.central_forward_ms": median_ms(central),
        "nn.separable_mflop_per_image": flop / 1e6,
        "nn.im2col_mb_per_image": im2col_bytes / 1e6,
        "partition.split_ms": median_ms(lambda: split_array(image, topo.grid), repeats=100),
        "partition.reassemble_ms": median_ms(lambda: reassemble_array(received, topo.grid), repeats=100),
        "compression.compress_ms_per_tile": median_ms(
            lambda: [pipeline.compress_packed(t) for t in features]) / len(features),
        "compression.decompress_ms_per_image": median_ms(
            lambda: [pipeline.decompress(p) for p in packed]),
        "compression.wire_bytes_per_image": wire_bits / 8.0,
        "compression.ratio": wire_bits / sum(p.raw_bits for p in packed),
        "compression.sparsity": sparsity(np.concatenate([r.ravel() for r in received])),
    }


def probe_conv_fresh() -> dict[str, float]:
    """F.conv2d in a fresh interpreter: first call against warm calls."""
    script = Path(__file__).with_name("conv_probe.py")
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return {"nn.conv2d_first_call_ms": probe["first_call_ms"], "nn.conv2d_warm_ms": probe["warm_ms"]}


def probe_allocation(num_tiles: int, workers: int) -> dict[str, float]:
    rates = np.linspace(1.0, 2.0, workers)
    return {"runtime.allocate_tiles_us": median_ms(lambda: allocate_tiles(num_tiles, rates), repeats=200) * 1e3}


def probe_runtime(topo: wl.Topology, model: Any, pool: list[np.ndarray], kernels: dict[str, float],
                  images: int = 30) -> dict[str, float]:
    """One cluster driven directly (``ProcessCluster.infer``, no front-end)."""
    handle = make_cluster_handle(model, topo.grid, pipeline=CompressionPipeline(bits=4),
                                 config=ProcessClusterConfig(num_workers=topo.workers))
    starts, stops, laps, busy, share_max = [], [], [], [], []
    for cycle in range(3):
        t0 = time.perf_counter()
        handle.start()
        starts.append(time.perf_counter() - t0)
        if cycle == 2:  # the last incarnation carries the infer probe
            cluster = handle.cluster
            for img in pool[:5]:
                cluster.infer(img)
            for i in range(images):
                t0 = time.perf_counter()
                outcome = cluster.infer(pool[i % len(pool)])
                laps.append(time.perf_counter() - t0)
                busy.append(float(outcome.compute_seconds_per_worker.sum())
                            / (topo.workers * outcome.wall_seconds))
                share_max.append(float(outcome.received_per_worker.max()) / topo.grid.num_tiles)
        t0 = time.perf_counter()
        handle.stop()
        stops.append(time.perf_counter() - t0)
    infer_ms = statistics.median(laps) * 1e3
    # What one image costs in-process along its blocking steps: the workers'
    # shares run in parallel, everything at Central is serial.
    tiles_per_worker = topo.grid.num_tiles / topo.workers
    in_process = (kernels["partition.split_ms"] + kernels["nn.separable_forward_ms"]
                  + kernels["compression.compress_ms_per_tile"] * tiles_per_worker
                  + kernels["compression.decompress_ms_per_image"]
                  + kernels["partition.reassemble_ms"] + kernels["nn.central_forward_ms"])
    return {
        "runtime.infer_ms": infer_ms,
        "runtime.overhead_ms": infer_ms - in_process,
        "runtime.start_ms": statistics.median(starts) * 1e3,
        "runtime.stop_ms": statistics.median(stops) * 1e3,
        "runtime.worker_busy_frac": statistics.mean(busy),
        "runtime.worker_share_max": statistics.mean(share_max),
    }


def probes(topo: wl.Topology, seed: int) -> tuple[Any, list[np.ndarray], list[np.ndarray], dict[str, float]]:
    """(model, image pool, reference outputs, every probe metric) for a process-backend workload."""
    model, pool, refs = topo.inputs(seed)
    out = probe_kernels(topo, model, pool[0])
    out.update(probe_conv_fresh())
    out.update(probe_allocation(topo.grid.num_tiles, topo.workers))
    out.update(probe_runtime(topo, model, pool, out))
    return model, pool, refs, out


# ------------------------------------------------------- reading the traces
def stage_budget(recorders: list[TelemetryRecorder], images: int) -> dict[str, float]:
    """Mean per image of the program's own critical-path attribution.

    One recorder per cluster incarnation (or simulated run): each mints its
    trace ids from zero, so sharing a recorder would merge unrelated trees.
    """
    totals: dict[str, float] = defaultdict(float)
    trees_total = complete_total = events = 0
    assemble_s = 0.0
    for recorder in recorders:
        t0 = time.perf_counter()
        trees = assemble_traces(recorder.events)
        assemble_s += time.perf_counter() - t0
        events += len(recorder.events)
        trees_total += len(trees)
        for tree in trees.values():
            if not tree.complete:
                continue
            complete_total += 1
            for stage, seconds in critical_path(tree).breakdown.items():
                totals[stage] += seconds
    out = {f"runtime.stage.{k}_ms": totals.get(k, 0.0) * 1e3 / max(complete_total, 1) for k in STAGE_KEYS}
    out["telemetry.events_per_image"] = events / max(images, 1)
    out["telemetry.assemble_ms_per_image"] = assemble_s * 1e3 / max(trees_total, 1)
    out["telemetry.incomplete_trees"] = float(trees_total - complete_total)
    return out


def proxy_metrics(log: SpanLog, images: int) -> dict[str, float]:
    own = self_times(log.spans)

    def mean_us(name: str, self_time: bool = False) -> float:
        spans = log.named(name)
        if not spans:
            return 0.0
        values = [own[s.sid] if self_time else s.end - s.start for s in spans]
        return statistics.mean(values) * 1e6

    out = {
        "serving.submit_us": mean_us("serving.submit"),
        "runtime.dispatch_us": mean_us("runtime.dispatch"),
        "runtime.pump_us": mean_us("runtime.pump"),
        "runtime.pump_calls_per_image": len(log.named("runtime.pump")) / max(images, 1),
        # Router self time: its span minus what the shard handles under it cover.
        "sharding.dispatch_us": mean_us("sharding.dispatch", self_time=True),
        "sharding.pump_us": mean_us("sharding.pump", self_time=True),
    }
    if log.named("runtime.start"):
        out["runtime.start_ms"] = statistics.median(s.end - s.start for s in log.named("runtime.start")) * 1e3
        out["runtime.stop_ms"] = statistics.median(s.end - s.start for s in log.named("runtime.stop")) * 1e3
    return out


def served_metrics(comps: list[Completion]) -> dict[str, float]:
    results = [c.result for c in comps if c.result is not None]
    waits = [r.queue_wait_s * 1e3 for r in results]
    return {
        "serving.queue_wait_ms_p50": percentile(waits, 50),
        "serving.queue_wait_ms_p95": percentile(waits, 95),
        "serving.overhead_ms": statistics.mean((r.latency_s - r.outcome.wall_seconds) * 1e3 for r in results),
        "runtime.zero_filled_tiles": float(sum(len(r.outcome.zero_filled_tiles) for r in results)),
        "runtime.locally_computed_tiles": float(sum(len(r.outcome.locally_computed_tiles) for r in results)),
    }


def health_metrics(svc: wl.Service) -> dict[str, float]:
    status = svc.frontend.status()
    out = {
        "serving.admitted_total": float(status.submitted),
        "serving.completed_total": float(status.completed),
        "serving.shed_total": float(status.shed),
    }
    health = svc.frontend.health()
    shards = getattr(health, "shards", None)
    if shards is not None:
        per_shard = [s.cluster.images_dispatched if s.cluster is not None else 0 for s in shards]
        out["sharding.imbalance"] = max(per_shard) / max(statistics.mean(per_shard), 1e-9)
        out["sharding.rerouted_total"] = float(health.rerouted)
        out["sharding.cluster_down_total"] = float(sum(1 for s in shards if s.state != "up"))
    return out


# ------------------------------------------------------------- traced runs
def trace_serving(topo: wl.Topology, seed: int, seconds: float, open_steps: bool,
                  log: SpanLog) -> tuple[dict[str, float], wl.Tally]:
    model, pool, refs, out = probes(topo, seed)
    tally = wl.Tally()

    def rate(traffic: wl.Traffic) -> float:
        return segment_rate([c.done for c in traffic.in_window()], traffic.start)

    rng = np.random.default_rng(seed)
    plain = wl.Service(topo, model, pool)
    untraced = wl.drive(plain, topo, rng, seconds * UNTRACED_SHARE, open_steps)
    plain.stop()
    tally.check(untraced.requests(), refs)
    # Tail and first image with the recorder off; 0 where the sample cannot support the percentile.
    closed = [c.result.latency_s * 1e3 for c in untraced.in_window()]
    out["serving.latency_p95_ms"] = supported_percentile(closed, 95) or 0.0
    out["serving.latency_p99_ms"] = supported_percentile(closed, 99) or 0.0
    out["serving.first_image_ms"] = untraced.warm[0].served_ms

    recorder = TelemetryRecorder()
    svc = wl.Service(topo, model, pool, telemetry=recorder, log=log)
    traffic = wl.drive(svc, topo, rng, seconds * TRACED_SHARE, open_steps)
    out.update(health_metrics(svc))
    svc.stop()
    comps, steps = traffic.requests(), traffic.steps
    tally.check(comps, refs)
    out.update(served_metrics(comps))
    out.update(proxy_metrics(log, len(comps)))
    out.update(stage_budget([recorder], len(comps)))
    out["runtime.ring_fallback_total"] = float(recorder.metrics.counter_total("adcnn_result_ring_fallback_total"))
    out["telemetry.overhead_frac"] = 1.0 - rate(traffic) / rate(untraced)
    if open_steps:
        for (rate, _), step in zip(wl.OPEN_STEPS, steps):
            latencies = [c.latency_from_due * 1e3 for c in step if c.result is not None]
            out[f"serving.rate{rate:.0f}_p50_ms"] = percentile(latencies, 50)
            out[f"serving.rate{rate:.0f}_p95_ms"] = percentile(latencies, 95)
        out["serving.gen_late_p99_ms"] = percentile([c.lateness * 1e3 for s in steps for c in s], 99)
        out["serving.backlog_end"] = float(max(traffic.backlog))
    return out, tally


def trace_cold(topo: wl.Topology, seed: int, seconds: float, log: SpanLog) -> tuple[dict[str, float], wl.Tally]:
    model, pool, refs, out = probes(topo, seed)
    tally = wl.Tally()

    def cycles(make: Callable[[], wl.Service], budget: float) -> tuple[list[wl.Cycle], float]:
        start = time.perf_counter()
        done: list[wl.Cycle] = []
        while time.perf_counter() - start < budget or len(done) < 5:
            done.append(wl.cold_cycle(make, len(done)))
        return done, segment_rate([c.end for c in done], start)

    plain, untraced_rate = cycles(lambda: wl.Service(topo, model, pool), seconds * UNTRACED_SHARE)
    recorders: list[TelemetryRecorder] = []

    def make_traced() -> wl.Service:
        recorders.append(TelemetryRecorder())
        return wl.Service(topo, model, pool, telemetry=recorders[-1], log=log)

    traced, traced_rate = cycles(make_traced, seconds * TRACED_SHARE)
    firsts = [c.first for c in traced]
    tally.check([c.first for c in plain] + firsts, refs)
    out["serving.first_image_ms"] = statistics.median(c.first_ms for c in plain)
    out.update(served_metrics(firsts))
    out.update(proxy_metrics(log, len(firsts)))
    out.update(stage_budget(recorders, len(firsts)))
    out["serving.admitted_total"] = out["serving.completed_total"] = float(len(firsts))
    out["runtime.ring_fallback_total"] = float(sum(
        r.metrics.counter_total("adcnn_result_ring_fallback_total") for r in recorders))
    out["telemetry.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return out, tally


def trace_des(seed: int, seconds: float, log: SpanLog) -> tuple[dict[str, float], wl.Tally]:
    tally = wl.Tally()
    out = probe_allocation(64, 8)  # the controller's Algorithm 3 runs inside the DES too
    system = wl.des_system()
    t0 = time.perf_counter()
    system.run(200)
    out["simulator.closed_loop_images_per_s"] = 200 / (time.perf_counter() - t0)

    def reps(make: Callable[[], Any], budget: float) -> tuple[float, list[Any]]:
        rng = np.random.default_rng(seed)
        results = []
        start = time.perf_counter()
        while time.perf_counter() - start < budget or len(results) < wl.DES_EXACT_REPS:
            arrivals = wl.des_arrivals(rng)
            with log.span("simulator.run_open_loop"):
                results.append(make().run_open_loop(arrivals))
            wl.des_check(results[-1], tally)
        return time.perf_counter() - start, results

    recorders: list[TelemetryRecorder] = []

    def make_traced() -> Any:
        recorders.append(TelemetryRecorder())  # every simulated run mints trace ids from zero
        return wl.des_system(recorders[-1])

    plain_s, plain = reps(wl.des_system, seconds * UNTRACED_SHARE)
    traced_s, traced = reps(make_traced, seconds * TRACED_SHARE)
    exact = plain[: wl.DES_EXACT_REPS]
    sojourns = [s for r in exact for s in r.sojourns().tolist()]
    images = len(traced) * wl.DES_IMAGES_PER_REP
    out["simulator.wall_ms_per_image"] = plain_s * 1e3 / (len(plain) * wl.DES_IMAGES_PER_REP)
    out["simulator.sim_throughput_hz"] = sum(r.completed for r in exact) / sum(r.horizon for r in exact)
    out["simulator.sim_p50_sojourn_s"] = percentile(sojourns, 50)
    budget = stage_budget(recorders, images)
    # The DES stamps spans in simulated seconds: its stage budget is not the
    # process runtime's and is not reported under runtime.stage.*.
    out.update({k: v for k, v in budget.items() if k.startswith("telemetry.")})
    out["telemetry.overhead_frac"] = 1.0 - (images / traced_s) / (len(plain) * wl.DES_IMAGES_PER_REP / plain_s)
    return out, tally


def traced(name: str, seed: int, seconds: float, log: SpanLog) -> tuple[dict[str, float], wl.Tally]:
    if name == "des_open":
        return trace_des(seed, seconds, log)
    if name == "cold_start":
        return trace_cold(wl.COMPUTE, seed, seconds, log)
    topo = {"steady_compute": wl.COMPUTE, "steady_small": wl.SMALL, "open_sharded": wl.SHARDED}[name]
    return trace_serving(topo, seed, seconds, name == "open_sharded", log)

