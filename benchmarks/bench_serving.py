"""Open-loop serving benchmarks (ISSUE 6).

Two measurements, both asserted so CI's perf-smoke job fails on regression,
both exporting their curves through pytest-benchmark's ``extra_info`` (the
uploaded ``bench_serving.json`` artifact carries the raw numbers):

- **DES saturation curve**: sweep Poisson offered load over the vgg16
  8-node simulated cluster and check the textbook shape — goodput ~1 below
  the knee, a throughput plateau past it, and a p99 sojourn blow-up at
  overload (this is the curve a capacity planner reads the cluster's
  serving limit from).
- **p99 under burst (process backend)**: a real 2-worker cluster behind
  :class:`~repro.serving.ServingFrontEnd`, driven through a steady phase
  and then a burst that overruns the admission queue — the burst must shed
  with :class:`~repro.serving.Overloaded` (never block or crash), every
  admitted image must still resolve, and the drain must be clean.
"""

import concurrent.futures
import time

import numpy as np

from repro.models import get_spec, vgg_mini
from repro.partition import TileGrid
from repro.profiling import RASPBERRY_PI_3B
from repro.runtime import (
    ADCNNSystem,
    ADCNNWorkload,
    ProcessClusterConfig,
    poisson_arrival_times,
)
from repro.serving import Overloaded, ServingConfig, ServingFrontEnd
from repro.sharding import make_cluster_handle
from repro.simulator import SimNode, saturation_knee, saturation_point

RNG_SEED = 7


# ------------------------------------------------------- DES saturation
def des_saturation_curve(rates=(1.0, 2.0, 4.0, 8.0, 16.0), images_per_rate=80):
    wl = ADCNNWorkload.from_spec(
        get_spec("vgg16"), num_tiles=64, separable_prefix=13, compression_ratio=0.032
    )
    rng = np.random.default_rng(RNG_SEED)
    points = []
    for rate in rates:
        nodes = [SimNode(f"n{i}", RASPBERRY_PI_3B) for i in range(8)]
        system = ADCNNSystem(wl, nodes, SimNode("central", RASPBERRY_PI_3B))
        arrivals = poisson_arrival_times(rate, images_per_rate, rng)
        result = system.run_open_loop(arrivals, queue_capacity=8)
        points.append(saturation_point(rate, result))
    return points


def test_des_throughput_saturates(benchmark):
    """CI gate: the open-loop DES sweep must show a saturation knee."""
    points = benchmark.pedantic(des_saturation_curve, rounds=1, iterations=1)
    benchmark.extra_info["curve"] = [
        {
            "offered_hz": p.offered_rate_hz,
            "throughput_hz": p.throughput_hz,
            "p50_sojourn_s": p.p50_sojourn_s,
            "p99_sojourn_s": p.p99_sojourn_s,
            "shed_fraction": p.shed_fraction,
        }
        for p in points
    ]
    print("\noffered_hz  throughput_hz  p50_s   p99_s   shed")
    for p in points:
        print(
            f"{p.offered_rate_hz:9.1f}  {p.throughput_hz:12.2f}"
            f"  {p.p50_sojourn_s:6.3f}  {p.p99_sojourn_s:6.3f}  {p.shed_fraction:5.2f}"
        )
    low, high = points[0], points[-1]
    # Below the knee the system keeps up: delivered ~= offered, no shedding.
    assert low.goodput_ratio > 0.85, f"unsaturated point already lossy: {low}"
    assert low.shed_fraction == 0.0
    # The sweep must cross the knee ...
    knee = saturation_knee(points)
    assert knee is not None, "sweep never saturated — raise the top offered rate"
    # ... past which throughput plateaus (cannot scale with offered load)
    # while the sojourn tail and the shed fraction blow up.
    assert high.throughput_hz < high.offered_rate_hz * 0.75
    assert high.p99_sojourn_s > 3.0 * low.p99_sojourn_s
    assert high.shed_fraction > 0.0


# ------------------------------------------- process backend, p99 burst
def burst_serve(num_workers=2, steady_images=6, burst_images=24):
    model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()
    rng = np.random.default_rng(RNG_SEED)
    image = rng.normal(size=(1, 3, 24, 24)).astype(np.float32)
    # Artificially slow workers make per-image service time ~100 ms so the
    # back-to-back burst overruns window + queue deterministically.
    config = ProcessClusterConfig(
        num_workers=num_workers, t_limit=30.0, delay_per_tile=(0.02,) * num_workers
    )
    serving = ServingConfig(window=2, queue_capacity=4, slo_seconds=0.5)
    handle = make_cluster_handle(model, TileGrid(2, 2), config=config, window=serving.window)
    steady: list[concurrent.futures.Future] = []
    burst: list[concurrent.futures.Future] = []
    shed = 0
    with ServingFrontEnd(handle, serving) as fe:
        for _ in range(steady_images):  # paced: arrivals ~ service rate
            steady.append(fe.submit(image, client="steady"))
            time.sleep(0.1)
        for _ in range(burst_images):  # open loop: as fast as possible
            try:
                burst.append(fe.submit(image, client="burst"))
            except Overloaded:
                shed += 1
        results = [f.result(timeout=60.0) for f in steady + burst]
    return {
        "admitted": len(steady) + len(burst),
        "completed": len(results),
        "shed": shed,
        "steady_p50_s": float(np.quantile([r.latency_s for r in results[:steady_images]], 0.5)),
        "burst_p99_s": float(np.quantile([r.latency_s for r in results[steady_images:]], 0.99)),
        "slo_misses": sum(r.slo_miss for r in results),
    }


def test_process_backend_p99_under_burst(benchmark):
    """CI gate: bursts shed instead of blocking; admitted work all lands."""
    stats = benchmark.pedantic(burst_serve, rounds=1, iterations=1)
    benchmark.extra_info["burst"] = stats
    print(f"\n{stats}")
    # Graceful drain: every admitted image resolved with an outcome.
    assert stats["completed"] == stats["admitted"]
    # The burst overran window + queue: shedding is load control working.
    assert stats["shed"] > 0, "burst never shed — queue_capacity too large for the burst"
    # Queueing shows up in the tail: the burst p99 carries admission-queue
    # wait the paced steady phase never sees.
    assert stats["burst_p99_s"] > stats["steady_p50_s"]
