"""Telemetry overhead: what recording one image costs, in microseconds.

The claim under test is that instrumentation is cheap enough to leave on.
It is stated as an **absolute budget on a fixed workload** — at most
``MAX_EVENTS_PER_IMAGE`` events and ``MAX_COST_US_PER_IMAGE`` microseconds
of recording per image of a 24x24 ``vgg_mini`` on a 2x2 grid with two
workers and the §4 pipeline — so the gate measures the recorder and
nothing else.  A ratio against mean image latency would gate the wrong
module: its denominator is what every perf PR shrinks, so it goes red when
the *image* gets faster while the recorder costs the same ~15 events.  The
ratio is still printed and stored in ``extra_info``.

Measuring the cost directly as an A/B latency diff is hopeless on shared
CI hardware — run-to-run noise (CPU steal, scheduler churn between the
central and worker processes) is ±10%, an order of magnitude above the
effect.  So the bench decomposes it into two stable measurements:

1. an instrumented fig11-style stream (2 workers, §4 compression) gives
   the exact event stream telemetry recorded for it (and the real mean
   image latency, for the printed ratio);
2. replaying that exact event stream into a fresh recorder in a tight
   single-threaded loop prices what recording cost — min-of-N of a pure
   CPU loop is robust to steal (interference stretches a run, never
   shrinks it).

Everything telemetry adds to the latency path is recording calls plus a
few clock reads, so the replay cost bounds it; a 1.5x safety factor covers
the handful of clock reads the replay does not reproduce (the replay
already prices one counter update per event, more than the real
instrumentation performs).  The raw A/B diff is still printed and stored
in ``extra_info`` for the curious — just not asserted on.

The instrumented arm records with §5h *tracing on* (every enabled run
mints TraceContexts and tags spans with the trace triple), so the budget
covers tracing-enabled instrumentation, not a stripped-down recorder — the
replay re-records the trace fields verbatim because they arrive as
ordinary span kwargs.
"""

import time

import numpy as np

from repro.compression import CompressionPipeline
from repro.models import vgg_mini
from repro.runtime import ProcessCluster, ProcessClusterConfig
from repro.telemetry import TelemetryRecorder

NUM_IMAGES = 24
REPLAY_ROUNDS = 15
SAFETY_FACTOR = 1.5
#: Budgets per image of the fixed workload above.  Events: 14 per image —
#: one transfer/conv_compute/compress/result_transfer set per worker batch
#: (two batches of two tiles) plus 6 Central-side events — read as 14.6
#: because the first image's events are charged to the other 23; the
#: budget leaves two events over 15.  Time: measured at 158-162 us per
#: image when the spans were per tile (23.0 events; ~7 us per event, safety
#: factor included), with 2x left for a slower CI runner.
MAX_EVENTS_PER_IMAGE = 17
MAX_COST_US_PER_IMAGE = 320.0


def _stream(cluster, images) -> float:
    """Mean image wall latency over the stream (first image discarded)."""
    outcomes = cluster.infer_stream(list(images), pipeline_depth=1)
    return float(np.mean([o.wall_seconds for o in outcomes[1:]]))


def _replay_seconds(events) -> float:
    """Best-of-N time to re-record the run's exact event stream."""
    best = float("inf")
    for _ in range(REPLAY_ROUNDS):
        sink = TelemetryRecorder()
        t0 = time.perf_counter()
        for ev in events:
            if "duration" in ev:
                extra = {k: v for k, v in ev.items()
                         if k not in ("time", "kind", "duration", "node", "image_id")}
                sink.span(ev["kind"], ev["time"], ev["duration"], node=ev.get("node"),
                          image_id=ev.get("image_id"), **extra)
            else:
                extra = {k: v for k, v in ev.items() if k not in ("time", "kind")}
                sink.record(ev["time"], ev["kind"], **extra)
            sink.count("adcnn_replay_total")  # price one counter hit per event
        best = min(best, time.perf_counter() - t0)
    return best


def test_telemetry_recording_cost_within_budget(benchmark):
    model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()
    rng = np.random.default_rng(11)
    images = rng.normal(size=(NUM_IMAGES, 1, 3, 24, 24)).astype(np.float32)
    cfg = ProcessClusterConfig(num_workers=2, t_limit=30.0)
    telemetry = TelemetryRecorder()

    def instrumented_run():
        with ProcessCluster(model, "2x2", pipeline=CompressionPipeline(), config=cfg) as null_cluster, \
             ProcessCluster(model, "2x2", pipeline=CompressionPipeline(), config=cfg,
                            telemetry=telemetry) as tel_cluster:
            _stream(null_cluster, images[:4])  # warm both clusters up
            _stream(tel_cluster, images[:4])
            telemetry.clear()
            return _stream(null_cluster, images), _stream(tel_cluster, images)

    null_latency, tel_latency = benchmark.pedantic(instrumented_run, rounds=1, iterations=1)

    events = telemetry.events
    assert events, "telemetry arm recorded nothing — instrumentation is dead"
    # The priced stream must be the tracing-enabled one: span events carry
    # the §5h trace triple, and every image produced a request root.
    assert any("trace_id" in ev for ev in events), "no trace-annotated events recorded"
    roots = [ev for ev in events if ev["kind"] == "request"]
    assert len(roots) == NUM_IMAGES, "expected one request root span per image"
    recording_s = _replay_seconds(events)
    # The first image of the stream is dropped from the latency mean, so it is
    # dropped from the divisor too: the cost is charged to one image fewer.
    events_per_image = len(events) / (NUM_IMAGES - 1)
    cost_s = recording_s * SAFETY_FACTOR / (NUM_IMAGES - 1)
    cost_us = cost_s * 1e6
    overhead = cost_s / tel_latency
    ab_diff = tel_latency / null_latency - 1.0

    benchmark.extra_info["mean_latency_s"] = tel_latency
    benchmark.extra_info["events_per_image"] = events_per_image
    benchmark.extra_info["recording_cost_per_image_us"] = cost_us
    benchmark.extra_info["overhead_fraction"] = overhead
    benchmark.extra_info["ab_diff_fraction_noisy"] = ab_diff
    print(f"\n{events_per_image:.1f} events/image costing {cost_us:.1f} us/image "
          f"(x{SAFETY_FACTOR:.1f} safety; budget {MAX_EVENTS_PER_IMAGE} events, "
          f"{MAX_COST_US_PER_IMAGE} us); mean latency {tel_latency * 1e3:.3f} ms/image "
          f"-> {overhead * 100:.2f}% of it (A/B diff {ab_diff * 100:+.2f}%, noise-dominated)")
    assert events_per_image <= MAX_EVENTS_PER_IMAGE, (
        f"{events_per_image:.1f} telemetry events per image exceed the {MAX_EVENTS_PER_IMAGE}-event budget"
    )
    assert cost_us <= MAX_COST_US_PER_IMAGE, (
        f"recording costs {cost_us:.1f} us per image, over the {MAX_COST_US_PER_IMAGE} us budget"
    )
