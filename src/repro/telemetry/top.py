"""Terminal dashboard: ``python -m repro.telemetry.top``.

Renders the live-introspection snapshots (DESIGN.md §5h) —
:meth:`ProcessCluster.health` and :meth:`ServingFrontEnd.status` — as a
compact ``top``-style text panel: one bar per Conv node (health score
derived from the controller's Algorithm-2 EWMA rates), plus the serving
loop's admission queue, in-flight depth, and streaming p50/p95/p99
latencies.

Sharded deployments (DESIGN.md §5k) render with full shard attribution:
pass a :class:`RouterHealth` and each shard gets its own section — router
state, per-shard in-flight/restarts, and the shard's node bars — so a
struggling worker is attributable to its cluster at a glance.  ``--shards
N`` runs the demo against an N-shard router instead of a bare cluster.

With no arguments it runs a self-contained demo: a 2-worker ``vgg_mini``
cluster behind a :class:`~repro.serving.ServingFrontEnd`, a feeder thread
submitting random frames, and the panel re-rendered every ``--interval``
seconds until ``--frames`` submissions have completed.  ``render_top`` is
a pure function over the snapshot types so tests (and other UIs) can use
it without a cluster.
"""

from __future__ import annotations

import argparse
import math
import time
from collections.abc import Callable

from .live import ClusterHealth, QuantileSnapshot, RouterHealth, ServingStatus

__all__ = ["render_top", "main"]

#: Width of the per-node health bar in characters.
BAR_WIDTH = 20


def _bar(fraction: float, width: int = BAR_WIDTH) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _ms(seconds: float) -> str:
    if not math.isfinite(seconds):
        return "     n/a"
    return f"{seconds * 1e3:6.1f}ms"


def _quantile_line(label: str, snap: QuantileSnapshot) -> str:
    return (
        f"  {label:<11} n={snap.count:<6d} p50={_ms(snap.p50)}"
        f"  p95={_ms(snap.p95)}  p99={_ms(snap.p99)}"
    )


def _node_lines(health: ClusterHealth, indent: str = "  ") -> list[str]:
    lines = []
    for node in health.nodes:
        state = "up  " if node.alive else "DOWN"
        lines.append(
            f"{indent}{node.node:<9} {state} [{_bar(node.score)}] score={node.score:4.2f}"
            f"  rate={node.rate:8.2f} tiles/s  restarts={node.restarts}"
        )
    return lines


def _render_router(health: RouterHealth, clock: Callable[[], float]) -> list[str]:
    """Header + one attributed section per shard (DESIGN.md §5k)."""
    lines = [
        f"adcnn top — {time.strftime('%H:%M:%S', time.localtime(clock()))}"
        f"  policy={health.policy}"
        f"  shards={health.routable_shards}/{len(health.shards)} routable"
        f"  in_flight={health.in_flight}  dispatched={health.images_dispatched}"
        f"  rerouted={health.rerouted}  failed={health.failed}",
    ]
    for shard in health.shards:
        lines += [
            "",
            f"{shard.name} [{shard.state:<10}]  in_flight={shard.in_flight}"
            f"  restarts={shard.restarts}"
            f"  fail_streak={shard.consecutive_failures}",
        ]
        if shard.cluster is not None:
            lines += _node_lines(shard.cluster)
        else:
            lines.append("  (no cluster snapshot)")
    return lines


def render_top(
    health: ClusterHealth | RouterHealth,
    status: ServingStatus | None = None,
    clock: Callable[[], float] = time.time,
) -> str:
    """Render one frame of the dashboard as a plain-text block.

    Pure with respect to its snapshot arguments; ``clock`` is injectable so
    tests get a stable header line.  A :class:`RouterHealth` renders the
    two-tier view — router totals, then each shard's nodes under its own
    attributed heading.
    """
    if isinstance(health, RouterHealth):
        lines = _render_router(health, clock)
    else:
        lines = [
            f"adcnn top — {time.strftime('%H:%M:%S', time.localtime(clock()))}"
            f"  transport={health.transport}  blas_threads={health.blas_threads or '?'}"
            f"  window={health.window}"
            f"  in_flight={health.in_flight}  dispatched={health.images_dispatched}",
            "",
            f"nodes ({sum(1 for n in health.nodes if n.alive)}/{len(health.nodes)} alive)",
            *_node_lines(health),
        ]
    if status is not None:
        admit = "admitting" if status.admitting else "DRAINING"
        lines += [
            "",
            f"serving ({admit})  queue={status.queue_depth}/{status.queue_capacity}"
            f"  in_flight={status.in_flight}  clients={len(status.clients)}",
            f"  submitted={status.submitted}  completed={status.completed}"
            f"  shed={status.shed}  failed={status.failed}"
            f"  slo_misses={status.slo_misses}",
            _quantile_line("latency", status.latency),
            _quantile_line("queue_wait", status.queue_wait),
        ]
    return "\n".join(lines)


def _run_demo(
    frames: int, interval: float, num_workers: int, once: bool, shards: int = 1
) -> int:
    """Self-contained demo serving loop rendered live to stdout."""
    import threading

    import numpy as np

    from repro.compression import CompressionPipeline
    from repro.models import vgg_mini
    from repro.runtime import ProcessClusterConfig
    from repro.serving import ServingConfig, ServingFrontEnd
    from repro.sharding import (
        ClusterHandle,
        ShardedDeploymentSpec,
        build_router,
        make_cluster_handle,
    )

    from .recorder import TelemetryRecorder

    model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()
    rng = np.random.default_rng(0)
    driven: ClusterHandle
    if shards > 1:
        spec = ShardedDeploymentSpec.homogeneous(shards, num_workers=num_workers)
        driven = build_router(
            model, "2x2", spec, pipeline=CompressionPipeline(),
            telemetry=TelemetryRecorder(),
        )
    else:
        config = ProcessClusterConfig(num_workers=num_workers, t_limit=30.0)
        driven = make_cluster_handle(
            model, "2x2", pipeline=CompressionPipeline(), config=config,
            telemetry=TelemetryRecorder(), window=2,
        )
    frontend = ServingFrontEnd(driven, ServingConfig(window=2 * shards, queue_capacity=8))

    def feed() -> None:
        for _ in range(frames):
            image = rng.normal(size=(1, 3, 24, 24)).astype(np.float32)
            try:
                frontend.submit(image, client="demo")
            except Exception:
                time.sleep(interval)

    with frontend:
        feeder = threading.Thread(target=feed, name="adcnn-top-feeder", daemon=True)
        feeder.start()
        while True:
            status = frontend.status()
            print(render_top(frontend.health(), status))
            if once or (not feeder.is_alive() and status.completed + status.shed >= frames):
                break
            print()
            time.sleep(interval)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.top",
        description="Live health dashboard over a demo serving cluster.",
    )
    parser.add_argument("--frames", type=int, default=16, help="frames to submit")
    parser.add_argument("--interval", type=float, default=0.5, help="refresh period (s)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--shards", type=int, default=1,
        help="run the demo against an N-shard router (1 = bare cluster)",
    )
    parser.add_argument("--once", action="store_true", help="render one frame and exit")
    args = parser.parse_args(argv)
    return _run_demo(args.frames, args.interval, args.workers, args.once, args.shards)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
