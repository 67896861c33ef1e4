"""Run-summary rendering: ``python -m repro.telemetry.report run.jsonl``.

Digests a telemetry JSONL artifact (events + metrics snapshot, written by
:meth:`TelemetryRecorder.write_jsonl`) into the quantities §7 reports:
per-stage latency breakdown (count/mean/p50/p95/p99), per-node busy
utilization, compression ratio on the wire, and straggler/fault counters
(zero-fills, re-dispatches, restarts, deadline triggers).
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from collections.abc import Iterable
from typing import Any

import numpy as np

from .export import read_jsonl
from .recorder import STAGE_COMPRESS, STAGE_CONV_COMPUTE, STAGES

__all__ = ["StageStats", "RunSummary", "stage_stats", "node_utilization", "summarize", "render", "main"]


@dataclass(frozen=True)
class StageStats:
    """Aggregated span durations of one pipeline stage."""

    stage: str
    count: int
    total_s: float
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float


@dataclass
class RunSummary:
    """Everything the report prints, as plain data (tests read this)."""

    stages: list[StageStats] = field(default_factory=list)
    utilization: dict[str, float] = field(default_factory=dict)
    images: int = 0
    mean_latency_s: float = math.nan
    wire_bits: float = 0.0
    raw_bits: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        """bits on the wire / pre-compression bits (Table 2 style)."""
        return self.wire_bits / self.raw_bits if self.raw_bits else math.nan


def stage_stats(events: Iterable[dict[str, Any]]) -> list[StageStats]:
    """Per-stage duration statistics from span events, in pipeline order."""
    durations: dict[str, list[float]] = {}
    for ev in events:
        if "duration" in ev:
            durations.setdefault(ev["kind"], []).append(float(ev["duration"]))
    out = []
    ordered = [s for s in STAGES if s in durations]
    ordered += [k for k in durations if k not in STAGES]
    for stage in ordered:
        d = np.asarray(durations[stage])
        out.append(
            StageStats(
                stage=stage,
                count=len(d),
                total_s=float(d.sum()),
                mean_s=float(d.mean()),
                p50_s=float(np.quantile(d, 0.5)),
                p95_s=float(np.quantile(d, 0.95)),
                p99_s=float(np.quantile(d, 0.99)),
            )
        )
    return out


def node_utilization(events: Iterable[dict[str, Any]]) -> dict[str, float]:
    """Busy fraction per node: compute(+compress) busy time / run span.

    Overlapping spans on one node (pipelined images, or compress nested
    inside the compute interval) are union-merged before summing, so the
    busy fraction is genuine wall-clock occupancy and never exceeds 1.0.
    """
    events = [e for e in events if "time" in e]
    if not events:
        return {}
    start = min(e["time"] for e in events)
    end = max(e["time"] + e.get("duration", 0.0) for e in events)
    window = max(end - start, 1e-12)
    intervals: dict[str, list[tuple[float, float]]] = {}
    for ev in events:
        if ev.get("kind") in (STAGE_CONV_COMPUTE, STAGE_COMPRESS) and "duration" in ev:
            node = str(ev.get("node", "?"))
            t0 = float(ev["time"])
            intervals.setdefault(node, []).append((t0, t0 + max(float(ev["duration"]), 0.0)))
    busy: dict[str, float] = {}
    for node, spans in intervals.items():
        spans.sort()
        total = 0.0
        cur_start, cur_end = spans[0]
        for t0, t1 in spans[1:]:
            if t0 > cur_end:
                total += cur_end - cur_start
                cur_start, cur_end = t0, t1
            else:
                cur_end = max(cur_end, t1)
        total += cur_end - cur_start
        busy[node] = total
    return {node: b / window for node, b in sorted(busy.items())}


_COUNTERS = (
    "adcnn_tiles_dispatched_total",
    "adcnn_tiles_zero_filled_total",
    "adcnn_tiles_local_total",
    "adcnn_redispatch_total",
    "adcnn_worker_restarts_total",
    "adcnn_deadline_triggers_total",
    # Open-loop serving (repro.serving / run_open_loop, DESIGN.md §5g):
    # admitted vs shed shows where load control kicked in.
    "adcnn_serving_admitted_total",
    "adcnn_serving_shed_total",
    "adcnn_serving_slo_miss_total",
    "adcnn_arrivals_total",
    "adcnn_shed_total",
    # Result batches whose bytes did not parse at the Central node (counted
    # per tile); their tiles stay unanswered until re-dispatch or T_L.
    "adcnn_result_corrupt_total",
    # Multi-cluster router tier (repro.sharding, DESIGN.md §5k): dispatch
    # fan-out per shard, supervision verbs (down/restart/probe), and the
    # terminal outcomes — re-routed images vs typed failures.  A nonzero
    # failed count means re-route budgets or the whole topology ran out.
    "adcnn_router_dispatch_total",
    "adcnn_router_reroute_total",
    "adcnn_router_cluster_down_total",
    "adcnn_router_cluster_restart_total",
    "adcnn_router_probe_total",
    "adcnn_router_failed_total",
    "adcnn_serving_failed_total",
)

#: Point-in-time gauges worth echoing in the report: the controller's
#: per-node scheduler share and the two admission/serving queue depths
#: (their final snapshot values show where back-pressure settled).
_GAUGES = (
    "adcnn_scheduler_share",
    "adcnn_admission_queue_depth",
    "adcnn_serving_queue_depth",
    "adcnn_router_in_flight",
)

#: Latency histograms snapshotted by the recorder; rendered as
#: count/mean/p50/p95/p99 rows next to the span-derived stage table.
_HISTOGRAMS = (
    "adcnn_image_latency_seconds",
    "adcnn_sojourn_seconds",
    "adcnn_serving_queue_wait_seconds",
    "adcnn_serving_latency_seconds",
)


def _gauge_key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{rendered}}}"


def summarize(events: list[dict[str, Any]], metric_rows: list[dict[str, Any]] | None = None) -> RunSummary:
    """Digest one run's events + metrics snapshot into a :class:`RunSummary`."""
    summary = RunSummary(stages=stage_stats(events), utilization=node_utilization(events))
    done = [e for e in events if e["kind"] == "image_done"]
    summary.images = len(done)
    latencies = [e["latency"] for e in done if "latency" in e]
    if latencies:
        summary.mean_latency_s = float(np.mean(latencies))
    for row in metric_rows or []:
        kind = row.get("metric_kind")
        name = row.get("name", "")
        if kind == "gauge":
            if name in _GAUGES:
                summary.gauges[_gauge_key(name, row.get("labels", {}))] = float(
                    row.get("value", 0.0)
                )
            continue
        if kind == "histogram":
            if name in _HISTOGRAMS:
                agg = summary.histograms.setdefault(
                    name, {"count": 0.0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
                )
                agg["count"] += float(row.get("count", 0.0))
                agg["sum"] += float(row.get("sum", 0.0))
                # Quantiles across label sets are not mergeable; keep the
                # worst observed tail, which is what an SLO check wants.
                for q in ("p50", "p95", "p99"):
                    agg[q] = max(agg[q], float(row.get(q, 0.0)))
            continue
        if kind != "counter":
            continue
        value = float(row.get("value", 0.0))
        # Ratio tracks the §4 result compression only — input tiles always
        # ship raw, so folding the "up" direction in would wash it out.
        if row.get("labels", {}).get("direction") == "down":
            if name == "adcnn_bits_wire_total":
                summary.wire_bits += value
            elif name == "adcnn_bits_raw_total":
                summary.raw_bits += value
        if name in _COUNTERS:
            summary.counters[name] = summary.counters.get(name, 0.0) + value
    return summary


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:10.3f}"


def render(summary: RunSummary) -> str:
    """Human-readable run report (what the CLI prints)."""
    lines = ["== telemetry run summary =="]
    if summary.images:
        lines.append(f"images: {summary.images}   mean latency: {summary.mean_latency_s * 1e3:.3f} ms")
    lines.append("")
    lines.append(f"{'stage':<16} {'count':>6} {'mean ms':>10} {'p50 ms':>10} {'p95 ms':>10} {'p99 ms':>10} {'total ms':>10}")
    for s in summary.stages:
        lines.append(
            f"{s.stage:<16} {s.count:>6} {_ms(s.mean_s)} {_ms(s.p50_s)} {_ms(s.p95_s)} {_ms(s.p99_s)} {_ms(s.total_s)}"
        )
    if summary.utilization:
        lines.append("")
        lines.append("per-node utilization (compute busy / run span):")
        for node, u in summary.utilization.items():
            bar = "#" * int(round(u * 40))
            lines.append(f"  {node:<12} {u * 100:6.1f}%  |{bar:<40}|")
    if summary.raw_bits:
        lines.append("")
        lines.append(
            f"results on the wire: {summary.wire_bits / 8e3:.1f} kB of {summary.raw_bits / 8e3:.1f} kB raw "
            f"(compression ratio {summary.compression_ratio:.4f})"
        )
    if summary.counters:
        lines.append("")
        lines.append("counters:")
        for name in _COUNTERS:
            if name in summary.counters:
                lines.append(f"  {name:<34} {summary.counters[name]:.0f}")
    if summary.histograms:
        lines.append("")
        lines.append("latency distributions (final snapshot):")
        lines.append(f"  {'metric':<36} {'count':>7} {'mean ms':>10} {'p50 ms':>10} {'p95 ms':>10} {'p99 ms':>10}")
        for name in _HISTOGRAMS:
            if name not in summary.histograms:
                continue
            h = summary.histograms[name]
            mean = h["sum"] / h["count"] if h["count"] else math.nan
            lines.append(
                f"  {name:<36} {h['count']:>7.0f} {_ms(mean)} {_ms(h['p50'])} {_ms(h['p95'])} {_ms(h['p99'])}"
            )
    if summary.gauges:
        lines.append("")
        lines.append("gauges (final snapshot):")
        for key in sorted(summary.gauges):
            lines.append(f"  {key:<44} {summary.gauges[key]:.3f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Summarize a telemetry JSONL artifact (events + metrics).",
    )
    parser.add_argument("jsonl", help="run artifact written by TelemetryRecorder.write_jsonl")
    args = parser.parse_args(argv)
    events, metric_rows = read_jsonl(args.jsonl)
    print(render(summarize(events, metric_rows)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
