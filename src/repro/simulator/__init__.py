"""Discrete-event edge-cluster simulator (testbed substitute — DESIGN.md §2)."""

from .analysis import (
    SaturationPoint,
    StageBreakdown,
    latency_series,
    render_timeline,
    saturation_knee,
    saturation_point,
    stage_breakdown,
)
from .core import Simulator
from .events import Event, EventQueue
from .network import Link, Medium
from .node import CpuSchedule, SimNode

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "SimNode",
    "CpuSchedule",
    "Link",
    "Medium",
    "StageBreakdown",
    "SaturationPoint",
    "stage_breakdown",
    "latency_series",
    "render_timeline",
    "saturation_point",
    "saturation_knee",
]
