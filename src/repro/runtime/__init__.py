"""ADCNN runtime (§6): controller state machine, scheduling, DES system,
process cluster."""

from .controller import (
    CentralController,
    ControllerConfig,
    Decision,
    arrival_span_credits,
    busy_span_credits,
    replay,
)
from .deployment import ADCNNDeployment
from .messages import LOCAL_WORKER, BatchResult, BatchTask, Shutdown
from .policies import (
    AllocationPolicy,
    AllocationRequest,
    available_policies,
    get_policy,
    register_policy,
    resolve_policy,
)
from .arrivals import burst_arrival_times, poisson_arrival_times, uniform_arrival_times
from .process_backend import InferenceOutcome, ProcessCluster, ProcessClusterConfig, StreamEngine
from .scheduler import SchedulingError, StatisticsCollector, allocate_tiles
from .system import ADCNNConfig, ADCNNSystem, ImageRecord, MediumQueue, OpenLoopResult
from .workload import ADCNNWorkload
from .zero_fill import accuracy_under_tile_loss, forward_with_missing_tiles

__all__ = [
    "CentralController",
    "ControllerConfig",
    "Decision",
    "replay",
    "arrival_span_credits",
    "busy_span_credits",
    "AllocationPolicy",
    "AllocationRequest",
    "register_policy",
    "get_policy",
    "resolve_policy",
    "available_policies",
    "StatisticsCollector",
    "allocate_tiles",
    "SchedulingError",
    "ADCNNWorkload",
    "ADCNNConfig",
    "ADCNNSystem",
    "ImageRecord",
    "MediumQueue",
    "BatchTask",
    "BatchResult",
    "Shutdown",
    "LOCAL_WORKER",
    "ProcessCluster",
    "ProcessClusterConfig",
    "InferenceOutcome",
    "StreamEngine",
    "OpenLoopResult",
    "poisson_arrival_times",
    "uniform_arrival_times",
    "burst_arrival_times",
    "forward_with_missing_tiles",
    "accuracy_under_tile_loss",
    "ADCNNDeployment",
]
