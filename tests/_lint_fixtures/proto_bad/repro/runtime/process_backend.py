"""Forking driver fixture: emits an event the controller never handles,
and assigns BatchTask.slot which no consumer ever reads."""

from .controller import (
    ArmDeadline,
    CentralController,
    ImageReady,
    SendBatch,
    TriggerMerge,
    WorkerDied,
)
from .messages import BatchResult, BatchTask


def run(controller: CentralController) -> None:
    for cmd in controller.handle(ImageReady(0)):
        if isinstance(cmd, SendBatch):
            emit(BatchTask(0, (1,), slot="s0"))
        elif isinstance(cmd, ArmDeadline):
            note(WorkerDied(3))
        elif isinstance(cmd, TriggerMerge):
            continue


def emit(task: BatchTask) -> int:
    result = BatchResult(task.image_id, task.tile_ids, b"")
    stamp = result.trace["t_end"]
    return len(result.payload) + stamp


def note(event: object) -> object:
    return event
