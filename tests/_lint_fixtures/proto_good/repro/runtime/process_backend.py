"""Forking driver fixture: dispatches every command, produces both events."""

from .controller import (
    ArmDeadline,
    CentralController,
    ImageReady,
    ResultReceived,
    SendBatch,
)
from .messages import BatchResult, BatchTask


def run(controller: CentralController) -> None:
    events: list[object] = [ImageReady(0)]
    while events:
        for cmd in controller.handle(events.pop()):
            if isinstance(cmd, SendBatch):
                consume_task(BatchTask(0, (1,), slot="s0"))
            elif isinstance(cmd, ArmDeadline):
                events.append(ResultReceived(cmd.image_id))


def consume_task(task: BatchTask) -> tuple[int, tuple[int, ...], bytes, str | None]:
    result = BatchResult(task.image_id, task.tile_ids, b"")
    return (result.image_id, result.tile_ids, result.payload, task.slot)
