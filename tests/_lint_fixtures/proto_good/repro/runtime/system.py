"""In-process driver fixture: the same full command dispatch, no forking."""

from .controller import ArmDeadline, CentralController, ImageReady, SendBatch
from .messages import BatchTask


def execute(controller: CentralController) -> list[BatchTask]:
    tasks: list[BatchTask] = []
    for cmd in controller.handle(ImageReady(0)):
        if isinstance(cmd, SendBatch):
            tasks.append(BatchTask(cmd.image_id, (0,)))
        elif isinstance(cmd, ArmDeadline):
            continue
    return tasks
