"""RL002 fixture: ad-hoc objects enqueued on mp queues and worker channels."""


class NotAMessage:
    pass


def enqueue(task_queue) -> None:
    task_queue.put({"image_id": 3})  # line 9: dict literal on a queue
    task_queue.put(NotAMessage())  # line 10: undeclared class on a queue


def send(channels, channel) -> None:
    channels[0].send({"image_id": 3})  # line 14: dict literal on a channel
    channel.send(NotAMessage())  # line 15: undeclared class on a channel
