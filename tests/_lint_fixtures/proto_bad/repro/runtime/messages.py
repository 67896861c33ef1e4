"""RL012 bad fixture: BatchResult.trace is read but never explicitly set."""

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class BatchTask:
    image_id: int
    tile_ids: tuple[int, ...]
    slot: str | None = None


@dataclass(frozen=True, slots=True)
class BatchResult:
    image_id: int
    tile_ids: tuple[int, ...]
    payload: bytes
    trace: dict
