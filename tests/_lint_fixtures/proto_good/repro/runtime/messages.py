"""RL012 good fixture: every produced field is consumed and vice versa."""

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
