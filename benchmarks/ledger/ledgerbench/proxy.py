"""Timing proxy around a ``ClusterHandle``: the layer boundary, seen from outside.

The serving front-end (or the router) drives the proxy exactly as it would
drive the handle; ``dispatch`` and ``pump`` are recorded as spans, every
other attribute is the handle's own.
"""

from __future__ import annotations

from typing import Any

from .spans import SpanLog


class TimedHandle:
    def __init__(self, inner: Any, log: SpanLog, layer: str) -> None:
        self._inner = inner
        self._log = log
        self._layer = layer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def start(self) -> TimedHandle:
        with self._log.span(f"{self._layer}.start"):
            self._inner.start()
        return self

    def stop(self) -> None:
        with self._log.span(f"{self._layer}.stop"):
            self._inner.stop()

    def dispatch(self, image: Any, trace: Any = None, **kwargs: Any) -> int:
        with self._log.span(f"{self._layer}.dispatch", self._log.rid_of(image)):
            return self._inner.dispatch(image, trace=trace, **kwargs)

    def pump(self, block: bool = True) -> list[Any]:
        with self._log.span(f"{self._layer}.pump"):
            return self._inner.pump(block)
