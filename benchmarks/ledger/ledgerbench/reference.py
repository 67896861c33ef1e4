"""In-process reference output: what the cluster must return for an image.

The same arithmetic as the distributed path, with no processes: split,
one fused stacked forward over the whole grid, per-tile
``compress_packed``/``decompress``, reassemble, rest layers.  The stacked
forward is batch-invariant bit for bit, so the comparison is exact.
"""

from __future__ import annotations

from typing import Any

import numpy as np

import repro.nn as nn
from repro.nn import Tensor
from repro.partition.geometry import reassemble_array, split_array


class Reference:
    def __init__(self, model: Any, grid: Any, pipeline: Any) -> None:
        self.grid = grid
        self.pipeline = pipeline
        separable = model.separable_part()
        self.fused = nn.try_compile(separable)
        if self.fused is None:
            raise RuntimeError("separable stack does not compile to the fused path")
        self.rest = model.rest_part()

    def feature_tiles(self, image: np.ndarray) -> list[np.ndarray]:
        tiles = split_array(image, self.grid)
        n = tiles[0].shape[0]
        block = self.fused(np.concatenate(tiles, axis=0))
        return [block[i * n : (i + 1) * n] for i in range(len(tiles))]

    def output(self, image: np.ndarray) -> np.ndarray:
        received = [
            self.pipeline.decompress(self.pipeline.compress_packed(tile))
            for tile in self.feature_tiles(image)
        ]
        with nn.no_grad():
            return self.rest(Tensor(reassemble_array(received, self.grid))).data
