"""Fully Decomposable Spatial Partition — §3.2, the paper's key idea.

FDSP runs each input tile through the separable layer blocks completely
independently: where a convolution window would reach across a tile border,
the missing pixels are zero-padded (Figure 4d) instead of fetched from the
neighbouring tile.  This removes all cross-tile communication at the price
of a (retrainable) accuracy perturbation confined to a border band whose
width is the receptive-field growth of the stack.

This module provides:

- :func:`receptive_border` — width of that invalid border band;
- :func:`interior_mask` — boolean mask of pixels guaranteed *exact* vs the
  unpartitioned network (used by the property-based equivalence tests);
- :func:`fdsp_forward` — array/tensor per-tile forward + reassembly;
- :class:`FDSPModel` — the modified training graph of Figure 7(b): FDSP
  split, separable blocks per tile, optional clipped ReLU + STE quantizer
  on the separable output, then the rest layers.
"""

from __future__ import annotations

import math

import numpy as np

import repro.nn as nn
from repro.models.blocks import ConvBlock1d, LayerBlock, PartitionableCNN, ResidualBlock
from repro.nn import Tensor
from repro.nn.modules import _BatchNorm

from .geometry import (
    SegmentGrid,
    TileGrid,
    grid_for_model,
    reassemble_tensor,
    split_stacked,
    split_tensor,
    unstack,
)

__all__ = ["receptive_border", "interior_mask", "fdsp_forward", "FDSPModel"]


def _primitive_ops(block: nn.Module) -> list[tuple[str, int, int]]:
    """Flatten a layer block into ('conv', k, stride) / ('pool', size, _) ops.

    For residual blocks the main path dominates the border growth (the
    shortcut is identity or 1x1, both narrower), so we walk the main path.
    """
    ops: list[tuple[str, int, int]] = []
    if isinstance(block, LayerBlock):
        ops.append(("conv", block.conv.kernel_size, block.conv.stride))
        if block.pool is not None:
            ops.append(("pool", block.pool.kernel_size, 0))
    elif isinstance(block, ResidualBlock):
        ops.append(("conv", block.conv1.kernel_size, block.conv1.stride))
        ops.append(("conv", block.conv2.kernel_size, block.conv2.stride))
    elif isinstance(block, ConvBlock1d):
        ops.append(("conv", block.conv.kernel_size, block.conv.stride))
        if block.pool is not None:
            ops.append(("pool", block.pool.kernel_size, 0))
    elif isinstance(block, nn.Sequential):
        for sub in block:
            ops.extend(_primitive_ops(sub))
    else:
        raise TypeError(f"cannot derive receptive border for block type {type(block).__name__}")
    return ops


def receptive_border(blocks: nn.Module) -> int:
    """Width (in output pixels) of the tile-border band whose values may
    differ from unpartitioned execution.

    Recurrence (b = invalid border width so far):
    conv(k, s, pad=k//2): ``b <- ceil((b + k//2) / s)``;
    non-overlapping pool(p): ``b <- ceil(b / p)``.
    """
    b = 0
    for kind, a, s in _primitive_ops(blocks if isinstance(blocks, nn.Sequential) else nn.Sequential(blocks)):
        if kind == "conv":
            b = math.ceil((b + a // 2) / s)
        else:  # pool
            b = math.ceil(b / a)
    return b


def interior_mask(
    grid: TileGrid | SegmentGrid,
    out_shape: tuple[int, ...],
    border: int,
) -> np.ndarray:
    """Boolean mask over the reassembled separable output marking pixels
    that FDSP computes *identically* to the unpartitioned network.

    ``out_shape`` is (H, W) for 2-D grids, (L,) for segment grids.
    """
    if isinstance(grid, SegmentGrid):
        (length,) = out_shape
        seg = grid.validate(length)
        mask1d = np.zeros(length, dtype=bool)
        for sl in grid.tile_slices(length):
            lo, hi = sl.start + border, sl.stop - border
            if lo < hi:
                mask1d[lo:hi] = True
        return mask1d
    h, w = out_shape
    th, tw = grid.validate(h, w)
    tile_mask = np.zeros((th, tw), dtype=bool)
    if th > 2 * border and tw > 2 * border:
        tile_mask[border : th - border, border : tw - border] = True
    return np.tile(tile_mask, (grid.rows, grid.cols))


def _fdsp_forward_looped(
    separable: nn.Sequential, x: Tensor, grid: TileGrid | SegmentGrid
) -> Tensor:
    """The sanctioned per-tile reference path (one forward per tile).

    Semantically this *is* FDSP; the batched path below is an execution
    strategy over it.  It stays authoritative for two reasons: property
    tests assert the batched path matches it bitwise, and training-mode
    batch norm must see per-tile batch statistics (a stacked block would
    change both the statistics and the running-stat update cadence).
    """
    tiles = split_tensor(x, grid)
    outs = [separable(t) for t in tiles]  # repro-lint: disable=RL010
    return reassemble_tensor(outs, grid)


def _needs_looped_path(separable: nn.Module) -> bool:
    """True when stacking tiles would change semantics: training-mode BN
    (batch statistics + running-stat updates are per-forward)."""
    return any(isinstance(m, _BatchNorm) and m.training for m in separable.modules())


def fdsp_forward(
    separable: nn.Sequential,
    x: Tensor | np.ndarray,
    grid: TileGrid | SegmentGrid,
    *,
    batched: bool = True,
) -> Tensor:
    """Run the separable stack independently per tile and reassemble.

    Accepts a Tensor (autograd flows through the tiles — the retraining
    path) or a plain ndarray (inference).

    By default the K identically-shaped tiles are stacked along the batch
    axis and the stack runs *once* (DESIGN.md §5i) — bit-identical to the
    per-tile loop because convolution dispatches one GEMM per sample
    (:mod:`repro.nn.functional`).  The loop is kept as the sanctioned
    reference (``batched=False``) and is selected automatically whenever a
    training-mode BN would make stacking change semantics, so the
    retraining graph is unaffected.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if not batched or _needs_looped_path(separable):
        return _fdsp_forward_looped(separable, x, grid)
    out = separable(split_stacked(x, grid))
    return reassemble_tensor(unstack(out, grid, x.shape[0]), grid)


class FDSPModel(nn.Module):
    """The modified CNN of Figure 7(b).

    Wraps a :class:`PartitionableCNN`: the separable prefix runs per-tile
    under FDSP; optionally a :class:`~repro.nn.ClippedReLU` and a
    :class:`~repro.nn.QuantizeSTE` compress the separable output; the rest
    layers consume the reassembled map.  Progressive retraining (Algorithm
    1) builds three of these with increasing ``stage``.
    """

    def __init__(
        self,
        model: PartitionableCNN,
        grid: TileGrid | SegmentGrid | str,
        clipped_relu: nn.ClippedReLU | None = None,
        quantizer: nn.QuantizeSTE | None = None,
    ) -> None:
        super().__init__()
        self.model = model
        self.grid = grid_for_model(model, grid) if isinstance(grid, str) else grid
        self.clip = clipped_relu if clipped_relu is not None else nn.Identity()
        self.quant = quantizer if quantizer is not None else nn.Identity()
        self._validate()

    def _validate(self) -> None:
        reduction = self.model.separable_spatial_reduction()
        shape = self.model.input_shape
        if isinstance(self.grid, SegmentGrid):
            self.grid.validate(shape[1], reduction)
        else:
            self.grid.validate(shape[1], shape[2], reduction)

    @property
    def has_compression(self) -> bool:
        return not isinstance(self.clip, nn.Identity)

    def separable_output(self, x: Tensor | np.ndarray) -> Tensor:
        """FDSP forward through the separable blocks + compression stages —
        exactly what Conv nodes transmit to the Central node."""
        y = fdsp_forward(self.model.separable_part(), x, self.grid)
        return self.quant(self.clip(y))

    def forward(self, x: Tensor | np.ndarray) -> Tensor:
        return self.model.rest_part()(self.separable_output(x))
