"""Quickstart: FDSP-partition a CNN and compress its Conv-node outputs.

Runs in seconds on a laptop:

    python examples/quickstart.py

Shows the three core pieces of ADCNN on a small VGG-style model:
1. FDSP (§3.2) — per-tile execution equals whole-image execution except in
   a thin tile-border band;
2. the §4 compression pipeline — clipped ReLU + 4-bit quantization + RLE
   shrinks the Conv-node output by an order of magnitude;
3. the split model — separable blocks (Conv nodes) + rest layers (Central).
"""

import numpy as np

import repro.nn as nn
from repro.compression import CompressionPipeline
from repro.models import vgg_mini
from repro.nn import Tensor
from repro.partition import FDSPModel, TileGrid, fdsp_forward, interior_mask, receptive_border


def main() -> None:
    rng = np.random.default_rng(0)
    model = vgg_mini(num_classes=4, input_size=48, base_width=8).eval()
    grid = TileGrid(2, 2)  # coarse enough that tiles keep an exact interior
    image = rng.normal(size=(1, 3, 48, 48)).astype(np.float32)

    # --- 1. FDSP vs whole-image execution -----------------------------------
    separable = model.separable_part()
    whole = separable(Tensor(image)).data
    tiled = fdsp_forward(separable, image, grid).data
    border = receptive_border(separable)
    mask = interior_mask(grid, whole.shape[2:], border)
    interior_err = np.abs(tiled[:, :, mask] - whole[:, :, mask]).max()
    border_err = np.abs(tiled[:, :, ~mask] - whole[:, :, ~mask]).max()
    print(f"FDSP on a {grid} grid (receptive border = {border} px):")
    print(f"  max |difference| on interior pixels: {interior_err:.2e}  (exact)")
    print(f"  max |difference| on border pixels:   {border_err:.3f}  (what retraining absorbs)")

    # --- 2. Compression pipeline --------------------------------------------
    pipe = CompressionPipeline(lower=0.2, upper=2.0, bits=4)
    compressed = pipe.compress_packed(np.maximum(whole, 0))
    print(f"\nConv-node output compression (clip + 4-bit quant + RLE):")
    print(f"  raw: {compressed.raw_bits / 8000:.1f} kB -> wire: {compressed.compressed_bits / 8000:.1f} kB "
          f"({compressed.ratio:.3f}x; paper Table 2: 0.011-0.056x)")

    # --- 3. The split model --------------------------------------------------
    fdsp = FDSPModel(
        model, grid,
        clipped_relu=nn.ClippedReLU(0.2, 2.0),
        quantizer=nn.QuantizeSTE(bits=4, max_value=1.8),
    )
    fdsp.eval()
    logits = fdsp(Tensor(image)).data
    print(f"\nEnd-to-end split inference (tiles -> compress -> rest layers):")
    print(f"  logits: {np.round(logits, 3)}")
    print(f"  separable blocks on Conv nodes: {model.separable_prefix} of {model.num_blocks()}")


if __name__ == "__main__":
    main()
