"""The full Conv-node output compression pipeline of §4 (Figure 6):

clipped ReLU (sparsify) → k-bit uniform quantization → run-length encoding.

The pipeline is what a Conv node applies to its separable-stack output
before transmission, and what the Central node inverts on receipt.  It is
*lossy* once (clip + quantize) but the wire encoding itself is lossless, so
``decompress(compress_packed(x)) == clip-and-quantize(x)`` exactly — which is
also exactly what the retrained model (Figure 7b) was trained to expect.

The runtime calls it once per *batch*: a Conv node encodes the stacked
output of all its tiles for one image as one stream, and the Central node
decodes that stream once and takes each tile's rows from it.  Clip,
quantize and dequantize are elementwise and the RLE is lossless, so the rows
equal per-tile round trips bit for bit; only the header count and the zero
runs that cross tile boundaries differ on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.fused import fused_clip_quantize

from .quantize import UniformQuantizer
from .wire import PackedStream, pack_levels, unpack

__all__ = ["PackedTensor", "CompressionPipeline", "sparsity"]


def sparsity(x: np.ndarray) -> float:
    """Fraction of exact zeros."""
    x = np.asarray(x)
    return float((x == 0).mean()) if x.size else 0.0


@dataclass(frozen=True)
class PackedTensor:
    """A compressed activation map serialized to real wire bytes.

    ``packed.buffer`` is the single contiguous ``uint8`` buffer that
    actually crosses the transport, so ``wire_bits`` is measured
    (``8 * nbytes``), not accounted, while ``compressed_bits`` reports the
    token-stream size the paper's Table 2 accounts for.
    """

    packed: PackedStream
    raw_bits: int

    @property
    def compressed_bits(self) -> int:
        """Token-stream bits (flags + run counters + literals, no header)."""
        return self.packed.payload_bits

    @property
    def wire_bits(self) -> int:
        """Actual bytes-on-the-wire size, header and padding included."""
        return self.packed.wire_bits

    @property
    def ratio(self) -> float:
        """compressed / raw — the paper's Table 2 reports this (≈0.01-0.06)."""
        return self.compressed_bits / self.raw_bits if self.raw_bits else 0.0

    @property
    def quantized_dense_bits(self) -> int:
        """Size if every element were shipped at ``value_bits`` with no RLE —
        the §4.2-only middle point (8x for 4-bit), isolating what §4.3's
        run-length coding adds on top."""
        return self.packed.num_elements * self.packed.value_bits

    @property
    def rle_gain(self) -> float:
        """quantized-dense / RLE size: the factor RLE alone contributes."""
        return self.quantized_dense_bits / self.compressed_bits if self.compressed_bits else 0.0

    @property
    def wire_ratio(self) -> float:
        """measured wire size / raw — the honest transport-level ratio."""
        return self.wire_bits / self.raw_bits if self.raw_bits else 0.0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.packed.shape


class CompressionPipeline:
    """clipped ReLU + quantize + RLE, with exact bit accounting.

    Parameters mirror the training-graph modules: ``(lower, upper)`` are the
    clipped-ReLU bounds, ``bits`` the quantizer width (paper: 4), and
    ``run_bits`` the zero-run counter width.
    """

    def __init__(self, lower: float = 0.0, upper: float = 6.0, bits: int = 4, run_bits: int = 8) -> None:
        if upper <= lower:
            raise ValueError(f"need upper > lower, got [{lower}, {upper}]")
        self.lower = float(lower)
        self.upper = float(upper)
        self.quantizer = UniformQuantizer(bits=bits, max_value=upper - lower)
        self.run_bits = int(run_bits)

    @property
    def bits(self) -> int:
        return self.quantizer.bits

    def clip(self, x: np.ndarray) -> np.ndarray:
        """ReLU_[a,b] — §4.1."""
        return np.clip(x, self.lower, self.upper) - self.lower

    def _levels(self, x: np.ndarray) -> np.ndarray:
        """clip → quantize as one fused array pass (bitwise the same levels
        as ``quantizer.quantize(self.clip(x))``, fewer temporaries)."""
        return fused_clip_quantize(
            x,
            self.lower,
            self.upper,
            self.quantizer.step,
            self.quantizer.num_levels,
            self.quantizer.level_dtype,
        )

    def compress_packed(self, x: np.ndarray) -> PackedTensor:
        """Full pipeline straight to wire bytes: clip → quantize → RLE-pack."""
        x = np.asarray(x, dtype=np.float32)
        packed = pack_levels(self._levels(x), value_bits=self.quantizer.bits, run_bits=self.run_bits)
        return PackedTensor(packed=packed, raw_bits=x.size * 32)

    def decompress(
        self, pt: PackedTensor | PackedStream | bytes | bytearray | memoryview | np.ndarray
    ) -> np.ndarray:
        """Invert the wire encoding: decode → dequantize (float32).

        Accepts a :class:`PackedTensor`, a :class:`PackedStream`, or a raw
        packed buffer.
        """
        return self.quantizer.dequantize(unpack(pt.packed if isinstance(pt, PackedTensor) else pt))

    def measured_wire_bits(self, x: np.ndarray) -> int:
        """Actual packed-buffer size (bits) for ``x`` on the wire.

        Feed this to ``ADCNNWorkload.with_measured_output`` so the DES
        prices result transfers with measured bytes instead of an assumed
        compression ratio.
        """
        return self.compress_packed(x).wire_bits

    def apply(self, x: np.ndarray) -> np.ndarray:
        """What the Central node sees: compress then decompress."""
        return self.decompress(self.compress_packed(x))

    def reference_values(self, x: np.ndarray) -> np.ndarray:
        """clip + quantize without the wire encoding (for equality tests)."""
        return self.quantizer.roundtrip(self.clip(np.asarray(x, dtype=np.float32)))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CompressionPipeline(lower={self.lower}, upper={self.upper}, "
            f"bits={self.quantizer.bits}, run_bits={self.run_bits})"
        )
