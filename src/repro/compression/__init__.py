"""Communication compression of §4: clipped ReLU + quantization + RLE.

One codec: :mod:`repro.compression.wire` run-length encodes quantized
levels straight into one contiguous ``uint8`` buffer — what actually
crosses a transport — and :class:`CompressionPipeline` wraps it with the
clip + quantize front half.  ``payload_bits`` of a packed buffer is the
exact §4.3 token-stream size Table 2 accounts for; ``wire_bits`` is the
measured size with header and padding.
"""

from .pipeline import CompressionPipeline, PackedTensor, sparsity
from .quantize import UniformQuantizer
from .wire import PackedStream, max_packed_nbytes, pack_levels, unpack

__all__ = [
    "UniformQuantizer",
    "PackedStream",
    "pack_levels",
    "unpack",
    "max_packed_nbytes",
    "PackedTensor",
    "CompressionPipeline",
    "sparsity",
]
