"""Packed byte-level wire format for RLE streams (the *real* §4.3 bytes).

The §4.3 wire format is a token stream over flattened level indices — a
zero-run token (1 flag bit + ``run_bits`` counter, runs of 1 .. 2**run_bits
zeros, longer runs split) or a literal token (1 flag bit + ``value_bits``
non-zero level).  This module serializes that stream into **one contiguous
``uint8`` buffer**, so what crosses the wire is what Table 2 accounts for.
It is the only codec in ``src/``; ``tests/rle_oracle.py`` keeps a
tuple-based reference implementation that the tests compare it against.

Byte layout (little-endian)::

    header   0      magic 0xAD
             1      version (1)
             2      value_bits    (1..16)
             3      run_bits      (1..24)
             4      ndim          (0..255)
             5..7   reserved (zero)
             8..15  n_tokens      uint64  (zero-run tokens + literal values)
            16..23  n_zero_tokens uint64
            24..    shape, ndim * uint32
    flags    1 bit per token, MSB-first: 1 = zero-run, 0 = literal
    runs     n_zero_tokens counters, ``run_bits`` wide, storing (length - 1)
    literals n_literal values, ``value_bits`` wide (4-bit → nibble-packed)

Each section is padded to a byte boundary, so::

    payload_bits == exact §4.3 token-stream bits    (by construction)
    8 * nbytes   == header_bits + payload_bits + padding_bits

Encode and decode are fully vectorized — token widths, bit scatter/gather,
and output fill are NumPy array ops; there is no per-run Python loop.  The
section packer is chosen from the field width alone: 8-bit fields are the
bytes themselves, 4-bit fields pack two to a byte (``hi << 4 | lo``), and
every other width goes through a ``(n, width)`` bit matrix — the same
bytes either way.

A stream may hold any number of tiles: the runtime encodes each batch's
stacked ``(k·N, C, h, w)`` output as one stream (the header records that
shape), so a batch pays one header and zero runs continue across tile
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PackedStream",
    "pack_levels",
    "unpack",
    "max_packed_nbytes",
]

_MAGIC = 0xAD
_VERSION = 1
_FIXED_HEADER = 24  # bytes before the shape dims
_MAX_RUN_BITS = 24
_MAX_VALUE_BITS = 16


def _header_nbytes(ndim: int) -> int:
    return _FIXED_HEADER + 4 * ndim


@dataclass(frozen=True)
class PackedStream:
    """A serialized RLE token stream: one contiguous ``uint8`` buffer.

    ``buffer`` is self-describing (the header carries shape/value_bits/
    run_bits), so :meth:`from_buffer` reconstructs everything from bytes
    alone — which is exactly what crosses a worker pipe or a socket.
    """

    buffer: np.ndarray  # 1-D uint8, header + sections
    shape: tuple[int, ...]
    value_bits: int
    run_bits: int
    n_tokens: int
    n_zero_tokens: int

    @property
    def n_literal_tokens(self) -> int:
        return self.n_tokens - self.n_zero_tokens

    @property
    def nbytes(self) -> int:
        return int(self.buffer.nbytes)

    @property
    def wire_bits(self) -> int:
        """Actual size on the wire (what a transport really ships)."""
        return 8 * self.nbytes

    @property
    def payload_bits(self) -> int:
        """Token-stream bits: one flag per token plus its counter or literal."""
        return (
            self.n_tokens
            + self.n_zero_tokens * self.run_bits
            + self.n_literal_tokens * self.value_bits
        )

    @property
    def header_bits(self) -> int:
        return 8 * _header_nbytes(len(self.shape))

    @property
    def padding_bits(self) -> int:
        """Per-section byte-alignment slack (< 24 bits)."""
        return self.wire_bits - self.header_bits - self.payload_bits

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @classmethod
    def from_buffer(cls, buffer: bytes | bytearray | memoryview | np.ndarray) -> "PackedStream":
        """Parse a packed buffer's header (sections stay as raw bytes).

        Bytes-like input is viewed in place (``np.frombuffer``), not copied.
        """
        if not isinstance(buffer, np.ndarray):
            buffer = np.frombuffer(buffer, dtype=np.uint8)
        buf = np.ascontiguousarray(buffer, dtype=np.uint8).reshape(-1)
        if buf.size < _FIXED_HEADER:
            raise ValueError(f"buffer too short for a packed header ({buf.size} bytes)")
        if buf[0] != _MAGIC or buf[1] != _VERSION:
            raise ValueError(f"bad magic/version: {int(buf[0]):#x}/{int(buf[1])}")
        value_bits, run_bits, ndim = int(buf[2]), int(buf[3]), int(buf[4])
        if not 1 <= value_bits <= _MAX_VALUE_BITS or not 1 <= run_bits <= _MAX_RUN_BITS:
            raise ValueError(f"corrupt header: value_bits={value_bits}, run_bits={run_bits}")
        header = _header_nbytes(ndim)
        if buf.size < header:
            raise ValueError("buffer too short for its shape header")
        n_tokens = int(buf[8:16].view(np.dtype("<u8"))[0])
        n_zero = int(buf[16:24].view(np.dtype("<u8"))[0])
        if n_zero > n_tokens:
            raise ValueError("corrupt header: more zero-run tokens than tokens")
        shape = tuple(int(d) for d in buf[_FIXED_HEADER:header].view(np.dtype("<u4")))
        packed = cls(buf, shape, value_bits, run_bits, n_tokens, n_zero)
        expected = header + _sections_nbytes(n_tokens, n_zero, value_bits, run_bits)
        if buf.size != expected:
            raise ValueError(f"corrupt buffer: {buf.size} bytes, header promises {expected}")
        return packed


def _sections_nbytes(n_tokens: int, n_zero: int, value_bits: int, run_bits: int) -> int:
    n_lit = n_tokens - n_zero
    return (n_tokens + 7) // 8 + (n_zero * run_bits + 7) // 8 + (n_lit * value_bits + 7) // 8


def max_packed_nbytes(num_elements: int, ndim: int, value_bits: int = 4, run_bits: int = 8) -> int:
    """Worst-case packed size for any level array of ``num_elements``.

    At most one token per element, each token at most
    ``1 + max(value_bits, run_bits)`` bits wide, plus header and the three
    section paddings — a safe bound for sizing a result pipe.
    """
    widest = max(value_bits, run_bits)
    return _header_nbytes(ndim) + (num_elements * (1 + widest) + 7) // 8 + 3


def _pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Pack each value into ``width`` bits, MSB-first, byte-padded.

    Widths 8 and 4 — the runtime's run counters and literals — are whole
    bytes and nibbles, packed directly; every other width goes through
    :func:`_pack_bits_matrix`.  All three produce the same bytes.
    """
    if width == 8:
        return values.astype(np.uint8)
    if width == 4:
        v = values.astype(np.uint8)
        if len(v) % 2:
            v = np.append(v, np.uint8(0))  # the bit-matrix path zero-pads the last byte too
        return (v[0::2] << 4) | v[1::2]
    return _pack_bits_matrix(values, width)


def _pack_bits_matrix(values: np.ndarray, width: int) -> np.ndarray:
    """Any width: expand to a ``(n, width)`` bit matrix, then ``np.packbits``."""
    if len(values) == 0:
        return np.zeros(0, dtype=np.uint8)
    v = values.astype(np.uint64, copy=False)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((v[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1))


def _unpack_bits(section: np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits`: ``count`` values of ``width`` bits.

    Always ``uint64``, whatever the width: callers add to the values (run
    counters store ``length - 1``), and a narrower dtype would wrap.
    """
    if width == 8:
        return section[:count].astype(np.uint64)
    if width == 4:
        nibbles = np.empty((len(section), 2), dtype=np.uint8)
        np.right_shift(section, 4, out=nibbles[:, 0])
        np.bitwise_and(section, 0x0F, out=nibbles[:, 1])
        return nibbles.reshape(-1)[:count].astype(np.uint64)
    return _unpack_bits_matrix(section, count, width)


def _unpack_bits_matrix(section: np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits_matrix`: ``np.unpackbits``, then a weighted sum."""
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    bits = np.unpackbits(section)[: count * width].reshape(count, width)
    weights = np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64)
    return bits.astype(np.uint64) @ weights


def _validate_params(value_bits: int, run_bits: int) -> None:
    if value_bits < 1 or run_bits < 1:
        raise ValueError("value_bits and run_bits must be >= 1")
    if value_bits > _MAX_VALUE_BITS:
        raise ValueError(f"value_bits > {_MAX_VALUE_BITS} unsupported (got {value_bits})")
    if run_bits > _MAX_RUN_BITS:
        raise ValueError(f"run_bits > {_MAX_RUN_BITS} unsupported (got {run_bits})")


def _assemble(
    shape: tuple[int, ...],
    value_bits: int,
    run_bits: int,
    flags: np.ndarray,       # bool, one per token, True = zero-run
    run_lengths: np.ndarray, # int, one per zero-run token (1..2**run_bits)
    literals: np.ndarray,    # int, one per literal token
) -> PackedStream:
    ndim = len(shape)
    if ndim > 255:
        raise ValueError("more than 255 dimensions")
    if any(d < 0 or d >= 2**32 for d in shape):
        raise ValueError("shape dims must fit uint32")
    n_tokens, n_zero = len(flags), len(run_lengths)
    header = np.zeros(_header_nbytes(ndim), dtype=np.uint8)
    header[0], header[1] = _MAGIC, _VERSION
    header[2], header[3], header[4] = value_bits, run_bits, ndim
    header[8:16] = np.frombuffer(np.uint64(n_tokens).tobytes(), dtype=np.uint8)
    header[16:24] = np.frombuffer(np.uint64(n_zero).tobytes(), dtype=np.uint8)
    if ndim:
        header[_FIXED_HEADER:] = np.frombuffer(
            np.asarray(shape, dtype="<u4").tobytes(), dtype=np.uint8
        )
    buf = np.concatenate(
        [
            header,
            np.packbits(flags) if n_tokens else np.zeros(0, dtype=np.uint8),
            _pack_bits(run_lengths - 1, run_bits),
            _pack_bits(literals, value_bits),
        ]
    )
    return PackedStream(buf, shape, value_bits, run_bits, n_tokens, n_zero)


def pack_levels(levels: np.ndarray, value_bits: int = 4, run_bits: int = 8) -> PackedStream:
    """Encode an integer level array straight into the packed wire format.

    Zero runs longer than the ``2**run_bits`` counter cap are split into
    several tokens; every non-zero level is one literal token.
    """
    _validate_params(value_bits, run_bits)
    levels = np.asarray(levels)
    if levels.size and levels.min() < 0:
        raise ValueError("RLE input must be non-negative level indices")
    if levels.size and levels.max() >= 2**value_bits:
        raise ValueError(f"level {int(levels.max())} does not fit in {value_bits} bits")
    flat = levels.reshape(-1)
    shape = tuple(int(d) for d in levels.shape)
    if not flat.size:
        return _assemble(shape, value_bits, run_bits,
                         np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64),
                         np.zeros(0, dtype=np.int64))
    zero = flat == 0
    literal_pos = np.flatnonzero(~zero)
    literals = flat[literal_pos].astype(np.int64, copy=False)
    # Zero segments via state-change indices, then split at the counter cap.
    change = np.flatnonzero(np.diff(zero)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [flat.size]))
    zmask = zero[starts]
    zstarts = starts[zmask]
    zlens = (ends - starts)[zmask]
    max_run = 1 << run_bits
    n_chunks = -(-zlens // max_run)  # tokens per zero segment
    total_z = int(n_chunks.sum())
    run_lengths = np.full(total_z, max_run, dtype=np.int64)
    if total_z:
        first = np.cumsum(n_chunks) - n_chunks       # first chunk index per segment
        run_lengths[first + n_chunks - 1] = zlens - (n_chunks - 1) * max_run
        chunk_idx = np.arange(total_z, dtype=np.int64) - np.repeat(first, n_chunks)
        chunk_starts = np.repeat(zstarts, n_chunks) + chunk_idx * max_run
    else:
        chunk_starts = np.zeros(0, dtype=np.int64)
    # Merge zero-run tokens and literal tokens into position order.
    order = np.argsort(
        np.concatenate((chunk_starts, literal_pos)), kind="stable"
    )
    flags = np.concatenate(
        (np.ones(total_z, dtype=bool), np.zeros(len(literal_pos), dtype=bool))
    )[order]
    return _assemble(shape, value_bits, run_bits, flags, run_lengths, literals)


def unpack(packed: PackedStream | bytes | bytearray | memoryview | np.ndarray) -> np.ndarray:
    """Decode a packed buffer (or :class:`PackedStream`) back to levels.

    Returns ``uint8`` for ``value_bits <= 8`` (nibble literals never widen),
    ``uint16`` otherwise.  Fully vectorized: section gathers + one
    scatter into a preallocated output.
    """
    if not isinstance(packed, PackedStream):
        packed = PackedStream.from_buffer(packed)
    buf = packed.buffer
    header = _header_nbytes(len(packed.shape))
    n_tokens, n_zero = packed.n_tokens, packed.n_zero_tokens
    n_lit = packed.n_literal_tokens
    flags_nbytes = (n_tokens + 7) // 8
    runs_nbytes = (n_zero * packed.run_bits + 7) // 8
    pos = header
    flags = np.unpackbits(buf[pos : pos + flags_nbytes])[:n_tokens].astype(bool)
    pos += flags_nbytes
    run_lengths = _unpack_bits(buf[pos : pos + runs_nbytes], n_zero, packed.run_bits) + 1
    pos += runs_nbytes
    literals = _unpack_bits(buf[pos:], n_lit, packed.value_bits)
    if int(flags.sum()) != n_zero:
        raise ValueError("corrupt stream: flag section disagrees with header counts")
    out_dtype = np.uint8 if packed.value_bits <= 8 else np.uint16
    lengths = np.ones(n_tokens, dtype=np.int64)
    lengths[flags] = run_lengths.astype(np.int64)
    total = int(lengths.sum())
    if total != packed.num_elements:
        raise ValueError(
            f"corrupt stream: {total} elements for shape {packed.shape}"
        )
    out = np.zeros(total, dtype=out_dtype)
    offsets = np.cumsum(lengths) - lengths
    out[offsets[~flags]] = literals.astype(out_dtype)
    return out.reshape(packed.shape)
