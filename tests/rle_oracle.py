"""Tuple-stream RLE: the bit-accounting oracle for ``repro.compression.wire``.

Test-only reference implementation of §4.3 (Figure 6), kept off the import
path of every worker: it was the production codec until the packed byte
format replaced it, and the tests pin ``pack_levels(x).payload_bits ==
rle_encode(x).encoded_bits`` and decode equality against it.

The wire format is a token stream over flattened level indices:

- **zero-run token**: 1 flag bit + ``run_bits`` counter encoding a run of
  1 .. 2**run_bits zeros (longer runs are split);
- **literal token**: 1 flag bit + ``value_bits`` level index (non-zero).

Encoding is lossless over level indices and vectorized end to end: run
boundaries come from ``np.diff`` on the zero mask, counter-cap splitting
and literal slicing are array ops, and the remaining Python work is a
single list interleave over precomputed entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RLEStream", "rle_encode", "rle_decode", "rle_encoded_bits"]


@dataclass(frozen=True)
class RLEStream:
    """An encoded activation map.

    ``runs`` is a list of ``(is_zero_run, payload)`` where payload is a run
    length (int) for zero runs or an ndarray of consecutive non-zero level
    indices for literal stretches.
    """

    shape: tuple[int, ...]
    runs: tuple[tuple[bool, object], ...]
    value_bits: int
    run_bits: int

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def encoded_bits(self) -> int:
        """Exact size of the token stream on the wire."""
        bits = 0
        max_run = 2**self.run_bits
        for is_zero, payload in self.runs:
            if is_zero:
                # rle_encode splits runs at 2**run_bits, so this ceil is 1
                # per entry; it stays exact for hand-built streams too.
                n_tokens = -(-int(payload) // max_run)
                bits += n_tokens * (1 + self.run_bits)
            else:
                bits += len(payload) * (1 + self.value_bits)
        return bits


def rle_encode(levels: np.ndarray, value_bits: int = 4, run_bits: int = 8) -> RLEStream:
    """Encode an integer level array (any shape) into an :class:`RLEStream`."""
    if value_bits < 1 or run_bits < 1:
        raise ValueError("value_bits and run_bits must be >= 1")
    if value_bits > 16:
        # Literal stretches are stored as uint16; more bits would truncate.
        raise ValueError(f"value_bits > 16 unsupported (got {value_bits})")
    levels = np.asarray(levels)
    if levels.size and levels.min() < 0:
        raise ValueError("RLE input must be non-negative level indices")
    if levels.size and levels.max() >= 2**value_bits:
        raise ValueError(f"level {int(levels.max())} does not fit in {value_bits} bits")
    flat = levels.reshape(-1)
    max_run = 2**run_bits
    runs: list[tuple[bool, object]] = []
    if flat.size:
        zero = flat == 0
        vals = flat.astype(np.uint16, copy=False)  # one cast; entries are views
        # Indices where the zero/non-zero state flips.
        change = np.flatnonzero(np.diff(zero)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [flat.size]))
        zmask = zero[starts]
        # Zero segments, split at the counter capacity: one token encodes at
        # most 2**run_bits zeros, so a longer run becomes several chunks.
        zstarts = starts[zmask]
        zlens = (ends - starts)[zmask]
        n_chunks = -(-zlens // max_run)
        total_z = int(n_chunks.sum())
        chunk_lens = np.full(total_z, max_run, dtype=np.int64)
        if total_z:
            first = np.cumsum(n_chunks) - n_chunks
            chunk_lens[first + n_chunks - 1] = zlens - (n_chunks - 1) * max_run
            chunk_idx = np.arange(total_z, dtype=np.int64) - np.repeat(first, n_chunks)
            chunk_starts = np.repeat(zstarts, n_chunks) + chunk_idx * max_run
        else:
            chunk_starts = np.zeros(0, dtype=np.int64)
        zero_entries = [(True, n) for n in chunk_lens.tolist()]
        lit_entries = [
            (False, vals[s:e])
            for s, e in zip(starts[~zmask].tolist(), ends[~zmask].tolist())
        ]
        # Interleave chunks and literal stretches back into position order.
        order = np.argsort(
            np.concatenate((chunk_starts, starts[~zmask])), kind="stable"
        )
        entries = zero_entries + lit_entries
        runs = [entries[i] for i in order.tolist()]
    return RLEStream(tuple(levels.shape), tuple(runs), value_bits, run_bits)


def rle_decode(stream: RLEStream) -> np.ndarray:
    """Decode back to the original level array (uint16).

    Fills one preallocated output: zero runs only advance the cursor (the
    buffer starts zeroed) and literal stretches are written in place — no
    per-run chunk materialization or concatenation.
    """
    total = stream.num_elements
    flat = np.zeros(total, dtype=np.uint16)
    pos = 0
    for is_zero, payload in stream.runs:
        if is_zero:
            pos += int(payload)
        else:
            arr = np.asarray(payload, dtype=np.uint16).reshape(-1)
            end = pos + arr.size
            if end > total:
                break  # overflow: fall through to the size check below
            flat[pos:end] = arr
            pos = end
    if pos != total:
        decoded = sum(
            int(p) if z else np.asarray(p).size for z, p in stream.runs
        )
        raise ValueError(f"corrupt stream: {decoded} elements for shape {stream.shape}")
    return flat.reshape(stream.shape)


def rle_encoded_bits(levels: np.ndarray, value_bits: int = 4, run_bits: int = 8) -> int:
    """Size in bits of the RLE encoding without materializing the stream."""
    return rle_encode(levels, value_bits, run_bits).encoded_bits
