"""Tests for the packed byte-level wire format (repro.compression.wire).

The load-bearing invariant, asserted property-style below against the
tuple-stream oracle (``tests/rle_oracle.py``): the packed codec's
``payload_bits`` equals the oracle's ``encoded_bits`` exactly, and both
decode to the same levels, for every input — sparse, dense, empty,
all-zero, and runs split at the ``2**run_bits`` counter cap.  A golden test
pins the byte layout itself.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rle_oracle import rle_decode, rle_encode

from repro.compression import (
    CompressionPipeline,
    PackedStream,
    UniformQuantizer,
    max_packed_nbytes,
    pack_levels,
    unpack,
    wire,
)

RNG = np.random.default_rng(31)


def sparse_levels(n, density=0.05, bits=4, rng=RNG):
    levels = np.zeros(n, dtype=np.uint8)
    nz = rng.choice(n, size=max(1, int(n * density)), replace=False) if n else []
    if n:
        levels[nz] = rng.integers(1, 2**bits, size=len(nz))
    return levels


class TestRoundTrip:
    def test_sparse(self):
        levels = sparse_levels(10_000)
        packed = pack_levels(levels)
        assert np.array_equal(unpack(packed), levels)

    def test_dense(self):
        levels = RNG.integers(1, 16, size=5000).astype(np.uint8)
        assert np.array_equal(unpack(pack_levels(levels)), levels)

    def test_all_zero(self):
        levels = np.zeros(1000, dtype=np.uint8)
        packed = pack_levels(levels)
        assert packed.n_tokens == packed.n_zero_tokens == -(-1000 // 256)
        assert np.array_equal(unpack(packed), levels)

    def test_empty(self):
        packed = pack_levels(np.zeros(0, dtype=np.uint8))
        assert packed.n_tokens == 0 and packed.payload_bits == 0
        assert unpack(packed).size == 0

    def test_shape_preserved(self):
        levels = sparse_levels(2 * 3 * 8 * 8).reshape(2, 3, 8, 8)
        out = unpack(pack_levels(levels))
        assert out.shape == (2, 3, 8, 8)
        assert np.array_equal(out, levels)

    def test_wide_values_decode_uint16(self):
        levels = RNG.integers(0, 2**12, size=4000).astype(np.uint16)
        out = unpack(pack_levels(levels, value_bits=12, run_bits=8))
        assert out.dtype == np.uint16
        assert np.array_equal(out, levels)

    def test_narrow_values_decode_uint8(self):
        out = unpack(pack_levels(sparse_levels(512)))
        assert out.dtype == np.uint8

    def test_run_cap_split(self):
        # 1000 zeros with run_bits=4 → cap 16 → 63 counters, not one.
        levels = np.zeros(1000, dtype=np.uint8)
        packed = pack_levels(levels, run_bits=4)
        assert packed.n_zero_tokens == -(-1000 // 16)
        assert np.array_equal(unpack(packed), levels)

    def test_from_buffer_roundtrip(self):
        levels = sparse_levels(4096).reshape(4, 32, 32)
        packed = pack_levels(levels)
        reparsed = PackedStream.from_buffer(bytes(packed.buffer))
        assert reparsed.shape == packed.shape
        assert reparsed.payload_bits == packed.payload_bits
        assert np.array_equal(unpack(reparsed), levels)


class TestBitAccounting:
    """Packed payload bits == the oracle's ``encoded_bits`` exactly."""

    def assert_parity(self, levels, value_bits=4, run_bits=8):
        stream = rle_encode(levels, value_bits=value_bits, run_bits=run_bits)
        packed = pack_levels(levels, value_bits=value_bits, run_bits=run_bits)
        assert packed.payload_bits == stream.encoded_bits
        # The wire buffer is the payload plus header plus < 3 bytes of
        # per-section byte-alignment slack — the ISSUE's invariant.
        assert packed.wire_bits == packed.header_bits + packed.payload_bits + packed.padding_bits
        assert 0 <= packed.padding_bits < 24
        assert np.array_equal(unpack(packed), rle_decode(stream))
        assert np.array_equal(unpack(packed), np.asarray(levels).astype(np.uint16))

    def test_sparse(self):
        self.assert_parity(sparse_levels(20_000))

    def test_dense(self):
        self.assert_parity(RNG.integers(1, 16, size=3000).astype(np.uint8))

    def test_all_zero(self):
        self.assert_parity(np.zeros(5000, dtype=np.uint8))

    def test_empty(self):
        self.assert_parity(np.zeros(0, dtype=np.uint8))

    def test_run_exactly_at_cap(self):
        for n in (255, 256, 257, 512, 513):
            self.assert_parity(np.zeros(n, dtype=np.uint8))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 2000),
        density=st.floats(0.0, 1.0),
        value_bits=st.integers(1, 8),
        run_bits=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parity_property(self, n, density, value_bits, run_bits, seed):
        rng = np.random.default_rng(seed)
        levels = np.where(
            rng.random(n) < density,
            rng.integers(1, 2**value_bits, size=n, dtype=np.int64)
            if value_bits > 0
            else 0,
            0,
        )
        self.assert_parity(levels, value_bits=value_bits, run_bits=run_bits)

    def test_golden_bytes(self):
        """Wire format version 1, byte for byte: captured from
        ``pack_levels`` at the commit before the tuple codec left ``src/``.
        Any change to these bytes is a wire-format change and needs a new
        version number in the header."""
        levels = np.array(
            [[0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0],
             [0, 0, 15, 1, 9, 0, 3, 0, 0, 0, 0],
             [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7]], dtype=np.uint8)  # fmt: skip
        packed = pack_levels(levels, value_bits=4, run_bits=3)  # cap 8 splits both long runs
        assert packed.buffer.tobytes().hex() == (
            "ad010403020000000c000000000000000600000000000000"  # magic, version, widths, ndim, counts
            "030000000b000000"  # shape (3, 11)
            "b160" "5c0f40" "5f1937"  # flags, run counters, literal nibbles
        )
        assert np.array_equal(unpack(packed.buffer.tobytes()), levels)


def bit_matrix_path():
    """Force the generic bit-matrix packer at every width (the reference the
    byte-wide 4/8-bit paths must match byte for byte)."""
    return mock.patch.multiple(
        wire, _pack_bits=wire._pack_bits_matrix, _unpack_bits=wire._unpack_bits_matrix
    )


#: A level array as segments: a zero run (its length, edge lengths around the
#: 256 counter cap favoured) or a stretch of non-zero 4-bit literals.
SEGMENTS = st.lists(
    st.one_of(
        st.sampled_from([255, 256, 257, 513]) | st.integers(1, 600),
        st.lists(st.integers(1, 15), min_size=1, max_size=9),
    ),
    max_size=12,
)


def levels_from(segments):
    parts = [np.zeros(s, dtype=np.uint8) if isinstance(s, int) else np.array(s, dtype=np.uint8)
             for s in segments]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)


class TestByteWidePaths:
    """The 4-bit literal and 8-bit run-counter paths, selected by width, are
    byte-identical to the bit-matrix path and agree with the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(segments=SEGMENTS)
    @example(segments=[])                        # empty
    @example(segments=[513])                     # all zero, split at the cap
    @example(segments=[[3]])                     # one literal: odd count
    @example(segments=[[1, 2, 3], 255, [15]])    # odd literal count
    @example(segments=[256, [7, 7], 257])
    def test_matches_bit_matrix_and_oracle(self, segments):
        levels = levels_from(segments)
        fast = pack_levels(levels, value_bits=4, run_bits=8)
        with bit_matrix_path():
            generic = pack_levels(levels, value_bits=4, run_bits=8)
            generic_levels = unpack(generic)
        assert fast.buffer.tobytes() == generic.buffer.tobytes()
        stream = rle_encode(levels, value_bits=4, run_bits=8)
        assert fast.payload_bits == stream.encoded_bits
        decoded = unpack(fast)
        assert decoded.dtype == np.uint8
        assert np.array_equal(decoded, generic_levels)
        assert np.array_equal(decoded, rle_decode(stream))

    def test_unpack_widens_to_uint64(self):
        """A full-cap run stores counter 255; the caller's ``+ 1`` must give
        256, which a ``uint8`` result would wrap to 0."""
        for width in (4, 8):
            values = np.array([2**width - 1] * 3, dtype=np.int64)
            got = wire._unpack_bits(wire._pack_bits(values, width), 3, width)
            assert got.dtype == np.uint64
            assert np.array_equal(got + 1, values + 1)


class TestBatchStream:
    """One stream over a batch's stacked tiles decodes, row for row, to
    exactly what per-tile streams decode to."""

    def test_rows_equal_per_tile_decode(self):
        pipe = CompressionPipeline(bits=4)
        tiles = [np.maximum(RNG.normal(loc=-0.5, size=(1, 4, 6, 6)), 0).astype(np.float32)
                 for _ in range(5)]
        # Zero runs that cross tile boundaries, one of them past the 256 cap.
        tiles[1][0, 2:] = 0
        tiles[2][0, :3] = 0
        tiles[3][0] = 0
        batch = pipe.compress_packed(np.concatenate(tiles))
        rows = np.split(pipe.decompress(batch), len(tiles))
        per_tile = [pipe.compress_packed(t) for t in tiles]
        for row, packed in zip(rows, per_tile):
            assert row.tobytes() == pipe.decompress(packed).tobytes()
        assert batch.raw_bits == sum(p.raw_bits for p in per_tile)
        assert batch.packed.n_zero_tokens < sum(p.packed.n_zero_tokens for p in per_tile)
        assert batch.packed.nbytes <= sum(p.packed.nbytes for p in per_tile) - 4 * 40


class TestValidation:
    def test_rejects_bad_magic(self):
        packed = pack_levels(sparse_levels(100))
        buf = packed.buffer.copy()
        buf[0] = 0x00
        with pytest.raises(ValueError, match="magic"):
            PackedStream.from_buffer(buf)

    def test_rejects_truncated_buffer(self):
        packed = pack_levels(sparse_levels(100))
        with pytest.raises(ValueError):
            PackedStream.from_buffer(packed.buffer[:-1])

    def test_rejects_short_header(self):
        with pytest.raises(ValueError, match="too short"):
            PackedStream.from_buffer(np.zeros(4, dtype=np.uint8))

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(ValueError):
            pack_levels(np.array([16]), value_bits=4)
        with pytest.raises(ValueError):
            pack_levels(np.array([-1]))

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            pack_levels(np.zeros(4, dtype=np.uint8), value_bits=0)
        with pytest.raises(ValueError):
            pack_levels(np.zeros(4, dtype=np.uint8), value_bits=17)
        with pytest.raises(ValueError):
            pack_levels(np.zeros(4, dtype=np.uint8), run_bits=25)

    def test_corrupt_element_count_detected(self):
        packed = pack_levels(sparse_levels(256).reshape(16, 16))
        buf = packed.buffer.copy()
        # Lie about the shape: 16x16 header → 16x17.
        buf[28:32] = np.frombuffer(np.uint32(17).tobytes(), dtype=np.uint8)
        with pytest.raises(ValueError, match="elements"):
            unpack(PackedStream.from_buffer(buf))

    def test_max_packed_nbytes_is_an_upper_bound(self):
        for density in (0.0, 0.05, 0.5, 1.0):
            levels = np.where(RNG.random(4096) < density, 7, 0)
            packed = pack_levels(levels)
            assert packed.nbytes <= max_packed_nbytes(4096, 1)


class TestQuantizerDtype:
    """Satellite (f): quantize output dtype is pinned, not platform default."""

    def test_uint8_for_small_bits(self):
        for bits in (1, 4, 8):
            q = UniformQuantizer(bits=bits, max_value=6.0)
            assert q.level_dtype == np.uint8
            assert q.quantize(RNG.uniform(0, 6, size=64)).dtype == np.uint8

    def test_uint16_above_8_bits(self):
        q = UniformQuantizer(bits=12, max_value=6.0)
        assert q.level_dtype == np.uint16
        assert q.quantize(RNG.uniform(0, 6, size=64)).dtype == np.uint16


class TestPipelineIntegration:
    def test_decompress_accepts_raw_buffer(self):
        pipe = CompressionPipeline(bits=4)
        x = RNG.standard_normal((1, 3, 8, 8)).astype(np.float32)
        pt = pipe.compress_packed(x)
        assert np.array_equal(pipe.decompress(bytes(pt.packed.buffer)), pipe.decompress(pt))

    def test_wire_bits_measured(self):
        pipe = CompressionPipeline(bits=4)
        x = RNG.standard_normal((1, 3, 16, 16)).astype(np.float32)
        pt = pipe.compress_packed(x)
        assert pt.wire_bits == 8 * pt.packed.nbytes
        assert pipe.measured_wire_bits(x) == pt.wire_bits
        assert pt.wire_ratio >= pt.ratio  # header+padding never shrink it
