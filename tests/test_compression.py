"""Tests for the §4 compression pipeline: quantizer, the tuple-stream RLE
oracle (``tests/rle_oracle.py``) the packed codec is checked against, and
the pipeline end-to-end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rle_oracle import rle_decode, rle_encode, rle_encoded_bits

from repro.compression import CompressionPipeline, UniformQuantizer, sparsity

RNG = np.random.default_rng(23)


class TestUniformQuantizer:
    def test_levels_range(self):
        q = UniformQuantizer(bits=4, max_value=1.5)
        levels = q.quantize(RNG.uniform(-1, 3, size=1000))
        assert levels.min() >= 0 and levels.max() <= 15

    def test_zero_maps_to_zero(self):
        q = UniformQuantizer(bits=4, max_value=2.0)
        assert q.quantize(np.zeros(5)).sum() == 0

    def test_roundtrip_error_bounded(self):
        q = UniformQuantizer(bits=4, max_value=2.0)
        x = RNG.uniform(0, 2.0, size=1000)
        err = np.abs(q.roundtrip(x) - x)
        assert err.max() <= q.step / 2 + 1e-6

    def test_more_bits_less_error(self):
        x = RNG.uniform(0, 1.0, size=1000)
        e4 = np.abs(UniformQuantizer(4, 1.0).roundtrip(x) - x).mean()
        e8 = np.abs(UniformQuantizer(8, 1.0).roundtrip(x) - x).mean()
        assert e8 < e4 / 8

    def test_dequantize_validates_range(self):
        q = UniformQuantizer(bits=2, max_value=1.0)
        with pytest.raises(ValueError):
            q.dequantize(np.array([4]))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            UniformQuantizer(bits=0)
        with pytest.raises(ValueError):
            UniformQuantizer(bits=4, max_value=0.0)

    @settings(max_examples=50, deadline=None)
    @given(bits=st.integers(1, 8), x=st.floats(0, 10))
    def test_quantize_monotone_property(self, bits, x):
        q = UniformQuantizer(bits=bits, max_value=10.0)
        assert q.quantize(np.array([x]))[0] <= q.quantize(np.array([x + 0.5]))[0]


class TestRLE:
    def test_roundtrip_simple(self):
        levels = np.array([0, 0, 0, 5, 0, 2, 2, 0, 0, 0, 0, 1])
        np.testing.assert_array_equal(rle_decode(rle_encode(levels)), levels)

    def test_roundtrip_all_zero(self):
        levels = np.zeros(100, dtype=int)
        np.testing.assert_array_equal(rle_decode(rle_encode(levels)), levels)

    def test_roundtrip_no_zero(self):
        levels = RNG.integers(1, 16, size=64)
        np.testing.assert_array_equal(rle_decode(rle_encode(levels)), levels)

    def test_roundtrip_empty(self):
        levels = np.zeros(0, dtype=int)
        np.testing.assert_array_equal(rle_decode(rle_encode(levels)), levels)

    def test_shape_preserved(self):
        levels = RNG.integers(0, 16, size=(2, 3, 4, 4))
        out = rle_decode(rle_encode(levels))
        assert out.shape == (2, 3, 4, 4)

    def test_sparse_much_smaller_than_dense(self):
        sparse = np.zeros(10_000, dtype=int)
        sparse[RNG.choice(10_000, 100, replace=False)] = 7
        dense = RNG.integers(1, 16, size=10_000)
        assert rle_encoded_bits(sparse) < rle_encoded_bits(dense) / 20

    def test_all_zero_bits_tiny(self):
        # 10000 zeros with 8-bit run counters: ceil(10000/256) tokens * 9 bits.
        bits = rle_encoded_bits(np.zeros(10_000, dtype=int), run_bits=8)
        assert bits == -(-10_000 // 256) * 9

    def test_dense_overhead_is_flag_bit(self):
        dense = RNG.integers(1, 16, size=1000)
        assert rle_encoded_bits(dense, value_bits=4) == 1000 * 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rle_encode(np.array([-1, 0]))

    def test_rejects_overflow_levels(self):
        with pytest.raises(ValueError):
            rle_encode(np.array([16]), value_bits=4)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            rle_encode(np.array([1]), value_bits=0)

    @settings(max_examples=60, deadline=None)
    @given(
        levels=hnp.arrays(
            dtype=np.int64,
            shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=30),
            elements=st.integers(0, 15),
        ),
        run_bits=st.integers(1, 10),
    )
    def test_roundtrip_property(self, levels, run_bits):
        """RLE encode/decode is the identity on any valid level array."""
        stream = rle_encode(levels, value_bits=4, run_bits=run_bits)
        np.testing.assert_array_equal(rle_decode(stream), levels)
        assert stream.encoded_bits >= 0

    def test_long_runs_split_at_counter_capacity(self):
        """Regression: runs longer than 2**run_bits must be split into
        several tokens at *encode* time — one counter cannot hold them."""
        levels = np.concatenate([np.zeros(1000, dtype=int), [3], np.zeros(513, dtype=int)])
        stream = rle_encode(levels, value_bits=4, run_bits=8)
        assert all(int(p) <= 256 for is_zero, p in stream.runs if is_zero)
        np.testing.assert_array_equal(rle_decode(stream), levels)
        # Exact wire size: ceil(1000/256)=4 + ceil(513/256)=3 run tokens
        # of (1 + 8) bits each, plus one literal of (1 + 4) bits.
        assert stream.encoded_bits == (4 + 3) * 9 + 1 * 5

    @settings(max_examples=40, deadline=None)
    @given(
        pieces=st.lists(
            st.tuples(st.integers(0, 700), st.integers(1, 15)),
            min_size=0,
            max_size=8,
        ),
        run_bits=st.integers(1, 6),
    )
    def test_giant_run_roundtrip_property(self, pieces, run_bits):
        """Round-trip with zero runs far beyond the counter capacity, and
        the split invariant: every emitted run token fits its counter."""
        chunks = []
        for run_len, literal in pieces:
            chunks.append(np.zeros(run_len, dtype=int))
            chunks.append(np.array([literal]))
        levels = np.concatenate(chunks) if chunks else np.zeros(0, dtype=int)
        stream = rle_encode(levels, value_bits=4, run_bits=run_bits)
        max_run = 2**run_bits
        assert all(1 <= int(p) <= max_run for is_zero, p in stream.runs if is_zero)
        np.testing.assert_array_equal(rle_decode(stream), levels)
        # encoded_bits agrees with first-principles token accounting.
        n_run_tokens = sum(-(-run_len // max_run) for run_len, _ in pieces if run_len)
        n_literals = len(pieces)
        assert stream.encoded_bits == n_run_tokens * (1 + run_bits) + n_literals * (1 + 4)

    def test_rejects_value_bits_over_16(self):
        """Literal payloads are uint16; wider levels would silently truncate."""
        with pytest.raises(ValueError):
            rle_encode(np.array([1, 0, 2]), value_bits=17)
        # 16 bits is the documented ceiling and still round-trips.
        levels = np.array([0, 65535, 0, 0], dtype=np.int64)
        np.testing.assert_array_equal(
            rle_decode(rle_encode(levels, value_bits=16)), levels
        )


class TestCompressionPipeline:
    def test_figure6_flow(self):
        """Figure 6: ReLU_(0.2,2) + quantize + RLE on a 4x4 ofmap."""
        pipe = CompressionPipeline(lower=0.2, upper=2.0, bits=4)
        ofmap = RNG.uniform(-1, 3, size=(4, 4)).astype(np.float32)
        ct = pipe.compress_packed(ofmap)
        out = pipe.decompress(ct)
        assert out.shape == (4, 4)
        assert out.min() >= 0 and out.max() <= 1.8 + 1e-6

    def test_wire_encoding_lossless(self):
        """decompress(compress_packed(x)) must equal clip+quantize(x) exactly."""
        pipe = CompressionPipeline(lower=0.1, upper=2.5, bits=4)
        x = RNG.normal(size=(3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(pipe.apply(x), pipe.reference_values(x))

    def test_matches_training_graph_quantizer(self):
        """The wire pipeline must produce the same values as the STE modules
        the model was retrained with (nn.ClippedReLU + nn.QuantizeSTE)."""
        import repro.nn as nn
        from repro.nn import Tensor

        lower, upper, bits = 0.2, 2.0, 4
        pipe = CompressionPipeline(lower, upper, bits)
        clip = nn.ClippedReLU(lower, upper)
        quant = nn.QuantizeSTE(bits=bits, max_value=upper - lower)
        x = RNG.normal(scale=2.0, size=(2, 4, 6, 6)).astype(np.float32)
        graph_values = quant(clip(Tensor(x))).data
        np.testing.assert_allclose(pipe.apply(x), graph_values, atol=1e-6)

    def test_raising_lower_bound_increases_sparsity_and_compression(self):
        x = RNG.uniform(0, 2, size=(50, 50)).astype(np.float32)
        loose = CompressionPipeline(lower=0.0, upper=2.0).compress_packed(x)
        tight = CompressionPipeline(lower=1.0, upper=2.0).compress_packed(x)
        assert tight.compressed_bits < loose.compressed_bits

    def test_ratio_accounting(self):
        pipe = CompressionPipeline(lower=0.0, upper=1.0)
        x = np.zeros((10, 10), dtype=np.float32)
        ct = pipe.compress_packed(x)
        assert ct.raw_bits == 100 * 32
        assert ct.ratio == ct.compressed_bits / ct.raw_bits
        assert ct.ratio < 0.01  # all-zero map compresses ~300x

    def test_paper_table2_regime(self):
        """Table 2: with realistic post-ReLU sparsity (~90%), the pipeline
        reaches the paper's 0.01-0.06x size range."""
        x = np.maximum(RNG.normal(loc=-1.2, scale=1.0, size=(64, 24, 24)), 0).astype(np.float32)
        assert sparsity(x) > 0.8
        pipe = CompressionPipeline(lower=0.2, upper=2.0, bits=4)
        ct = pipe.compress_packed(x)
        assert ct.ratio < 0.07

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            CompressionPipeline(lower=2.0, upper=1.0)

    def test_quantized_dense_middle_point(self):
        """4-bit dense = 1/8 of raw; RLE gains more on sparse maps."""
        pipe = CompressionPipeline(lower=0.3, upper=2.0, bits=4)
        x = np.maximum(RNG.normal(loc=-1.0, size=(32, 16, 16)), 0).astype(np.float32)
        ct = pipe.compress_packed(x)
        assert ct.quantized_dense_bits == x.size * 4
        assert ct.quantized_dense_bits == ct.raw_bits // 8
        assert ct.rle_gain > 1.0  # the sparse map compresses past 4-bit dense

    def test_sparsity_helper(self):
        assert sparsity(np.array([0.0, 1.0, 0.0, 0.0])) == 0.75
        assert sparsity(np.zeros(0)) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        lower=st.floats(0.0, 0.5),
        width=st.floats(0.5, 3.0),
        bits=st.integers(2, 8),
    )
    def test_pipeline_idempotent_property(self, lower, width, bits):
        """Compressing already clip+quantized data is the identity."""
        pipe = CompressionPipeline(lower=lower, upper=lower + width, bits=bits)
        x = RNG.normal(size=(6, 6)).astype(np.float32)
        once = pipe.apply(x)
        np.testing.assert_allclose(pipe.apply(once + lower), once, atol=1e-5)
