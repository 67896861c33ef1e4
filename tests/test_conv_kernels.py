"""The K-major im2col conv and the strided-view max-pool against the
formulations they replaced (``tests/conv_oracle.py``), plus the layout
invariant the batched/FDSP bit contracts rest on (DESIGN.md §5i).

Conv outputs are compared with a tolerance: the oracle feeds BLAS a
row-major operand and the shipped kernel a transposed view, and OpenBLAS
may pick a different small-matrix kernel for the two (1-ulp differences at
some shapes).  What *is* bit-pinned is checked bitwise: an output pixel
does not depend on the batch around it, on its column's offset within a
GEMM chunk, or on the memory layout of the input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.nn import Tensor
from repro.nn.functional import _GEMM_CHUNK_ROWS, _conv2d_raw, _max_pool2d_raw

from conv_oracle import conv2d_window_gather, max_pool2d_reshape
from gradcheck import check_grad

RNG = np.random.default_rng(16)
TOL = {np.float32: dict(rtol=1e-5, atol=1e-5), np.float64: dict(rtol=1e-12, atol=1e-12)}


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _assert_matches_oracle(x, w, stride, pad):
    out = _conv2d_raw(x, w, stride, pad)
    ref = conv2d_window_gather(x, w, stride, pad)
    assert out.dtype == x.dtype and out.shape == ref.shape
    assert out.flags.c_contiguous
    np.testing.assert_allclose(out, ref, **TOL[x.dtype.type])
    return out


class TestConvMatchesOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 8, 16])
    @pytest.mark.parametrize("kernel", [(3, 3), (5, 5)])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    def test_geometry_grid(self, stride, pad, kernel, n, dtype):
        x = RNG.normal(size=(n, 3, 13, 11)).astype(dtype)
        w = RNG.normal(size=(4, 3, *kernel)).astype(dtype)
        _assert_matches_oracle(x, w, stride, (pad, pad))

    @pytest.mark.parametrize(
        "shape,m",
        [((4, 3, 8, 8), 256), ((8, 3, 8, 8), 512), ((1, 3, 16, 16), 256), ((3, 3, 10, 10), 300), ((1, 3, 5, 5), 25)],
    )
    def test_m_multiple_and_non_multiple_of_chunk(self, shape, m):
        """No tail chunk (M = 256, 512), full chunks plus a tail (300), tail only (25)."""
        assert shape[0] * shape[2] * shape[3] == m and _GEMM_CHUNK_ROWS == 256
        x = RNG.normal(size=shape).astype(np.float32)
        w = RNG.normal(size=(6, 3, 3, 3)).astype(np.float32)
        _assert_matches_oracle(x, w, (1, 1), (1, 1))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 3), (2, 3)])
    def test_conv1d_route_1x7(self, stride, padding):
        x = RNG.normal(size=(8, 5, 40)).astype(np.float32)
        w = RNG.normal(size=(6, 5, 7)).astype(np.float32)
        out = F.conv1d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        ref = conv2d_window_gather(x.reshape(8, 5, 1, 40), w.reshape(6, 5, 1, 7), (1, stride), (0, padding))
        np.testing.assert_allclose(out, ref[:, :, 0, :], **TOL[np.float32])

    def test_row_slice_of_a_larger_stack(self):
        """What ``WorkerEndpoint.read`` hands the worker: contiguous rows of
        the image's tile-major stack, as a view that owns no data."""
        stack = RNG.normal(size=(16, 1, 3, 24, 24)).astype(np.float32)
        block = stack[4:12].reshape(8, 3, 24, 24)
        assert block.base is not None
        w = RNG.normal(size=(12, 3, 3, 3)).astype(np.float32)
        out = _assert_matches_oracle(block, w, (1, 1), (1, 1))
        np.testing.assert_array_equal(_bits(out), _bits(_conv2d_raw(block.copy(), w, (1, 1), (1, 1))))

    @pytest.mark.parametrize("pad", [0, 1])
    def test_strided_input_view_is_bit_equal_to_its_copy(self, pad):
        big = RNG.normal(size=(16, 6, 14, 16)).astype(np.float32)
        view = big[::2, 1:5, 1:-1, 2:-2]
        assert not view.flags.c_contiguous
        w = RNG.normal(size=(5, 4, 3, 3)).astype(np.float32)
        wview = np.asfortranarray(w)
        out = _assert_matches_oracle(view, wview, (1, 1), (pad, pad))
        np.testing.assert_array_equal(_bits(out), _bits(_conv2d_raw(view.copy(), w, (1, 1), (pad, pad))))


@st.composite
def _pixel_case(draw):
    c = draw(st.integers(1, 4))
    o = draw(st.integers(1, 5))
    k = draw(st.sampled_from([1, 3]))
    h = draw(st.integers(k, 12))
    w = draw(st.integers(k, 12))
    stride = draw(st.sampled_from([(1, 1), (2, 2), (2, 1)]))
    pad = draw(st.integers(0, 1))
    n = draw(st.integers(1, 24))
    pos = draw(st.integers(0, n - 1))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**16))
    return c, o, k, h, w, stride, pad, n, pos, dtype, seed


class TestPixelIsAFunctionOfItsOwnColumn:
    @settings(max_examples=60, deadline=None)
    @given(case=_pixel_case())
    def test_bits_independent_of_batch_size_and_chunk_offset(self, case):
        """The module docstring's invariant for the K-major layout: a sample's
        output bits are the same alone (columns 0.. of a zero-padded tail
        chunk) and at any position of any batch (any column offset within a
        full or tail chunk, any number of chunks around it)."""
        c, o, k, h, w, stride, pad, n, pos, dtype, seed = case
        rng = np.random.default_rng(seed)
        weight = rng.normal(size=(o, c, k, k)).astype(dtype)
        batch = rng.normal(size=(n, c, h, w)).astype(dtype)
        alone = _conv2d_raw(batch[pos : pos + 1], weight, stride, (pad, pad))
        together = _conv2d_raw(batch, weight, stride, (pad, pad))
        np.testing.assert_array_equal(_bits(together[pos : pos + 1]), _bits(alone))


class TestMaxPoolMatchesOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_values_bit_equal(self, k, dtype):
        x = RNG.normal(size=(8, 12, 6 * k, 4 * k)).astype(dtype)
        out = _max_pool2d_raw(x, k)
        assert out.dtype == x.dtype and out.flags.c_contiguous
        np.testing.assert_array_equal(_bits(out), _bits(max_pool2d_reshape(x, k)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_nan_propagates(self, k):
        x = RNG.normal(size=(2, 3, 4 * k, 4 * k)).astype(np.float32)
        x[RNG.random(x.shape) < 0.1] = np.nan
        out = _max_pool2d_raw(x, k)
        ref = max_pool2d_reshape(x, k)
        assert np.isnan(ref).any() and not np.isnan(ref).all()
        np.testing.assert_array_equal(out, ref)  # NaNs compare equal in position

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 3])
    def test_signed_zero_ties_after_relu(self, k, dtype):
        """``x * (x > 0)`` (the module ReLU) leaves -0.0 wherever x was
        negative, so most windows tie on zeros; the sign bit must survive."""
        x = RNG.normal(loc=-1.0, size=(4, 6, 6 * k, 6 * k)).astype(dtype)
        x = x * (x > 0)
        ref = max_pool2d_reshape(x, k)
        assert np.signbit(ref).any() and (ref > 0).any()
        np.testing.assert_array_equal(_bits(_max_pool2d_raw(x, k)), _bits(ref))

    def test_non_contiguous_input_and_input_untouched(self):
        big = RNG.normal(size=(4, 6, 10, 12)).astype(np.float32)
        view = big[:, ::2, 1:-1, 2:-2]
        before = big.copy()
        np.testing.assert_array_equal(_max_pool2d_raw(view, 2), max_pool2d_reshape(view.copy(), 2))
        np.testing.assert_array_equal(big, before)

    def test_module_and_functional_share_the_kernel(self):
        x = RNG.normal(size=(2, 3, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(F.max_pool2d(Tensor(x), 3).data, _max_pool2d_raw(x, 3))


class TestMaxPoolLazyArgmaxBackward:
    @pytest.mark.parametrize("k", [2, 3])
    def test_gradcheck(self, k):
        x = RNG.normal(size=(2, 3, 2 * k, 3 * k))
        mix = RNG.normal(size=(2, 3, 2, 3))
        check_grad(lambda t: (F.max_pool2d(t, k) * Tensor(mix)).sum(), x)

    def test_tie_routes_to_the_first_winner(self):
        """argmax semantics, computed inside ``bwd``: one gradient per window."""
        t = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        F.max_pool2d(t, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[::2, ::2] = 1.0
        np.testing.assert_array_equal(t.grad[0, 0], expected)
