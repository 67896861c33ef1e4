"""Unit tests for conv/pool/BN kernels — checked against scipy references
and numerical gradients."""

import numpy as np
import pytest
from scipy import signal

import repro.nn.functional as F
from repro.nn import Tensor

from gradcheck import check_grad

RNG = np.random.default_rng(7)


def reference_conv2d(x, w, stride=1, padding=0):
    """Direct scipy cross-correlation reference (N, C, H, W)."""
    n, c, h, wd = x.shape
    o = w.shape[0]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    kh, kw = w.shape[2:]
    ho = (x.shape[2] - kh) // stride + 1
    wo = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for i in range(n):
        for j in range(o):
            acc = np.zeros((x.shape[2] - kh + 1, x.shape[3] - kw + 1))
            for ch in range(c):
                acc += signal.correlate2d(x[i, ch], w[j, ch], mode="valid")
            out[i, j] = acc[::stride, ::stride]
    return out


class TestConv2dForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_scipy(self, stride, padding):
        x = RNG.normal(size=(2, 3, 9, 9))
        w = RNG.normal(size=(4, 3, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        ref = reference_conv2d(x, w, stride, padding)
        np.testing.assert_allclose(out.data, ref, atol=1e-4)

    def test_bias(self):
        x = RNG.normal(size=(1, 2, 5, 5))
        w = RNG.normal(size=(3, 2, 3, 3))
        b = RNG.normal(size=(3,))
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1)
        ref = reference_conv2d(x, w, 1, 1) + b.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(out.data, ref, atol=1e-4)

    def test_1x1_kernel(self):
        x = RNG.normal(size=(1, 4, 6, 6))
        w = RNG.normal(size=(2, 4, 1, 1))
        out = F.conv2d(Tensor(x), Tensor(w))
        ref = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out.data, ref, atol=1e-4)

    def test_output_shape_stride2(self):
        x = Tensor(np.zeros((1, 1, 8, 8)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 1, 4, 4)


class TestConv2dBackward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_input_grad(self, stride, padding):
        w = Tensor(RNG.normal(size=(2, 2, 3, 3)))
        check_grad(
            lambda t: F.conv2d(t, w, stride=stride, padding=padding).sum(),
            RNG.normal(size=(1, 2, 6, 6)),
        )

    def test_input_grad_non_divisible(self):
        # (H + 2p - k) % stride != 0 exercises the truncation-padding path.
        w = Tensor(RNG.normal(size=(1, 1, 3, 3)))
        check_grad(lambda t: F.conv2d(t, w, stride=2, padding=0).sum(), RNG.normal(size=(1, 1, 8, 8)))

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_weight_grad(self, stride, padding):
        x = Tensor(RNG.normal(size=(2, 2, 6, 6)))

        def build(t):
            return F.conv2d(x, t, stride=stride, padding=padding).sum()

        check_grad(build, RNG.normal(size=(3, 2, 3, 3)))

    def test_bias_grad(self):
        x = Tensor(RNG.normal(size=(2, 1, 4, 4)))
        w = Tensor(RNG.normal(size=(2, 1, 3, 3)))

        def build(t):
            return F.conv2d(x, w, t, padding=1).sum()

        check_grad(build, RNG.normal(size=(2,)))

    def test_weighted_output_grad(self):
        # Non-uniform output gradient catches orientation bugs (flip errors).
        w = Tensor(RNG.normal(size=(2, 1, 3, 3)))
        coeff = Tensor(RNG.normal(size=(1, 2, 4, 4)))
        check_grad(lambda t: (F.conv2d(t, w) * coeff).sum(), RNG.normal(size=(1, 1, 6, 6)))


class TestConv1d:
    def test_forward_matches_manual(self):
        x = RNG.normal(size=(2, 3, 10))
        w = RNG.normal(size=(4, 3, 3))
        out = F.conv1d(Tensor(x), Tensor(w), padding=1)
        assert out.shape == (2, 4, 10)
        # Reference via correlate.
        ref = np.zeros((2, 4, 10))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
        for i in range(2):
            for j in range(4):
                for c in range(3):
                    ref[i, j] += np.correlate(xp[i, c], w[j, c], mode="valid")
        np.testing.assert_allclose(out.data, ref, atol=1e-4)

    def test_grad(self):
        w = Tensor(RNG.normal(size=(2, 2, 3)))
        check_grad(lambda t: F.conv1d(t, w, padding=1).sum(), RNG.normal(size=(1, 2, 8)))


class TestPooling:
    def test_max_pool2d_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_max_pool2d_grad_routes_to_argmax(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        t = Tensor(x, requires_grad=True)
        F.max_pool2d(t, 2).sum().backward()
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, 1, 1] = expected[0, 0, 1, 3] = 1
        expected[0, 0, 3, 1] = expected[0, 0, 3, 3] = 1
        np.testing.assert_allclose(t.grad, expected)

    def test_max_pool2d_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            F.max_pool2d(Tensor(np.zeros((1, 1, 5, 4))), 2)

    def test_avg_pool2d(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_avg_pool2d_grad(self):
        check_grad(lambda t: (F.avg_pool2d(t, 2) ** 2).sum(), RNG.normal(size=(1, 2, 4, 4)))

    def test_global_avg_pool(self):
        x = RNG.normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)), atol=1e-6)

    def test_max_pool1d(self):
        x = np.array([[[1.0, 3.0, 2.0, 0.0, 5.0, 4.0]]])
        out = F.max_pool1d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[3.0, 2.0, 5.0]]])

    def test_max_pool1d_grad(self):
        x = RNG.normal(size=(1, 2, 8))
        t = Tensor(x, requires_grad=True)
        F.max_pool1d(t, 2).sum().backward()
        assert t.grad.sum() == pytest.approx(8.0)  # one unit per window


class TestBatchNorm:
    def test_training_normalizes(self):
        x = RNG.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5))
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        rm, rv = np.zeros(4), np.ones(4)
        out = F.batch_norm(Tensor(x), gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_updated(self):
        x = RNG.normal(loc=5.0, size=(16, 2, 4, 4))
        rm, rv = np.zeros(2), np.ones(2)
        F.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True, momentum=1.0)
        np.testing.assert_allclose(rm, x.mean(axis=(0, 2, 3)), atol=1e-4)

    def test_inference_affine_matches_stats(self):
        """Eval-mode BN must equal the fused a*x+b form from §2.1."""
        x = RNG.normal(size=(4, 3, 5, 5))
        gamma = np.array([1.5, 0.5, 2.0])
        beta = np.array([0.1, -0.2, 0.0])
        rm = np.array([0.3, -0.1, 0.5])
        rv = np.array([1.2, 0.8, 2.0])
        out = F.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv, training=False)
        a = gamma / np.sqrt(rv + 1e-5)
        b = beta - rm * a
        ref = a.reshape(1, 3, 1, 1) * x + b.reshape(1, 3, 1, 1)
        np.testing.assert_allclose(out.data, ref, atol=1e-5)

    def test_training_grad(self):
        gamma = Tensor(RNG.uniform(0.5, 1.5, size=3))
        beta = Tensor(RNG.normal(size=3))

        def build(t):
            rm, rv = np.zeros(3), np.ones(3)
            return (F.batch_norm(t, gamma, beta, rm, rv, training=True) ** 2).sum()

        check_grad(build, RNG.normal(size=(4, 3, 3, 3)), atol=3e-2, rtol=3e-2)

    def test_3d_input(self):
        x = RNG.normal(size=(4, 3, 10))  # CharCNN shape
        rm, rv = np.zeros(3), np.ones(3)
        out = F.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, training=True)
        assert out.shape == (4, 3, 10)


class TestMisc:
    def test_linear(self):
        x = RNG.normal(size=(5, 3))
        w = RNG.normal(size=(4, 3))
        b = RNG.normal(size=(4,))
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, atol=1e-5)

    def test_pad2d(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        out = F.pad2d(x, (1, 2, 3, 4))
        assert out.shape == (1, 1, 5, 9)
        assert out.data.sum() == 4.0
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((1, 1, 2, 2)))

