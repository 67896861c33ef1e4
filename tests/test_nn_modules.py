"""Tests for the Module system and layer wrappers."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import Tensor

RNG = np.random.default_rng(11)


def tiny_net() -> nn.Sequential:
    rng = np.random.default_rng(0)
    return nn.Sequential(
        nn.Conv2d(1, 4, 3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * 2 * 2, 3, rng=rng),
    )


class TestModuleRegistry:
    def test_parameters_discovered(self):
        net = tiny_net()
        names = [n for n, _ in net.named_parameters()]
        assert "0.weight" in names and "1.gamma" in names and "5.bias" in names

    def test_num_parameters(self):
        lin = nn.Linear(3, 2)
        assert lin.num_parameters() == 3 * 2 + 2

    def test_buffers_discovered(self):
        net = tiny_net()
        buf_names = [n for n, _ in net.named_buffers()]
        assert "1.running_mean" in buf_names and "1.running_var" in buf_names

    def test_train_eval_propagates(self):
        net = tiny_net()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad(self):
        net = tiny_net()
        x = Tensor(RNG.normal(size=(2, 1, 4, 4)))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestStateDict:
    def test_roundtrip(self):
        net1, net2 = tiny_net(), tiny_net()
        # Perturb net1 so the two differ.
        for p in net1.parameters():
            p.data += 1.0
        state = net1.state_dict()
        net2.load_state_dict(state)
        x = Tensor(RNG.normal(size=(2, 1, 4, 4)))
        net1.eval(), net2.eval()
        np.testing.assert_allclose(net1(x).data, net2(x).data, atol=1e-6)

    def test_state_dict_is_a_copy(self):
        net = tiny_net()
        state = net.state_dict()
        state["0.weight"] += 99.0
        assert not np.allclose(dict(net.named_parameters())["0.weight"].data, state["0.weight"])

    def test_strict_mismatch_raises(self):
        net = tiny_net()
        state = net.state_dict()
        del state["0.weight"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        net = tiny_net()
        state = net.state_dict()
        state["0.weight"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_running_stats_survive_roundtrip(self):
        net1, net2 = tiny_net(), tiny_net()
        x = Tensor(RNG.normal(loc=4.0, size=(8, 1, 4, 4)))
        net1(x)  # training mode updates running stats
        net2.load_state_dict(net1.state_dict())
        bn1, bn2 = net1[1], net2[1]
        np.testing.assert_allclose(bn1.running_mean, bn2.running_mean)


class TestSequential:
    def test_slicing_returns_sequential(self):
        net = tiny_net()
        head = net[:3]
        assert isinstance(head, nn.Sequential) and len(head) == 3

    def test_forward_shape(self):
        net = tiny_net()
        out = net(Tensor(RNG.normal(size=(2, 1, 4, 4))))
        assert out.shape == (2, 3)

    def test_split_equals_whole(self):
        """Slicing a Sequential (how ADCNN splits separable/rest) must not
        change the computation."""
        net = tiny_net().eval()
        x = Tensor(RNG.normal(size=(2, 1, 4, 4)))
        whole = net(x)
        head, tail = net[:3], net[3:]
        parted = tail(head(x))
        np.testing.assert_allclose(whole.data, parted.data, atol=1e-6)


class TestLayers:
    def test_clipped_relu_module(self):
        m = nn.ClippedReLU(0.2, 2.0)
        assert m.output_range == pytest.approx(1.8)
        out = m(Tensor(np.array([3.0])))
        np.testing.assert_allclose(out.data, [1.8])

    def test_clipped_relu_invalid(self):
        with pytest.raises(ValueError):
            nn.ClippedReLU(2.0, 1.0)

    def test_quantize_module_levels(self):
        q = nn.QuantizeSTE(bits=4, max_value=1.8)
        assert q.num_levels == 16
        out = q(Tensor(RNG.uniform(0, 1.8, size=(100,))))
        uniq = np.unique(np.round(out.data / q.step).astype(int))
        assert uniq.max() <= 15

    def test_quantize_invalid(self):
        with pytest.raises(ValueError):
            nn.QuantizeSTE(bits=0)
        with pytest.raises(ValueError):
            nn.QuantizeSTE(max_value=-1.0)

    def test_conv2d_shapes(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1)
        out = conv(Tensor(RNG.normal(size=(1, 3, 8, 8))))
        assert out.shape == (1, 8, 4, 4)

    def test_conv1d_shapes(self):
        conv = nn.Conv1d(4, 8, 5, padding=2)
        out = conv(Tensor(RNG.normal(size=(2, 4, 16))))
        assert out.shape == (2, 8, 16)

    def test_identity(self):
        x = Tensor(RNG.normal(size=(3,)))
        assert nn.Identity()(x) is x

    def test_global_avg_pool_module(self):
        out = nn.GlobalAvgPool2d()(Tensor(np.ones((2, 3, 4, 4))))
        assert out.shape == (2, 3)

    def test_upsample_scale_validation(self):
        with pytest.raises(ValueError):
            nn.NearestUpsample2d(0)

    def test_bn_fused_inference_params(self):
        bn = nn.BatchNorm2d(2)
        bn.running_mean[:] = [1.0, 2.0]
        bn.running_var[:] = [4.0, 9.0]
        a, b = bn.fused_inference_params()
        np.testing.assert_allclose(a, 1.0 / np.sqrt(np.array([4.0, 9.0]) + 1e-5), atol=1e-6)
        np.testing.assert_allclose(b, -np.array([1.0, 2.0]) * a, atol=1e-6)


class TestTrainingSmoke:
    def test_one_sgd_step_reduces_loss(self):
        """End-to-end: a tiny conv net fits a fixed batch."""
        net = tiny_net()
        opt = nn.optim.SGD(net.parameters(), lr=0.05)
        x = Tensor(RNG.normal(size=(8, 1, 4, 4)))
        y = RNG.integers(0, 3, size=8)
        losses = []
        for _ in range(30):
            opt.zero_grad()
            loss = nn.losses.cross_entropy(net(x), y)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.5
