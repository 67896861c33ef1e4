"""Tests for the model zoo: shapes, split equivalence, specs."""

import dataclasses

import numpy as np
import pytest

from repro.models import (
    available_models,
    charcnn_mini,
    create_model,
    decode_yolo,
    encode_text,
    fcn_mini,
    fcn_spec,
    get_spec,
    resnet_mini,
    vgg16_spec,
    vgg_mini,
    yolo_mini,
)
from repro.models.blocks import LayerBlock, PartitionableCNN, ResidualBlock
from repro.nn import Sequential, Tensor

RNG = np.random.default_rng(21)


class TestLayerBlock:
    def test_forward_shape(self):
        blk = LayerBlock(3, 8, 3, pool=2)
        out = blk(Tensor(RNG.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_spatial_reduction(self):
        assert LayerBlock(3, 8, 3).spatial_reduction == 1
        assert LayerBlock(3, 8, 3, pool=2).spatial_reduction == 2
        assert LayerBlock(3, 8, 3, stride=2, pool=2).spatial_reduction == 4

    def test_residual_identity_shortcut(self):
        blk = ResidualBlock(8, 8)
        out = blk(Tensor(RNG.normal(size=(1, 8, 6, 6))))
        assert out.shape == (1, 8, 6, 6)

    def test_residual_projection_shortcut(self):
        blk = ResidualBlock(8, 16, stride=2)
        out = blk(Tensor(RNG.normal(size=(1, 8, 6, 6))))
        assert out.shape == (1, 16, 3, 3)
        assert not isinstance(blk.shortcut, type(None))

    def test_residual_grad_flows_through_shortcut(self):
        blk = ResidualBlock(4, 4)
        x = Tensor(RNG.normal(size=(1, 4, 4, 4)), requires_grad=True)
        blk(x).sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0


class TestMiniModels:
    @pytest.mark.parametrize(
        "builder,out_shape",
        [
            (vgg_mini, (2, 4)),
            (resnet_mini, (2, 4)),
        ],
    )
    def test_classifier_shapes(self, builder, out_shape):
        model = builder(num_classes=4, input_size=48).eval()
        out = model(Tensor(RNG.normal(size=(2, 3, 48, 48))))
        assert out.shape == out_shape

    def test_fcn_shape(self):
        model = fcn_mini(num_classes=3, input_size=48).eval()
        out = model(Tensor(RNG.normal(size=(1, 3, 48, 48))))
        assert out.shape == (1, 3, 48, 48)

    def test_yolo_shape(self):
        model = yolo_mini(num_classes=3, input_size=48).eval()
        out = model(Tensor(RNG.normal(size=(1, 3, 48, 48))))
        assert out.shape == (1, 8, 6, 6)  # 5 + 3 channels, 48/8 grid

    def test_charcnn_shape(self):
        model = charcnn_mini(num_classes=4, vocab=16, length=128).eval()
        x = encode_text(RNG.integers(0, 16, size=(2, 128)), vocab=16)
        out = model(Tensor(x))
        assert out.shape == (2, 4)

    @pytest.mark.parametrize("name", ["vgg_mini", "resnet_mini", "yolo_mini", "fcn_mini", "charcnn_mini"])
    def test_split_equals_whole(self, name):
        """separable_part + rest_part must compute exactly the whole model."""
        model = create_model(name).eval()
        if name == "charcnn_mini":
            x = Tensor(encode_text(RNG.integers(0, 16, size=(1, 128)), vocab=16))
        else:
            c, h, w = model.input_shape
            x = Tensor(RNG.normal(size=(1, c, h, w)))
        np.testing.assert_allclose(model(x).data, model.forward_split(x).data, atol=1e-5)

    def test_separable_metadata(self):
        model = vgg_mini(separable_prefix=4)
        assert model.separable_prefix == 4
        assert len(model.separable_part()) == 4
        assert model.separable_spatial_reduction() == 2  # one pool in prefix
        assert model.separable_out_channels() == 24

    def test_invalid_separable_prefix(self):
        with pytest.raises(ValueError):
            PartitionableCNN("x", Sequential(LayerBlock(3, 4)), Sequential(), 2, (3, 8, 8))


class TestRegistry:
    def test_available(self):
        names = available_models()
        for expected in ("vgg16", "vgg_mini", "resnet34", "yolo_mini", "fcn_mini", "charcnn_mini"):
            assert expected in names

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            create_model("alexnet")

    def test_kwargs_forwarded(self):
        model = create_model("vgg_mini", num_classes=7)
        out = model.eval()(Tensor(RNG.normal(size=(1, 3, 48, 48))))
        assert out.shape == (1, 7)

    def test_models_deterministic_from_seed(self):
        m1 = create_model("vgg_mini", seed=5)
        m2 = create_model("vgg_mini", seed=5)
        for (_, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)


class TestSpecs:
    def test_vgg16_total_macs(self):
        """VGG16 @224 is ~15.5 GMACs (well-known figure)."""
        assert get_spec("vgg16").total_macs() == pytest.approx(15.5e9, rel=0.02)

    def test_resnet34_total_macs(self):
        """ResNet34 @224 is ~3.6 GMACs."""
        assert get_spec("resnet34").total_macs() == pytest.approx(3.6e9, rel=0.05)

    def test_early_blocks_dominate_vgg(self):
        """§2.2: early layer blocks account for most computation."""
        geo = get_spec("vgg16").block_geometry()
        total = sum(b["macs"] for b in geo)
        first4 = sum(b["macs"] for b in geo[:4])
        assert first4 / total > 0.30  # paper reports 41.4% of *latency*

    def test_fc_small_fraction_vgg(self):
        """§2.2: VGG16 FC layers are <2% of computation."""
        geo = get_spec("vgg16").block_geometry()
        total = sum(b["macs"] for b in geo)
        assert geo[-1]["macs"] / total < 0.02

    def test_ifmap_peaks_after_first_block(self):
        """§2.2 / Figure 3: ifmap size peaks right after block 1 then falls."""
        geo = get_spec("vgg16").block_geometry()
        sizes = [b["ifmap"] for b in geo]
        assert sizes[1] == max(sizes) and sizes[-1] < sizes[1] / 100

    def test_channel_partition_overhead_paper_number(self):
        """§3.1: VGG16 block-1 ofmap (224*224*64) halves to 51.38 Mbits."""
        geo = get_spec("vgg16").block_geometry()
        bits = geo[0]["ofmap"] / 2 * 32
        assert bits == pytest.approx(51.38e6, rel=0.01)

    def test_separable_output_vs_input(self):
        """§4: separable ofmap is larger than the input image (why the
        compression pipeline exists)."""
        spec = get_spec("vgg16")
        assert spec.separable_output_elements() > spec.input_elements()

    def test_charcnn_is_1d(self):
        spec = get_spec("charcnn")
        assert spec.is_1d
        geo = spec.block_geometry()
        assert geo[-1]["out_hw"] == (1, 1)

    def test_unknown_spec(self):
        with pytest.raises(KeyError):
            get_spec("mobilenet")

    def test_yolo_spec_head_channels(self):
        geo = get_spec("yolo", num_classes=20, num_anchors=5).block_geometry()
        assert geo[-1]["out_channels"] == 5 * 25

    def test_resnet_projection_counted(self):
        """Stage-crossing residual blocks must include the 1x1 shortcut."""
        geo = get_spec("resnet34").block_geometry()
        # Block R4 (first of stage 2) has stride 2 + channel change.
        r3 = next(b for b in geo if b["name"] == "R3")
        r4 = next(b for b in geo if b["name"] == "R4")
        # Same-channel block R3: 2 convs of 64ch at 56x56.
        assert r3["weights"] == 2 * (64 * 64 * 9 + 128)
        assert r4["weights"] > 2 * (64 * 128 * 9 + 256)  # includes projection


class TestSpecImmutability:
    """A spec is a value: built once, shared, and never written."""

    def test_get_spec_returns_one_shared_instance(self):
        assert get_spec("vgg16") is get_spec("vgg16")
        assert get_spec("yolo", num_classes=20) is get_spec("yolo", num_classes=20)
        assert get_spec("yolo", num_classes=20) is not get_spec("yolo", num_classes=80)

    def test_fields_cannot_be_assigned(self):
        spec = get_spec("vgg16")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.separable_prefix = 3  # type: ignore[misc]
        assert isinstance(spec.blocks, tuple)

    def test_geometry_is_computed_once_and_read_only(self):
        spec = get_spec("vgg16")
        geo = spec.block_geometry()
        assert spec.block_geometry() is geo
        with pytest.raises(TypeError):
            geo[0]["macs"] = 0  # type: ignore[index]
        with pytest.raises(TypeError):
            geo[0] = {}  # type: ignore[index]

    def test_replace_gets_its_own_geometry(self):
        spec = get_spec("vgg16")
        shallow = dataclasses.replace(spec, separable_prefix=3)
        assert shallow.separable_geometry() == spec.block_geometry()[:3]
        assert spec.separable_prefix == 7

    def test_fcn_derives_from_the_vgg16_backbone(self):
        fcn = fcn_spec()
        assert fcn.blocks[:-1] == vgg16_spec().blocks[:-1]
        assert fcn.blocks[-1].name == "score"
