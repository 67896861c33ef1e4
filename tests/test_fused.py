"""Fused no-grad inference kernels (repro.nn.fused): bit-identity with the
module/Tensor path for every layer class and every model family (separable
and rest halves alike), dtype discipline, training-mode refusal, and the
error for a module without a kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.compression import CompressionPipeline
from repro.models import charcnn_mini, fcn_mini, resnet_mini, vgg16, vgg_mini, yolo_mini
from repro.nn import Tensor
from repro.nn.fused import FusedSeparable, UnsupportedModule, compile_module, try_compile

RNG = np.random.default_rng(7)

BUILDERS = {
    "vgg_mini": lambda: vgg_mini(num_classes=3, input_size=24, base_width=6),
    "resnet_mini": lambda: resnet_mini(num_classes=3, input_size=24, base_width=6),
    "yolo_mini": lambda: yolo_mini(num_classes=3, input_size=24, base_width=6),
    "fcn_mini": lambda: fcn_mini(num_classes=3, input_size=24, base_width=6),
    "charcnn_mini": lambda: charcnn_mini(num_classes=3, base_width=8),
}


def _input_for(model, batch=2):
    return RNG.normal(size=(batch, *model.input_shape)).astype(np.float32)


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_fused_matches_module_path(self, name):
        """fused(x) == separable(Tensor(x)).data bitwise, for every family."""
        model = BUILDERS[name]().eval()
        separable = model.separable_part()
        fused = try_compile(separable)
        assert fused is not None, f"{name} separable stack should compile"
        x = _input_for(model)
        with nn.no_grad():
            expected = separable(Tensor(x)).data
        got = fused(x)
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype

    def test_input_buffer_not_mutated(self):
        model = BUILDERS["vgg_mini"]().eval()
        fused = try_compile(model.separable_part())
        x = _input_for(model)
        before = x.copy()
        fused(x)
        np.testing.assert_array_equal(x, before)

    def test_tracks_weight_updates(self):
        """Kernels close over modules, not captured weights: editing a BN
        parameter after compilation must change the output accordingly."""
        model = BUILDERS["vgg_mini"]().eval()
        separable = model.separable_part()
        fused = try_compile(separable)
        x = _input_for(model, batch=1)
        bn = next(m for m in separable.modules() if isinstance(m, nn.BatchNorm2d))
        bn.gamma.data[:] = bn.gamma.data * 1.5 + 0.25
        with nn.no_grad():
            expected = separable(Tensor(x)).data
        np.testing.assert_array_equal(fused(x), expected)

    def test_integer_input_coerced_like_tensor(self):
        """Non-float input follows Tensor.__init__'s float32 coercion."""
        model = BUILDERS["vgg_mini"]().eval()
        separable = model.separable_part()
        fused = try_compile(separable)
        x = RNG.integers(-3, 4, size=(1, *model.input_shape)).astype(np.int64)
        with nn.no_grad():
            expected = separable(Tensor(x)).data
        np.testing.assert_array_equal(fused(x), expected)


class TestGuardsAndFallback:
    def test_training_mode_refused(self):
        model = BUILDERS["vgg_mini"]()  # fresh: BN modules still training
        fused = try_compile(model.separable_part())
        x = _input_for(model, batch=1)
        with pytest.raises(RuntimeError, match="inference-only"):
            fused(x)

    def test_unsupported_module_raises_in_try_compile(self):
        class Odd(nn.Module):
            def forward(self, x):
                return x

        stack = nn.Sequential(nn.ReLU(), Odd())
        with pytest.raises(UnsupportedModule):
            compile_module(stack)
        with pytest.raises(UnsupportedModule, match="Odd"):
            try_compile(stack)

    def test_empty_and_identity_stacks(self):
        fused = try_compile(nn.Sequential(nn.Identity()))
        assert isinstance(fused, FusedSeparable)
        x = RNG.normal(size=(2, 3, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(fused(x), x)


def _perturb_norms(model, rng):
    """Non-trivial BN statistics and affine terms, so the folded BN step is
    not the identity the fresh defaults would give."""
    for m in model.modules():
        if isinstance(m, nn.modules._BatchNorm):
            m.running_mean[:] = rng.normal(scale=0.5, size=m.num_features)
            m.running_var[:] = rng.uniform(0.5, 2.0, size=m.num_features)
            m.gamma.data[:] = rng.uniform(0.5, 1.5, size=m.num_features)
            m.beta.data[:] = rng.normal(scale=0.2, size=m.num_features)
    return model.eval()


#: Every family at test scale, VGG16 included at 1/16 width: its head is the
#: only one with Flatten + a hidden Linear.
FAMILIES = {
    **BUILDERS,
    "vgg16": lambda: vgg16(num_classes=5, input_size=64, width_mult=0.0625),
}
_MODELS = {name: _perturb_norms(build(), np.random.default_rng(3)) for name, build in FAMILIES.items()}


class TestWholeModelCompiles:
    """One inference definition: the separable and rest chains, chained,
    are the whole eval-mode model bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(FAMILIES)),
        batch=st.integers(1, 4),
        dtype=st.sampled_from([np.float32, np.float64]),
        scale=st.sampled_from([0.1, 1.0, 10.0]),
        seed=st.integers(0, 2**16),
    )
    def test_chained_halves_equal_module_path(self, name, batch, dtype, scale, seed):
        model = _MODELS[name]
        x = np.random.default_rng(seed).normal(scale=scale, size=(batch, *model.input_shape)).astype(dtype)
        before = x.copy()
        with nn.no_grad():
            expected = model(Tensor(x)).data
        got = try_compile(model.rest_part())(try_compile(model.separable_part())(x))
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(x, before)

    #: One instance of every layer class, with an input shape it accepts.
    LAYERS = [
        (nn.Sequential(nn.Flatten(), nn.ReLU()), (2, 3, 4, 4)),
        (nn.Identity(), (2, 3, 4, 4)),
        (nn.Conv2d(3, 4, 3, stride=2, padding=1), (2, 3, 8, 8)),
        (nn.Conv1d(3, 4, 5, padding=2), (2, 3, 16)),
        (nn.BatchNorm2d(3), (2, 3, 4, 4)),
        (nn.BatchNorm1d(3), (2, 3)),
        (nn.ReLU(), (2, 3, 4, 4)),
        (nn.LeakyReLU(0.2), (2, 3, 4, 4)),
        (nn.ClippedReLU(0.5, 2.0), (2, 3, 4, 4)),
        (nn.QuantizeSTE(bits=3, max_value=2.0), (2, 3, 4, 4)),
        (nn.MaxPool2d(2), (2, 3, 4, 4)),
        (nn.AvgPool2d(2), (2, 3, 4, 4)),
        (nn.GlobalAvgPool2d(), (2, 3, 4, 4)),
        (nn.MaxPool1d(2), (2, 3, 8)),
        (nn.GlobalMaxPool1d(), (2, 3, 8)),
        (nn.NearestUpsample2d(3), (2, 3, 4, 4)),
        (nn.NearestUpsample2d(1), (2, 3, 4, 4)),
        (nn.Linear(6, 4), (2, 6)),
        (nn.Flatten(), (2, 3, 4, 4)),
    ]

    def test_table_covers_every_layer_class(self):
        exported = {
            obj for obj in (getattr(nn, name) for name in nn.__all__)
            if isinstance(obj, type) and issubclass(obj, nn.Module) and obj is not nn.Module
        }
        assert exported == {type(m) for m, _ in self.LAYERS}

    @pytest.mark.parametrize("layer,shape", LAYERS, ids=[type(m).__name__ for m, _ in LAYERS])
    def test_every_layer_class_compiles_bitwise(self, layer, shape):
        layer = _perturb_norms(layer, np.random.default_rng(5))
        x = RNG.normal(size=shape).astype(np.float32)
        before = x.copy()
        with nn.no_grad():
            expected = layer(Tensor(x)).data
        got = try_compile(layer)(x)
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(x, before)


class TestFusedClipQuantize:
    @pytest.mark.parametrize("bits", [2, 4, 8, 12])
    def test_matches_pipeline_reference(self, bits):
        from repro.nn.fused import fused_clip_quantize

        pipe = CompressionPipeline(lower=0.0, upper=6.0, bits=bits)
        x = RNG.normal(scale=4.0, size=(3, 5, 17)).astype(np.float32)
        expected = pipe.quantizer.quantize(pipe.clip(x))
        got = fused_clip_quantize(
            x, pipe.lower, pipe.upper, pipe.quantizer.step,
            pipe.quantizer.num_levels, pipe.quantizer.level_dtype,
        )
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype

    def test_pipeline_levels_route_through_fusion(self):
        """compress_packed produces the same stream as the seed
        clip→quantize→encode composition over the oracle codec."""
        from rle_oracle import rle_decode, rle_encode

        from repro.compression import unpack

        pipe = CompressionPipeline(bits=4)
        x = RNG.normal(scale=3.0, size=(1, 4, 12, 12)).astype(np.float32)
        seed_stream = rle_encode(
            pipe.quantizer.quantize(pipe.clip(x)), value_bits=4, run_bits=pipe.run_bits
        )
        got = pipe.compress_packed(x)
        assert got.compressed_bits == seed_stream.encoded_bits
        np.testing.assert_array_equal(unpack(got.packed), rle_decode(seed_stream))
        np.testing.assert_array_equal(pipe.apply(x), pipe.reference_values(x))
