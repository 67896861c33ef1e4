"""Tests for model persistence and the high-level deployment API."""

import numpy as np
import pytest

from repro.models import vgg_mini
from repro.nn import Tensor
from repro.nn.serialization import load_model_into, load_state, save_model, save_state
from repro.partition import SegmentGrid, TileGrid
from repro.runtime import ADCNNDeployment

RNG = np.random.default_rng(61)


class TestSerialization:
    def test_state_roundtrip(self, tmp_path):
        state = {"a": RNG.normal(size=(3, 4)).astype(np.float32), "b": np.arange(5.0)}
        save_state(state, tmp_path / "s.npz", metadata={"k": 1})
        loaded, meta = load_state(tmp_path / "s.npz")
        assert meta == {"k": 1}
        np.testing.assert_array_equal(loaded["a"], state["a"])
        np.testing.assert_array_equal(loaded["b"], state["b"])

    def test_model_roundtrip(self, tmp_path):
        m1 = vgg_mini(num_classes=3, input_size=24, base_width=4, seed=1)
        for p in m1.parameters():
            p.data += RNG.normal(size=p.shape).astype(np.float32)
        save_model(m1, tmp_path / "m.npz")
        m2 = vgg_mini(num_classes=3, input_size=24, base_width=4, seed=2)
        load_model_into(m2, tmp_path / "m.npz")
        x = Tensor(RNG.normal(size=(1, 3, 24, 24)))
        m1.eval(), m2.eval()
        np.testing.assert_allclose(m1(x).data, m2(x).data, atol=1e-6)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state(tmp_path / "missing.npz")

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_state({"__meta__": np.zeros(1)}, tmp_path / "bad.npz")

    def test_metadata_optional(self, tmp_path):
        save_state({"x": np.zeros(2)}, tmp_path / "n.npz")
        _, meta = load_state(tmp_path / "n.npz")
        assert meta == {}


class TestDeployment:
    def make_deployment(self):
        model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2, seed=3)
        return ADCNNDeployment(model, TileGrid(2, 2), clip_lower=0.0, clip_upper=4.0, bits=4)

    def test_invalid_bounds(self):
        model = vgg_mini(num_classes=3, input_size=24, base_width=4)
        with pytest.raises(ValueError):
            ADCNNDeployment(model, "2x2", clip_lower=2.0, clip_upper=1.0)

    def test_local_inference_shape(self):
        dep = self.make_deployment()
        out = dep.infer_local(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32))
        assert out.shape == (1, 3)

    def test_serve_matches_local(self):
        dep = self.make_deployment()
        x = RNG.normal(size=(1, 3, 24, 24)).astype(np.float32)
        with dep.serve(dep.cluster_config(num_workers=2)) as cluster:
            remote = cluster.infer(x).output
        np.testing.assert_allclose(remote, dep.infer_local(x), atol=1e-4)

    def test_save_load_roundtrip(self, tmp_path):
        dep = self.make_deployment()
        dep.save(tmp_path / "dep.npz")
        restored = ADCNNDeployment.load(
            tmp_path / "dep.npz",
            builder=vgg_mini,
            num_classes=3,
            input_size=24,
            base_width=6,
            separable_prefix=2,
            seed=99,  # different init — weights must come from disk
        )
        assert restored.clip_upper == dep.clip_upper
        assert restored.grid == dep.grid
        x = RNG.normal(size=(1, 3, 24, 24)).astype(np.float32)
        np.testing.assert_allclose(restored.infer_local(x), dep.infer_local(x), atol=1e-6)

    def test_segment_grid_roundtrip(self, tmp_path):
        from repro.models import charcnn_mini

        model = charcnn_mini(num_classes=3, vocab=8, length=64, base_width=8, separable_prefix=2)
        dep = ADCNNDeployment(model, SegmentGrid(4), 0.0, 2.0)
        dep.save(tmp_path / "c.npz")
        restored = ADCNNDeployment.load(
            tmp_path / "c.npz", builder=charcnn_mini,
            num_classes=3, vocab=8, length=64, base_width=8, separable_prefix=2,
        )
        assert isinstance(restored.grid, SegmentGrid) and restored.grid.num_segments == 4

    def test_from_progressive(self):
        """Package an actual Algorithm-1 result."""
        from repro.data import make_classification
        from repro.nn.losses import cross_entropy
        from repro.training import TrainConfig, evaluate_classification, progressive_retrain, train_epochs

        data = make_classification(num_samples=64, num_classes=3, image_size=24, seed=5)
        train, test = data.split()
        model = vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2, seed=5)
        cfg = TrainConfig(lr=0.05, batch_size=16)
        train_epochs(model, train.images, train.labels, cross_entropy, epochs=3, config=cfg)
        res = progressive_retrain(
            model, "2x2", train.images, train.labels, cross_entropy,
            lambda m: evaluate_classification(m, test.images, test.labels),
            max_epochs_per_stage=1, config=cfg,
        )
        dep = ADCNNDeployment.from_progressive(res)
        assert dep.clip_lower == res.bounds.lower
        out = dep.infer_local(test.images[:2])
        assert out.shape == (2, 3)
