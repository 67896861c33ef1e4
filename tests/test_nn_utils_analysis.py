"""Tests for LeakyReLU, the AlexNet spec, and simulator run analysis."""

import numpy as np
import pytest

import repro.nn as nn
from repro.models import get_spec
from repro.nn import Tensor
from repro.simulator import render_timeline, stage_breakdown

from gradcheck import check_grad

RNG = np.random.default_rng(67)


class TestLeakyReLU:
    def test_values(self):
        out = nn.LeakyReLU(0.1)(Tensor(np.array([-2.0, 0.0, 3.0])))
        np.testing.assert_allclose(out.data, [-0.2, 0.0, 3.0])

    def test_grad(self):
        x = RNG.normal(size=(10,))
        x[np.abs(x) < 0.1] = 0.5
        check_grad(lambda t: t.leaky_relu(0.1).sum(), x)

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.LeakyReLU(-0.1)


class TestAlexNetSpec:
    def test_macs_magnitude(self):
        """AlexNet is ~0.7 GMACs at 224."""
        spec = get_spec("alexnet")
        assert 0.4e9 < spec.total_macs() < 1.5e9

    def test_block_structure(self):
        spec = get_spec("alexnet")
        assert len(spec.blocks) == 6  # 5 conv + FC
        assert spec.separable_prefix == 2  # §2.3: layers 1-2 are local


class TestRunAnalysis:
    def _records(self):
        from repro.experiments import build_adcnn_system

        system = build_adcnn_system("vgg16", num_nodes=4)
        return system.run(6)

    def test_stage_breakdown_sums_to_latency(self):
        records = self._records()
        bd = stage_breakdown(records, skip=1)
        mean_latency = float(np.mean([r.latency for r in records[1:]]))
        assert bd.total_s == pytest.approx(mean_latency, rel=1e-6)

    def test_breakdown_requires_records(self):
        with pytest.raises(ValueError):
            stage_breakdown([])

    def test_timeline_renders(self):
        records = self._records()
        text = render_timeline(records, width=40)
        assert "img  0" in text
        assert "d" in text and "c" in text and "r" in text

    def test_timeline_empty(self):
        assert render_timeline([]) == "(no records)"

    def test_timeline_truncates(self):
        records = self._records()
        text = render_timeline(records, max_rows=2)
        assert "more" in text
