"""Tests for the DES-backed ADCNN system (workload model + Figure 9 flow)."""

import math

import numpy as np
import pytest

from repro.models import get_spec
from repro.profiling import RASPBERRY_PI_3B, WIFI_LAN, DeviceProfile, LinkProfile
from repro.runtime import ADCNNConfig, ADCNNSystem, ADCNNWorkload
from repro.simulator import CpuSchedule, SimNode


def vgg_workload(**kw) -> ADCNNWorkload:
    defaults = dict(num_tiles=64, separable_prefix=13, compression_ratio=0.032)
    defaults.update(kw)
    return ADCNNWorkload.from_spec(get_spec("vgg16"), **defaults)


def make_cluster(n=8, profile=RASPBERRY_PI_3B, schedules=None, fail_times=None, recover_times=None):
    schedules = schedules or [CpuSchedule()] * n
    fail_times = fail_times or [None] * n
    recover_times = recover_times or [None] * n
    return [
        SimNode(
            f"n{i}",
            profile,
            cpu_schedule=schedules[i],
            fail_time=fail_times[i],
            recover_time=recover_times[i],
        )
        for i in range(n)
    ]


class TestWorkloadModel:
    def test_from_spec_splits(self):
        wl = vgg_workload()
        spec = get_spec("vgg16")
        assert wl.separable_macs + wl.rest_macs == pytest.approx(spec.total_macs(), rel=1e-6)
        assert wl.input_bits == pytest.approx(spec.input_elements() * 32)

    def test_compression_scales_output(self):
        dense = vgg_workload(compression_ratio=1.0)
        packed = vgg_workload(compression_ratio=0.032)
        assert packed.tile_output_bits == pytest.approx(dense.tile_output_bits * 0.032)

    def test_default_prefix_from_spec(self):
        wl = ADCNNWorkload.from_spec(get_spec("vgg16"), num_tiles=64)
        assert wl.rest_macs > vgg_workload().rest_macs  # 7-block prefix leaves more centrally

    def test_validation(self):
        with pytest.raises(ValueError):
            vgg_workload(num_tiles=0)
        with pytest.raises(ValueError):
            vgg_workload(compression_ratio=0.0)
        with pytest.raises(ValueError):
            ADCNNWorkload.from_spec(get_spec("vgg16"), 64, separable_prefix=99)


class TestADCNNSystemBasics:
    def test_homogeneous_even_allocation(self):
        """§7.2: identical Conv nodes each get the same number of tiles."""
        sys_ = ADCNNSystem(vgg_workload(), make_cluster(8), SimNode("c", RASPBERRY_PI_3B))
        recs = sys_.run(5)
        for r in recs:
            np.testing.assert_array_equal(r.allocation, np.full(8, 8))

    def test_no_tiles_lost_in_stable_cluster(self):
        sys_ = ADCNNSystem(vgg_workload(), make_cluster(4), SimNode("c", RASPBERRY_PI_3B))
        for r in sys_.run(5):
            assert r.zero_filled_tiles == 0
            assert r.received.sum() == 64

    def test_latency_well_below_single_device(self):
        """Figure 11: ADCNN with 8 nodes crushes the single-device time."""
        sys_ = ADCNNSystem(
            vgg_workload(),
            make_cluster(8),
            SimNode("c", RASPBERRY_PI_3B),
            config=ADCNNConfig(pipeline_depth=1),
        )
        sys_.run(10)
        single = RASPBERRY_PI_3B.compute_time(get_spec("vgg16").total_macs())
        assert sys_.mean_latency(skip=1) < single / 3

    def test_records_monotone_completion(self):
        sys_ = ADCNNSystem(vgg_workload(), make_cluster(4), SimNode("c", RASPBERRY_PI_3B))
        recs = sys_.run(8)
        comps = [r.completion for r in recs]
        assert all(b >= a for a, b in zip(comps, comps[1:]))

    def test_pipelining_improves_throughput(self):
        """Figure 9: overlapping transfer and compute raises throughput."""
        lat = {}
        for depth in (1, 2):
            sys_ = ADCNNSystem(
                vgg_workload(),
                make_cluster(8),
                SimNode("c", RASPBERRY_PI_3B),
                config=ADCNNConfig(pipeline_depth=depth),
            )
            sys_.run(12)
            lat[depth] = sys_.makespan() / 12
        assert lat[2] < lat[1]

    def test_bits_accounting(self):
        wl = vgg_workload()
        sys_ = ADCNNSystem(wl, make_cluster(4), SimNode("c", RASPBERRY_PI_3B))
        sys_.run(3)
        expected = 3 * (wl.input_bits + wl.output_bits)
        assert sys_.total_transferred_bits() == pytest.approx(expected, rel=1e-6)

    def test_compression_reduces_latency_on_slow_link(self):
        """Figure 12: pruning matters most on the 12.66 Mbps link."""
        slow = LinkProfile("slow", 12.66e6, 2e-4)
        per_image = {}
        for ratio in (1.0, 0.032):
            # Prefix 7 (the paper's retraining config) ships the large
            # 28x28x256 map where compression matters most (§4's example).
            sys_ = ADCNNSystem(
                vgg_workload(compression_ratio=ratio, separable_prefix=7),
                make_cluster(8),
                SimNode("c", RASPBERRY_PI_3B),
                link=slow,
                config=ADCNNConfig(pipeline_depth=1),
            )
            sys_.run(10)
            per_image[ratio] = sys_.makespan() / 10
        assert per_image[0.032] < per_image[1.0] * 0.85

    def test_validation(self):
        with pytest.raises(ValueError):
            ADCNNSystem(vgg_workload(), [], SimNode("c", RASPBERRY_PI_3B))
        sys_ = ADCNNSystem(vgg_workload(), make_cluster(2), SimNode("c", RASPBERRY_PI_3B))
        with pytest.raises(ValueError):
            sys_.run(0)
        with pytest.raises(ValueError):
            ADCNNConfig(pipeline_depth=0)
        with pytest.raises(ValueError):
            ADCNNConfig(deadline_slack=0.5)


class TestMakespan:
    def test_central_failure_mid_run_keeps_a_finite_makespan(self):
        """A Central node that dies mid-run leaves ``inf`` completions;
        makespan and utilization skip them like ``mean_latency`` does."""
        central = SimNode("central", RASPBERRY_PI_3B, fail_time=2.0)
        sys_ = ADCNNSystem(vgg_workload(), make_cluster(), central)
        recs = sys_.run(20)
        finite = [r.completion for r in recs if math.isfinite(r.completion)]
        assert finite and len(finite) < len(recs)
        assert sys_.makespan() == max(finite)
        util = sys_.node_utilization()
        assert (util > 0).all() and (util <= 1).all()

    def test_no_finite_completion_raises(self):
        central = SimNode("central", RASPBERRY_PI_3B, fail_time=1e-6)
        sys_ = ADCNNSystem(vgg_workload(), make_cluster(2), central)
        sys_.run(2)
        with pytest.raises(ValueError, match="no finite completions"):
            sys_.makespan()


class TestAdaptivity:
    def test_throttle_shifts_allocation(self):
        """Figure 15: throttling nodes 5-8 moves tiles to nodes 1-4."""
        throttle_at = 3.0
        schedules = [CpuSchedule()] * 4 + [CpuSchedule(((throttle_at, 0.45),))] * 2 + [
            CpuSchedule(((throttle_at, 0.24),))
        ] * 2
        sys_ = ADCNNSystem(
            vgg_workload(),
            make_cluster(8, schedules=schedules),
            SimNode("c", RASPBERRY_PI_3B),
            config=ADCNNConfig(pipeline_depth=1),
        )
        recs = sys_.run(40)
        first, last = recs[0], recs[-1]
        np.testing.assert_array_equal(first.allocation, np.full(8, 8))
        assert last.allocation[:4].min() > 8  # fast nodes picked up slack
        assert last.allocation[4:6].max() < 8
        assert last.allocation[6:].max() < last.allocation[4:6].min() + 1
        assert last.allocation.sum() == 64

    def test_latency_jumps_then_recovers(self):
        """Figure 15(b): latency spikes at degradation, then adaptation
        pulls it back below the spike (241 -> 392 -> 351 ms shape)."""
        throttle_at = 3.0
        schedules = [CpuSchedule()] * 4 + [CpuSchedule(((throttle_at, 0.45),))] * 2 + [
            CpuSchedule(((throttle_at, 0.24),))
        ] * 2
        sys_ = ADCNNSystem(
            vgg_workload(),
            make_cluster(8, schedules=schedules),
            SimNode("c", RASPBERRY_PI_3B),
            config=ADCNNConfig(pipeline_depth=1),
        )
        recs = sys_.run(40)
        lat = np.array([r.latency for r in recs])
        before = lat[1:5].mean()
        spike = lat.max()
        settled = lat[-5:].mean()
        assert spike > before * 1.2
        assert before < settled < spike

    def test_failed_node_tiles_rerouted(self):
        """§6.3: a dead node's s_k decays and it stops receiving tiles."""
        sys_ = ADCNNSystem(
            vgg_workload(),
            make_cluster(4, fail_times=[None, None, None, 1.0]),
            SimNode("c", RASPBERRY_PI_3B),
            config=ADCNNConfig(pipeline_depth=1),
        )
        recs = sys_.run(25)
        assert recs[-1].allocation[3] == 0
        assert recs[-1].allocation.sum() == 64
        assert recs[-1].zero_filled_tiles == 0
        # Early post-failure images lost that node's tiles to zero-fill.
        assert any(r.zero_filled_tiles > 0 for r in recs)

    def test_deadline_zero_fills(self):
        """A node throttled to ~0 forces the deadline path."""
        schedules = [CpuSchedule(), CpuSchedule(((0.0, 1e-6),))]
        sys_ = ADCNNSystem(
            vgg_workload(),
            make_cluster(2, schedules=schedules),
            SimNode("c", RASPBERRY_PI_3B),
            config=ADCNNConfig(pipeline_depth=1),
        )
        recs = sys_.run(3)
        assert recs[0].zero_filled_tiles > 0
        assert math.isfinite(recs[0].completion)

    def test_heterogeneous_rates_respected(self):
        """§7.3: a node twice as fast converges to ~2x the tiles."""
        nodes = [
            SimNode("fast", RASPBERRY_PI_3B.scaled(2.0)),
            SimNode("slow", RASPBERRY_PI_3B),
        ]
        sys_ = ADCNNSystem(
            vgg_workload(),
            nodes,
            SimNode("c", RASPBERRY_PI_3B),
            config=ADCNNConfig(pipeline_depth=1),
        )
        recs = sys_.run(30)
        ratio = recs[-1].allocation[0] / recs[-1].allocation[1]
        assert 1.5 < ratio < 2.6


class TestFaultSupervision:
    """Opt-in supervision in the DES backend (mirrors the process backend)."""

    def test_redispatch_keeps_zero_fill_at_zero(self):
        """With re-dispatch on, a dead node's bounced batches go to the
        survivors and no image loses tiles — unlike the default zero-fill
        story asserted in test_failed_node_tiles_rerouted."""
        sys_ = ADCNNSystem(
            vgg_workload(),
            make_cluster(4, fail_times=[None, None, None, 1.0]),
            SimNode("c", RASPBERRY_PI_3B),
            config=ADCNNConfig(pipeline_depth=1, redispatch=True),
        )
        recs = sys_.run(25)
        assert all(r.zero_filled_tiles == 0 for r in recs)
        assert all(r.received.sum() == 64 for r in recs)
        # Algorithm 2 still learns the death: the corpse ends with nothing.
        assert recs[-1].allocation[3] == 0
        assert recs[-1].allocation.sum() == 64

    def test_recovered_node_regains_share_via_probe(self):
        """Fail-stop then revive: the EWMA alone would pin the revived
        node's s_k at ~0 forever; a recovery probe lets it re-earn share."""
        sys_ = ADCNNSystem(
            vgg_workload(),
            make_cluster(
                4,
                fail_times=[None, None, None, 1.0],
                recover_times=[None, None, None, 5.0],
            ),
            SimNode("c", RASPBERRY_PI_3B),
            config=ADCNNConfig(pipeline_depth=1, redispatch=True, probe_interval=3),
        )
        recs = sys_.run(60)
        # The node really was routed around while dead...
        assert any(r.allocation[3] == 0 for r in recs)
        # ...and earned its way back after reviving.
        assert recs[-1].allocation[3] > 0
        assert recs[-1].zero_filled_tiles == 0
        assert all(r.zero_filled_tiles == 0 for r in recs)

    def test_no_probes_while_node_still_dead(self):
        """Probes only target *alive* nodes: without recovery the decayed
        node never gets another tile."""
        sys_ = ADCNNSystem(
            vgg_workload(),
            make_cluster(4, fail_times=[None, None, None, 1.0]),
            SimNode("c", RASPBERRY_PI_3B),
            config=ADCNNConfig(pipeline_depth=1, redispatch=True, probe_interval=3),
        )
        recs = sys_.run(30)
        first = next((i for i, r in enumerate(recs) if r.allocation[3] == 0), None)
        assert first is not None  # s_3 decayed to zero at some point
        assert all(r.allocation[3] == 0 for r in recs[first:])  # and stayed there
