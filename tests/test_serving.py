"""Tests for the open-loop serving front-end (ISSUE 6 tentpole).

Covers the serving regime end to end: concurrent async sessions against a
real process cluster, bounded-queue backpressure (``Overloaded``), graceful
drain semantics, SLO accounting, and the DES mirror of the same open-loop
workload (saturation behavior at rates the process backend can't reach).
"""

import asyncio
import math
import threading
import time

import numpy as np
import pytest

import repro.serving.frontend as frontend_mod
from repro.models import get_spec, vgg_mini
from repro.nn import Tensor
from repro.partition import FDSPModel, TileGrid
from repro.profiling import RASPBERRY_PI_3B
from repro.runtime import (
    ADCNNSystem,
    ADCNNWorkload,
    ProcessClusterConfig,
    burst_arrival_times,
    poisson_arrival_times,
    uniform_arrival_times,
)
from repro.serving import (
    ClientStats,
    Overloaded,
    ServingConfig,
    ServingFrontEnd,
)
from repro.sharding import make_cluster_handle
from repro.simulator import SimNode, saturation_knee, saturation_point

RNG = np.random.default_rng(19)


def small_model():
    return vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()


def make_image():
    return RNG.normal(size=(1, 3, 24, 24)).astype(np.float32)


def make_frontend(serving=None, cluster_kw=None):
    serving = serving or ServingConfig()
    cfg = ProcessClusterConfig(num_workers=2, t_limit=30.0, **(cluster_kw or {}))
    handle = make_cluster_handle(small_model(), TileGrid(2, 2), config=cfg, window=serving.window)
    return ServingFrontEnd(handle, serving)


class TestServingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(window=0)
        with pytest.raises(ValueError):
            ServingConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            ServingConfig(slo_seconds=0.0)
        with pytest.raises(ValueError):
            ServingConfig(drain_timeout=-1.0)

    def test_started_cluster_rejected(self):
        """The front-end owns the handle's lifecycle end to end."""
        cfg = ProcessClusterConfig(num_workers=1)
        with make_cluster_handle(small_model(), TileGrid(2, 2), config=cfg) as handle:
            with pytest.raises(RuntimeError, match="already started"):
                ServingFrontEnd(handle).start()


class TestConcurrentSessions:
    def test_two_async_clients_steady_state(self):
        """Concurrent sessions all resolve with correct outputs (tentpole e2e)."""
        model = small_model()
        reference = FDSPModel(model, TileGrid(2, 2))
        reference.eval()
        cluster = make_cluster_handle(
            model, TileGrid(2, 2), config=ProcessClusterConfig(num_workers=2, t_limit=30.0)
        )
        images = [make_image() for _ in range(6)]

        async def drive():
            with ServingFrontEnd(cluster, ServingConfig(queue_capacity=8)) as fe:
                sessions = [fe.session(f"client-{i % 2}") for i in range(len(images))]
                results = await asyncio.gather(
                    *(s.submit(img) for s, img in zip(sessions, images))
                )
                stats = [fe.client_stats(f"client-{i}") for i in range(2)]
            return results, stats

        results, stats = asyncio.run(drive())
        for img, res in zip(images, results):
            np.testing.assert_allclose(
                res.outcome.output, reference(Tensor(img)).data, atol=1e-5
            )
            assert res.latency_s >= res.queue_wait_s >= 0.0
        assert sum(st.completed for st in stats) == len(images)
        assert all(st.shed == 0 for st in stats)

    def test_per_client_accounting_isolated(self):
        with make_frontend() as fe:
            fe.submit(make_image(), client="a").result(timeout=30.0)
            fe.submit(make_image(), client="a").result(timeout=30.0)
            fe.submit(make_image(), client="b").result(timeout=30.0)
            a, b = fe.client_stats("a"), fe.client_stats("b")
        assert (a.submitted, a.completed) == (2, 2)
        assert (b.submitted, b.completed) == (1, 1)
        assert len(a.latencies_s) == 2
        assert math.isfinite(a.latency_quantile(0.5))
        # Unknown clients read as empty stats, not KeyError.
        assert fe.client_stats("nobody") == ClientStats()
        assert math.isnan(ClientStats().latency_quantile(0.5))

    def test_slo_accounting(self):
        """An unmeetable SLO counts misses; a generous one counts none."""
        with make_frontend(ServingConfig(slo_seconds=1e-9)) as fe:
            res = fe.submit(make_image(), client="tight").result(timeout=30.0)
            assert res.slo_miss
            assert fe.client_stats("tight").slo_misses == 1
        with make_frontend(ServingConfig(slo_seconds=60.0)) as fe:
            res = fe.submit(make_image(), client="loose").result(timeout=30.0)
            assert not res.slo_miss
            assert fe.client_stats("loose").slo_misses == 0


class TestBackpressure:
    def test_queue_full_sheds_with_overloaded(self):
        """Admission beyond window+queue is rejected, never blocked (ISSUE 6)."""
        serving = ServingConfig(window=1, queue_capacity=1)
        cluster_kw = {"delay_per_tile": (0.05, 0.05)}
        admitted, shed = [], 0
        with make_frontend(serving, cluster_kw) as fe:
            for _ in range(10):
                try:
                    admitted.append(fe.submit(make_image()))
                except Overloaded as exc:
                    assert exc.reason == "queue_full"
                    assert exc.capacity == 1
                    shed += 1
            results = [f.result(timeout=60.0) for f in admitted]
        assert shed > 0, "flooding a capacity-1 queue must shed"
        assert len(results) == len(admitted)  # everything admitted completed
        assert fe.client_stats().shed == shed

    def test_submit_is_nonblocking_under_overload(self):
        """submit() returns (or sheds) immediately even with a full pipeline."""
        serving = ServingConfig(window=1, queue_capacity=1)
        cluster_kw = {"delay_per_tile": (0.05, 0.05)}
        with make_frontend(serving, cluster_kw) as fe:
            futures = []
            t0 = time.perf_counter()
            for _ in range(8):
                try:
                    futures.append(fe.submit(make_image()))
                except Overloaded:
                    pass
            elapsed = time.perf_counter() - t0
            for f in futures:
                f.result(timeout=60.0)
        # 8 submits against a ~200 ms/image pipeline: anything near one
        # service time means submit blocked on capacity.
        assert elapsed < 0.1, f"submit path blocked for {elapsed:.3f}s"

    def test_wrong_shape_rejected_at_submit(self):
        """Shape errors surface synchronously as ValueError, not Overloaded."""
        with make_frontend() as fe:
            with pytest.raises(ValueError, match="does not match model input shape"):
                fe.submit(np.zeros((1, 3, 7, 7), dtype=np.float32))
            with pytest.raises(ValueError):
                fe.submit(np.zeros((24, 24), dtype=np.float32))
            # and a valid one still goes through afterwards
            fe.submit(make_image()).result(timeout=30.0)


class TestGracefulDrain:
    def test_drain_completes_all_admitted(self):
        """stop() finishes queued + in-flight work before cluster teardown."""
        serving = ServingConfig(window=2, queue_capacity=8)
        cluster_kw = {"delay_per_tile": (0.02, 0.02)}
        fe = make_frontend(serving, cluster_kw)
        fe.start()
        futures = [fe.submit(make_image()) for _ in range(6)]
        fe.stop()  # immediately: most images still queued or in flight
        for f in futures:
            res = f.result(timeout=0.0)  # already resolved by the drain
            assert res.outcome.output.shape == (1, 3)
        assert fe.client_stats().completed == 6

    def test_submit_after_stop_sheds_as_draining(self):
        fe = make_frontend()
        fe.start()
        fe.submit(make_image()).result(timeout=30.0)
        fe.stop()
        with pytest.raises(Overloaded) as exc_info:
            fe.submit(make_image())
        assert exc_info.value.reason == "draining"

    def test_stop_twice_is_safe(self):
        fe = make_frontend()
        fe.start()
        fe.stop()
        fe.stop()

    def test_submit_and_stop_wake_the_parked_driver(self, monkeypatch):
        """The idle driver is woken, never polled for: with its safety-net
        timeout stretched to 30 s, submissions still dispatch and stop()
        still returns, with every admitted future resolved and the queue
        accounting exact."""
        monkeypatch.setattr(frontend_mod, "_IDLE_WAIT_S", 30.0)
        fe = make_frontend()
        fe.start()
        futures = []
        try:
            for _ in range(3):  # each submit finds the driver idle (or about to be)
                futures.append(fe.submit(make_image()))
                assert futures[-1].result(timeout=15.0).outcome.output.shape == (1, 3)
            assert fe.queue_depth == 0
        finally:
            stopper = threading.Thread(target=fe.stop)
            stopper.start()
            stopper.join(timeout=15.0)
        assert not stopper.is_alive()
        assert all(f.done() for f in futures)
        status = fe.status()
        assert (status.submitted, status.completed, status.shed) == (3, 3, 0)
        assert status.queue_depth == 0


class TestOpenLoopDES:
    """The DES mirror of the serving workload (ISSUE 6: saturation curves)."""

    @staticmethod
    def make_system():
        wl = ADCNNWorkload.from_spec(
            get_spec("vgg16"), num_tiles=64, separable_prefix=13, compression_ratio=0.032
        )
        nodes = [SimNode(f"n{i}", RASPBERRY_PI_3B) for i in range(8)]
        return ADCNNSystem(wl, nodes, SimNode("central", RASPBERRY_PI_3B))

    def test_below_knee_completes_everything(self):
        rng = np.random.default_rng(3)
        res = self.make_system().run_open_loop(
            poisson_arrival_times(1.0, 30, rng), queue_capacity=8
        )
        assert res.completed == res.offered == 30
        assert res.shed == 0 and res.shed_fraction == 0.0
        assert 0.5 < res.throughput <= 1.5
        # Sojourn includes queue wait and is never below the service latency.
        for rec in res.records:
            assert rec.sojourn >= rec.latency - 1e-9
            assert rec.queue_wait >= 0.0

    def test_saturation_throughput_plateau_and_latency_blowup(self):
        """Past the knee: throughput plateaus, p99 blows up, shedding starts."""
        rng = np.random.default_rng(5)
        points = []
        for rate in (1.0, 6.0, 18.0):
            res = self.make_system().run_open_loop(
                poisson_arrival_times(rate, 60, rng), queue_capacity=8
            )
            points.append(saturation_point(rate, res))
        low, mid, high = points
        assert low.goodput_ratio > 0.85
        assert saturation_knee(points) is not None
        assert high.throughput_hz < high.offered_rate_hz * 0.5  # plateau
        assert high.throughput_hz <= mid.throughput_hz * 1.25  # no scaling past knee
        assert high.p99_sojourn_s > 3.0 * low.p99_sojourn_s  # tail blow-up
        assert high.shed_fraction > 0.0

    def test_unbounded_queue_never_sheds(self):
        rng = np.random.default_rng(9)
        res = self.make_system().run_open_loop(poisson_arrival_times(50.0, 40, rng))
        assert res.shed == 0
        assert res.completed == 40

    def test_closed_loop_run_unchanged(self):
        """run() still returns plain records with NaN arrivals (no API break)."""
        records = self.make_system().run(4)
        assert len(records) == 4
        for rec in records:
            assert math.isnan(rec.arrival_time)
            assert math.isfinite(rec.latency)
            assert rec.sojourn == rec.latency  # falls back for closed loop

    def test_arrival_validation(self):
        sys_ = self.make_system()
        with pytest.raises(ValueError, match="at least one arrival"):
            sys_.run_open_loop([])
        with pytest.raises(ValueError, match="sorted"):
            sys_.run_open_loop([2.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            sys_.run_open_loop([0.0, math.inf])
        with pytest.raises(ValueError, match="queue_capacity"):
            sys_.run_open_loop([0.0, 1.0], queue_capacity=0)


class TestArrivalGenerators:
    def test_poisson_rate_and_monotonicity(self):
        rng = np.random.default_rng(11)
        times = poisson_arrival_times(20.0, 4000, rng)
        assert times.shape == (4000,)
        assert np.all(np.diff(times) >= 0)
        # Mean rate within 10% of nominal at this sample size.
        assert times[-1] == pytest.approx(4000 / 20.0, rel=0.1)

    def test_uniform_spacing(self):
        times = uniform_arrival_times(4.0, 8)
        np.testing.assert_allclose(np.diff(times), 0.25)
        assert times[0] == pytest.approx(0.25)

    def test_burst_phases(self):
        rng = np.random.default_rng(13)
        times = burst_arrival_times(5.0, 200.0, 1.0, 0.5, rng)
        assert np.all(np.diff(times) >= 0)
        in_burst = np.sum((times >= 1.0) & (times < 1.5))
        in_base = np.sum(times < 1.0)
        assert in_burst > 3 * max(in_base, 1)  # burst phase dominates

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrival_times(0.0, 5, rng)
        with pytest.raises(ValueError):
            poisson_arrival_times(1.0, 0, rng)
        with pytest.raises(ValueError):
            uniform_arrival_times(-1.0, 5)
        with pytest.raises(ValueError):
            burst_arrival_times(1.0, 2.0, 1.0, 0.0, rng)
