"""Hierarchical multi-cluster sharding (DESIGN.md §5k).

Covers the whole tier: routing policies as pure functions, arrival-stream
splitting, the :class:`ClusterHandle` seam (lifecycle, kill poisoning,
restart), :class:`ClusterRouter` supervision (mark-down, re-route, typed
failure, probe revival), the router-backed :class:`ServingFrontEnd`
failover contract (every admitted image resolves — result or
``ClusterFailed`` — never a hang, in both backends), trace completeness
across re-routes, and the declarative spec / deployment API.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.models import get_spec, vgg_mini
from repro.nn import Tensor
from repro.partition import FDSPModel, TileGrid
from repro.profiling import RASPBERRY_PI_3B
from repro.runtime import (
    ADCNNDeployment,
    ADCNNSystem,
    ADCNNWorkload,
    ProcessClusterConfig,
    poisson_arrival_times,
)
from repro.runtime.arrivals import split
from repro.serving import ClusterFailed, Overloaded, ServingConfig, ServingFrontEnd
from repro.sharding import (
    ClusterDown,
    ClusterRouter,
    RouterConfig,
    RoutingRequest,
    STATE_DOWN,
    STATE_PROBATION,
    STATE_UP,
    ShardedDeploymentSpec,
    ShardedSystem,
    ShardFailure,
    ShardSpec,
    available_routing_policies,
    build_router,
    get_routing_policy,
    make_cluster_handle,
    register_routing_policy,
    resolve_routing_policy,
)
from repro.sharding.policies import (
    affinity,
    least_outstanding,
    round_robin,
    weighted_by_health,
)
from repro.simulator import SimNode
from repro.telemetry import LabeledRecorder, TelemetryRecorder
from repro.telemetry.trace import assemble_traces

RNG = np.random.default_rng(23)


def small_model():
    return vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval()


def make_image():
    return RNG.normal(size=(1, 3, 24, 24)).astype(np.float32)


def two_shard_spec(**overrides):
    kwargs = dict(policy="round_robin", mark_down_after=1, max_restarts=0)
    kwargs.update(overrides)
    return ShardedDeploymentSpec.homogeneous(2, num_workers=1, **kwargs)


def pump_until(router, want, timeout=90.0):
    """Pump the router until ``want`` outcomes arrive (or fail the test)."""
    done = []
    deadline = time.monotonic() + timeout
    while len(done) < want:
        assert time.monotonic() < deadline, f"only {len(done)}/{want} outcomes"
        done.extend(router.pump())
    return done


# ================================================================= policies
def request(candidates, outstanding, weights=None, health=None, **kw):
    n = len(outstanding)
    return RoutingRequest(
        candidates=tuple(candidates),
        names=tuple(f"s{i}" for i in range(n)),
        outstanding=tuple(outstanding),
        weights=tuple(weights or [1.0] * n),
        health=tuple(health or [None] * n),
        **kw,
    )


class TestRoutingPolicies:
    def test_registry(self):
        names = available_routing_policies()
        for name in ("round_robin", "least_outstanding", "weighted_by_health", "affinity"):
            assert name in names
            assert callable(get_routing_policy(name))
        assert resolve_routing_policy("round_robin") is round_robin
        assert resolve_routing_policy(least_outstanding) is least_outstanding
        with pytest.raises(KeyError, match="unknown routing policy"):
            get_routing_policy("nope")
        with pytest.raises(ValueError, match="already registered"):
            register_routing_policy("round_robin")(lambda r: 0)

    def test_round_robin_cycles(self):
        picks = [
            round_robin(request([0, 1, 2], [0, 0, 0], sequence=s)) for s in range(6)
        ]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_skips_missing_candidates(self):
        picks = [round_robin(request([0, 2], [0, 0, 0], sequence=s)) for s in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_least_outstanding(self):
        assert least_outstanding(request([0, 1, 2], [3, 1, 2])) == 1
        # Ties break toward the lowest index, deterministically.
        assert least_outstanding(request([0, 1, 2], [2, 2, 2])) == 0

    def test_weighted_by_health_prefers_capacity_and_idleness(self):
        # Double weight wins when load and health are equal.
        assert weighted_by_health(request([0, 1], [0, 0], weights=[1.0, 2.0])) == 1
        # Outstanding load discounts the score.
        assert weighted_by_health(request([0, 1], [0, 3], weights=[1.0, 2.0])) == 0
        # Equal everything: lowest index.
        assert weighted_by_health(request([0, 1], [1, 1])) == 0

    def test_affinity_sticky_and_fallback(self):
        req = request([0, 1, 2], [9, 9, 9], client="cam-a", model="vgg")
        home = affinity(req)
        # Stable across calls and across load changes.
        assert affinity(request([0, 1, 2], [0, 5, 0], client="cam-a", model="vgg")) == home
        # Home not a candidate: degrade to least_outstanding among the rest.
        others = [c for c in (0, 1, 2) if c != home]
        fallback = affinity(request(others, [1, 1, 1], client="cam-a", model="vgg"))
        assert fallback in others

    def test_request_validation(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            request([], [0, 0])
        with pytest.raises(ValueError, match="out of range"):
            request([5], [0, 0])
        with pytest.raises(ValueError, match="equal length"):
            RoutingRequest(
                candidates=(0,), names=("a", "b"), outstanding=(0,),
                weights=(1.0, 1.0), health=(None, None),
            )


# ============================================================ arrivals.split
class TestArrivalSplit:
    def test_round_robin_partition(self):
        times = np.arange(10, dtype=float)
        subs = split(times, 3)
        assert [s.tolist() for s in subs] == [
            [0.0, 3.0, 6.0, 9.0], [1.0, 4.0, 7.0], [2.0, 5.0, 8.0],
        ]

    def test_seeded_split_partitions_exactly(self):
        rng = np.random.default_rng(7)
        times = poisson_arrival_times(20.0, 500, rng)
        subs = split(times, 4, seed=11)
        merged = np.sort(np.concatenate(subs))
        np.testing.assert_array_equal(merged, times)
        for s in subs:
            assert np.all(np.diff(s) >= 0)  # order within each substream kept
        # Reproducible under the same seed, different under another.
        again = split(times, 4, seed=11)
        for a, b in zip(subs, again):
            np.testing.assert_array_equal(a, b)
        other = split(times, 4, seed=12)
        assert any(a.size != b.size or not np.array_equal(a, b)
                   for a, b in zip(subs, other))

    def test_identity_and_validation(self):
        times = np.array([0.5, 1.5])
        np.testing.assert_array_equal(split(times, 1)[0], times)
        with pytest.raises(ValueError, match="at least one"):
            split(times, 0)
        with pytest.raises(ValueError):
            split(np.zeros((2, 2)), 2)


# ============================================================ LabeledRecorder
class TestLabeledRecorder:
    def test_labels_and_node_prefix(self):
        base = TelemetryRecorder()
        tel = LabeledRecorder(base, cluster="shard3")
        tel.record(0.0, "cluster_down", cluster_name="x")
        tel.span("tile_compute", 0.0, 1.0, node="worker0", image_id=1)
        tel.count("adcnn_router_dispatch_total", node="worker1")
        assert base.events[0]["cluster"] == "shard3"
        assert base.events[1]["node"] == "shard3/worker0"
        counter = base.metrics.counter(
            "adcnn_router_dispatch_total", node="shard3/worker1", cluster="shard3"
        )
        assert counter.value == 1.0

    def test_fixed_labels_win_and_extras_delegate(self):
        base = TelemetryRecorder()
        tel = LabeledRecorder(base, cluster="a")
        tel.record(0.0, "probe_success", cluster="call-site")
        assert base.events[0]["cluster"] == "a"
        assert tel.enabled
        assert tel.of_kind("probe_success")  # duck-typed passthrough
        assert tel.inner is base


# ================================================================== handles
class TestProcessClusterHandle:
    def test_factory_lifecycle_and_inference(self):
        model = small_model()
        reference = FDSPModel(model, TileGrid(2, 2))
        reference.eval()
        handle = make_cluster_handle(
            model, TileGrid(2, 2),
            config=ProcessClusterConfig(num_workers=1, t_limit=30.0),
            name="h0", window=2,
        )
        assert not handle.alive()
        img = make_image()
        with handle:
            assert handle.alive() and handle.can_dispatch
            handle.dispatch(img)
            (image_id, outcome), = pump_until(handle, 1)
            np.testing.assert_allclose(
                outcome.output, reference(Tensor(img)).data, atol=1e-5
            )
        assert not handle.alive()

    def test_dispatch_before_start_raises(self):
        handle = make_cluster_handle(
            small_model(), TileGrid(2, 2),
            config=ProcessClusterConfig(num_workers=1),
        )
        with pytest.raises(ClusterDown, match="not started"):
            handle.dispatch(make_image())

    def test_kill_poisons_handle(self):
        handle = make_cluster_handle(
            small_model(), TileGrid(2, 2),
            config=ProcessClusterConfig(num_workers=1, t_limit=5.0),
        )
        with handle:
            handle.kill()
            assert not handle.alive()
            assert handle.terminal
            with pytest.raises(ClusterDown):
                handle.dispatch(make_image())
            with pytest.raises(ClusterDown):
                handle.pump()
            assert handle.wait_set() == []

    def test_restart_builds_fresh_incarnation(self):
        handle = make_cluster_handle(
            small_model(), TileGrid(2, 2),
            config=ProcessClusterConfig(num_workers=1, t_limit=30.0),
        )
        try:
            handle.start()
            handle.kill()
            handle.restart()
            assert handle.alive() and handle.restarts == 1
            handle.dispatch(make_image())
            (_, outcome), = pump_until(handle, 1)
            assert outcome.output is not None
        finally:
            handle.stop()


# =================================================================== router
class TestClusterRouter:
    def test_config_validation(self):
        with pytest.raises(KeyError, match="unknown routing policy"):
            RouterConfig(policy="bogus")
        with pytest.raises(ValueError):
            RouterConfig(mark_down_after=0)
        with pytest.raises(ValueError):
            RouterConfig(max_reroutes=-1)

    def test_duplicate_shard_names_rejected(self):
        mk = lambda: make_cluster_handle(  # noqa: E731
            small_model(), TileGrid(2, 2),
            config=ProcessClusterConfig(num_workers=1), name="dup",
        )
        with pytest.raises(ValueError, match="unique"):
            ClusterRouter([mk(), mk()])

    def test_fans_out_and_completes(self):
        model = small_model()
        reference = FDSPModel(model, TileGrid(2, 2))
        reference.eval()
        router = build_router(model, TileGrid(2, 2), two_shard_spec())
        images = [make_image() for _ in range(4)]
        with router:
            ids = [router.dispatch(img) for img in images]
            assert len(set(ids)) == 4  # globally unique across shards
            done = dict(pump_until(router, 4))
            for rid, img in zip(ids, images):
                np.testing.assert_allclose(
                    done[rid].output, reference(Tensor(img)).data, atol=1e-5
                )
            health = router.health()
            assert health.routable_shards == 2
            assert health.images_dispatched >= 4
            # round_robin with both shards up spreads work across both.
            states = router.cluster_states()
            assert set(states) == {"shard0", "shard1"}

    def test_failover_reroutes_in_flight(self):
        """Kill one shard with images in flight: siblings finish the work."""
        model = small_model()
        reference = FDSPModel(model, TileGrid(2, 2))
        reference.eval()
        router = build_router(model, TileGrid(2, 2), two_shard_spec())
        images = [make_image() for _ in range(6)]
        with router:
            ids = [router.dispatch(img) for img in images]
            router._handles[0].kill()
            done = dict(pump_until(router, 6))
            assert set(done) == set(ids)
            for rid, img in zip(ids, images):
                outcome = done[rid]
                assert not isinstance(outcome, ShardFailure)
                np.testing.assert_allclose(
                    outcome.output, reference(Tensor(img)).data, atol=1e-5
                )
            states = router.cluster_states()
            assert states["shard0"] == STATE_DOWN
            assert states["shard1"] == STATE_UP
            health = router.health()
            assert not health.healthy
            assert health.routable_shards == 1

    def test_total_outage_fails_typed_never_hangs(self):
        router = build_router(small_model(), TileGrid(2, 2), two_shard_spec())
        with router:
            ids = [router.dispatch(make_image()) for _ in range(3)]
            for handle in router._handles:
                handle.kill()
            done = dict(pump_until(router, 3))
            assert set(done) == set(ids)
            for outcome in done.values():
                assert isinstance(outcome, ShardFailure)
                exc = outcome.to_exception()
                assert isinstance(exc, ClusterFailed)
            assert router.terminal

    def test_restart_and_probe_revival(self):
        """A killed shard restarts after backoff, passes probation, and
        serves again (the full down -> restarting -> probation -> up arc)."""
        spec = two_shard_spec(
            max_restarts=1, mark_down_after=3, restart_backoff=0.05,
        )
        router = build_router(small_model(), TileGrid(2, 2), spec)
        with router:
            rid = router.dispatch(make_image())
            router._handles[0].kill()
            done = dict(pump_until(router, 1))
            assert rid in done and not isinstance(done[rid], ShardFailure)
            # Pump until supervision rebuilds shard0 into probation.
            deadline = time.monotonic() + 90.0
            while router.cluster_states()["shard0"] not in (STATE_UP, STATE_PROBATION):
                assert time.monotonic() < deadline, router.cluster_states()
                leftovers = router.pump(block=False)
                assert all(not isinstance(o, ShardFailure) for _, o in leftovers)
                time.sleep(0.02)
            # The next dispatched image is the probe; its completion
            # promotes the shard back to up.
            rid2 = router.dispatch(make_image())
            done2 = dict(pump_until(router, 1))
            assert rid2 in done2 and not isinstance(done2[rid2], ShardFailure)
            assert router.cluster_states()["shard0"] == STATE_UP
            assert router._handles[0].restarts == 1

    def test_trace_tree_complete_after_reroute(self):
        """Failover preserves exactly one complete trace tree per image."""
        tel = TelemetryRecorder()
        router = build_router(
            small_model(), TileGrid(2, 2), two_shard_spec(), telemetry=tel
        )
        with router:
            ids = [router.dispatch(make_image()) for _ in range(4)]
            router._handles[0].kill()
            done = dict(pump_until(router, 4))
            assert all(not isinstance(o, ShardFailure) for o in done.values())
        trees = assemble_traces(tel.events)
        complete = [t for t in trees.values() if t.complete]
        assert len(complete) == len(ids)


# ================================================================ idle wait
class TestRouterIdleWait:
    def test_task_frames_larger_than_the_pipe_never_wait_for_poll_interval(self, monkeypatch):
        """With default-sized pipes, a task frame larger than the pipe
        crosses in pieces, each needing room the worker makes by reading.
        The router's idle wait must wake for that room as it does for a
        result, so no image waits for ``poll_interval`` (5 s here)."""
        monkeypatch.setattr("repro.runtime.transport._size_pipe", lambda fd, nbytes: None)
        model = vgg_mini(num_classes=3, input_size=128, base_width=6, separable_prefix=2).eval()
        images = [RNG.normal(size=(1, 3, 128, 128)).astype(np.float32) for _ in range(4)]
        assert images[0].nbytes > 1 << 16  # one worker per shard: the task is the whole image
        router = build_router(model, TileGrid(2, 2), two_shard_spec(poll_interval=5.0))
        with router:
            for img in images:
                t0 = time.monotonic()
                router.dispatch(img)
                (outcome,) = [o for _, o in pump_until(router, 1, timeout=30.0)]
                assert time.monotonic() - t0 < 1.0
                assert outcome.zero_filled_tiles == []
            assert [s.cluster.images_dispatched for s in router.health().shards] == [2, 2]


# ===================================================== frontend failover (§5k)
class TestServingFailover:
    def test_process_backend_kill_one_shard(self):
        """Every admitted image resolves after a shard dies: re-routed result
        or typed ClusterFailed, never a hang; drain stays graceful."""
        model = small_model()
        reference = FDSPModel(model, TileGrid(2, 2))
        reference.eval()
        router = build_router(model, TileGrid(2, 2), two_shard_spec())
        images = [make_image() for _ in range(8)]
        with ServingFrontEnd(
            router, ServingConfig(window=4, queue_capacity=16)
        ) as fe:
            warm = [fe.submit(img) for img in images[:2]]
            for fut, img in zip(warm, images[:2]):
                np.testing.assert_allclose(
                    fut.result(timeout=90).outcome.output,
                    reference(Tensor(img)).data, atol=1e-5,
                )
            futures = [fe.submit(img) for img in images[2:]]
            router._handles[0].kill()
            outcomes = []
            for fut, img in zip(futures, images[2:]):
                try:
                    res = fut.result(timeout=90)
                except ClusterFailed:
                    outcomes.append("failed")
                    continue
                np.testing.assert_allclose(
                    res.outcome.output, reference(Tensor(img)).data, atol=1e-5
                )
                outcomes.append("ok")
            # With a healthy sibling, everything re-routes.
            assert outcomes == ["ok"] * len(outcomes)
            status = fe.status()
            assert status.completed == len(images)
            assert status.failed == 0
            health = fe.health()
            assert {s.name: s.state for s in health.shards}["shard0"] == STATE_DOWN
        # Graceful drain with a dead shard: stop() already returned, cleanly.

    def test_process_backend_total_outage_resolves_typed(self):
        # Slow workers: a 7 ms image could finish before the kills landed,
        # leaving the typed-failure assertion below nothing to catch.
        slow = ProcessClusterConfig(num_workers=1, delay_per_tile=(0.25,))
        spec = two_shard_spec()
        spec = replace(spec, shards=tuple(replace(s, config=slow) for s in spec.shards))
        router = build_router(small_model(), TileGrid(2, 2), spec)
        with ServingFrontEnd(
            router, ServingConfig(window=4, queue_capacity=16, drain_timeout=15.0)
        ) as fe:
            futures = [fe.submit(make_image()) for _ in range(4)]
            for handle in router._handles:
                handle.kill()
            kinds = set()
            for fut in futures:
                with pytest.raises((ClusterFailed, Overloaded)) as err:
                    fut.result(timeout=90)
                kinds.add(type(err.value).__name__)
            assert kinds  # every future resolved, typed
            stats = fe.client_stats()
            assert stats.submitted == 4
            assert stats.completed == 0

    def test_single_cluster_handle_kill_fails_typed(self):
        """The adopted single-cluster path inherits the same contract: a
        poisoned handle fails pending work typed instead of hanging."""
        handle = make_cluster_handle(
            small_model(), TileGrid(2, 2),
            config=ProcessClusterConfig(num_workers=1, t_limit=30.0),
            name="solo",
        )
        with ServingFrontEnd(
            handle, ServingConfig(window=2, queue_capacity=8, drain_timeout=10.0)
        ) as fe:
            fut = fe.submit(make_image())
            fut.result(timeout=90)  # warm: the handle serves normally
            futures = [fe.submit(make_image()) for _ in range(3)]
            handle.kill()
            for fut in futures:
                with pytest.raises((ClusterFailed, Overloaded)):
                    fut.result(timeout=90)

    def test_des_backend_sharded_open_loop(self):
        """DES face of the same contract: islands absorb a dying node and the
        aggregate admission ledger still balances exactly."""
        def island(i):
            wl = ADCNNWorkload.from_spec(
                get_spec("vgg16"), num_tiles=16, separable_prefix=13,
                compression_ratio=0.032,
            )
            nodes = [
                SimNode(f"i{i}n{k}", RASPBERRY_PI_3B,
                        fail_time=5.0 if (i == 0 and k == 0) else None)
                for k in range(4)
            ]
            return ADCNNSystem(wl, nodes, SimNode(f"i{i}c", RASPBERRY_PI_3B))

        sharded = ShardedSystem(island, 2)
        rng = np.random.default_rng(3)
        res = sharded.run_open_loop(
            poisson_arrival_times(2.0, 40, rng), queue_capacity=8
        )
        assert res.offered == 40
        assert res.offered == res.completed + res.failed + res.shed
        assert res.horizon > 0 and res.throughput > 0
        assert math.isfinite(res.sojourn_quantile(0.5))


# ============================================================= DES sharding
class TestShardedSystem:
    @staticmethod
    def island(_i):
        wl = ADCNNWorkload.from_spec(
            get_spec("vgg16"), num_tiles=64, separable_prefix=13,
            compression_ratio=0.032,
        )
        nodes = [SimNode(f"n{k}", RASPBERRY_PI_3B) for k in range(8)]
        return ADCNNSystem(wl, nodes, SimNode("central", RASPBERRY_PI_3B))

    def test_aggregate_matches_islands(self):
        rng = np.random.default_rng(5)
        times = poisson_arrival_times(4.0, 60, rng)
        sharded = ShardedSystem(self.island, 3, split_seed=2)
        res = sharded.run_open_loop(times, queue_capacity=8)
        live = [r for r in res.per_cluster if r is not None]
        assert res.offered == sum(r.offered for r in live) == 60
        assert res.completed == sum(r.completed for r in live)
        assert res.horizon == max(r.horizon for r in live)
        assert res.offered == res.completed + res.failed + res.shed
        pooled = res.sojourns()
        assert pooled.size == sum(r.sojourns().size for r in live)

    def test_more_islands_raise_saturated_throughput(self):
        """At a rate far past one island's knee, 2 islands complete more
        per sim-second (the quick version of bench_sharding's curve)."""
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        times_a = poisson_arrival_times(18.0, 80, rng_a)
        times_b = poisson_arrival_times(18.0, 80, rng_b)
        single = ShardedSystem(self.island, 1).run_open_loop(times_a, queue_capacity=8)
        double = ShardedSystem(self.island, 2).run_open_loop(times_b, queue_capacity=8)
        assert double.throughput > single.throughput * 1.5
        assert double.shed_fraction <= single.shed_fraction

    def test_empty_substream_skipped(self):
        sharded = ShardedSystem(self.island, 3)
        res = sharded.run_open_loop([0.0, 1.0])  # third island gets nothing
        assert res.per_cluster[2] is None
        assert res.offered == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="num_clusters"):
            ShardedSystem(self.island)
        with pytest.raises(ValueError, match="at least one island"):
            ShardedSystem([])
        with pytest.raises(ValueError, match="one name per island"):
            ShardedSystem(self.island, 2, names=("a",))


# ======================================================== spec & deployment
class TestSpecAndDeployment:
    def test_shard_spec_validation(self):
        with pytest.raises(ValueError, match="non-empty name"):
            ShardSpec("")
        with pytest.raises(ValueError, match="num_workers"):
            ShardSpec("s", num_workers=0)
        with pytest.raises(ValueError, match="weight"):
            ShardSpec("s", weight=0.0)

    def test_spec_validation_and_builders(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedDeploymentSpec(shards=())
        with pytest.raises(ValueError, match="unique"):
            ShardedDeploymentSpec(shards=(ShardSpec("a"), ShardSpec("a")))
        with pytest.raises(KeyError, match="unknown routing policy"):
            ShardedDeploymentSpec.homogeneous(2, policy="bogus")
        spec = ShardedDeploymentSpec.homogeneous(3, num_workers=1)
        assert [s.name for s in spec.shards] == ["shard0", "shard1", "shard2"]
        assert spec.weights == [1.0, 1.0, 1.0]
        assert spec.with_policy("round_robin").policy == "round_robin"
        override = ProcessClusterConfig(num_workers=4, t_limit=9.0)
        shard = ShardSpec("big", config=override)
        assert shard.cluster_config(t_limit=30.0) is override
        assert spec.shards[0].cluster_config(t_limit=12.5).t_limit == 12.5

    def test_serve_accepts_config_object(self):
        dep = ADCNNDeployment(small_model(), TileGrid(2, 2))
        cfg = dep.cluster_config(num_workers=1, t_limit=7.0)
        cluster = dep.serve(cfg)
        assert cluster.config is cfg
        assert dep.serve().config == dep.cluster_config()
        with pytest.raises(TypeError):  # the loose-kwargs form is gone
            dep.serve(num_workers=1, t_limit=3.0)

    def test_serve_sharded_end_to_end(self):
        dep = ADCNNDeployment(small_model(), TileGrid(2, 2))
        router = dep.serve_sharded(two_shard_spec())
        assert [h.name for h in router._handles] == ["shard0", "shard1"]
        img = make_image()
        expect = dep.infer_local(img)
        with ServingFrontEnd(router, ServingConfig(window=4)) as fe:
            result = fe.submit(img).result(timeout=90)
        np.testing.assert_allclose(result.outcome.output, expect, atol=1e-5)
