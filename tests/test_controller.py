"""The shared CentralController: differential backend conformance, the
allocation-policy registry, credit-mode algebra, and state-machine guards.

The headline test drives the *same* handcrafted event trace through two
controllers built by the two backends' real ``build_controller()`` factories
(DES profile vs process profile) and asserts the command streams and
decision journals are identical — the refactor's core claim that both
runtimes now make the same scheduling decisions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import vgg_mini
from repro.partition import TileGrid
from repro.profiling import RASPBERRY_PI_3B
from repro.runtime import (
    LOCAL_WORKER,
    ADCNNConfig,
    ADCNNSystem,
    ADCNNWorkload,
    CentralController,
    ControllerConfig,
    ProcessCluster,
    ProcessClusterConfig,
    SchedulingError,
    available_policies,
    get_policy,
    replay,
    resolve_policy,
)
from repro.runtime.controller import (
    ArmDeadline,
    BatchDelivered,
    DeadlineFired,
    ImageReady,
    MergeCompleted,
    Redispatch,
    ResultReceived,
    SendBatch,
    TriggerMerge,
    WorkerDied,
    WorkerRevived,
    arrival_span_credits,
    busy_span_credits,
)
from repro.runtime.policies import AllocationRequest, static_even
from repro.simulator import SimNode

ALIVE4 = (True, True, True, True)
TILES = 16


def neutral_workload() -> ADCNNWorkload:
    """Zero-cost workload: no nominal compute, no result bits, no storage
    pressure — so the DES deadline degenerates to ``dispatch_done + T_L``,
    exactly the process backend's."""
    return ADCNNWorkload(
        name="conformance",
        num_tiles=TILES,
        tile_input_bits=0.0,
        tile_output_bits=0.0,
        tile_macs=0.0,
        rest_macs=1.0,
    )


def des_controller() -> CentralController:
    system = ADCNNSystem(
        neutral_workload(),
        [SimNode(f"n{i}", RASPBERRY_PI_3B) for i in range(4)],
        SimNode("c", RASPBERRY_PI_3B),
        config=ADCNNConfig(
            t_limit=1.0, deadline_slack=1.0, redispatch=True, probe_interval=3
        ),
    )
    return system.build_controller()


def process_controller() -> CentralController:
    cluster = ProcessCluster(
        vgg_mini(num_classes=3, input_size=24, base_width=6, separable_prefix=2).eval(),
        TileGrid(2, 2),
        config=ProcessClusterConfig(
            num_workers=4, t_limit=1.0, redispatch=True, probe_interval=3
        ),
    )
    return cluster.build_controller()


def conformance_trace():
    """Three pipelined images exercising every controller phase: full
    completion, a deadline miss with a late straggler, a mid-image node
    death with re-dispatch, a revival, and a post-recovery dispatch.
    Image 0's results land as one multi-tile result per node (the process
    backend's batch), image 1's partial node as a 2-tile result, the rest
    one tile at a time (the DES).

    ``compute_finish=99.0`` / ``busy_seconds=999.0`` push both credit modes
    onto the window clamp, where each reduces to the paper's raw
    within-window count — so the two backend profiles must agree bit-for-bit.
    """
    ev = []
    # image 0 — even first split, completes before its deadline
    ev.append(ImageReady(0.00, 0, TILES, ALIVE4))
    ev += [BatchDelivered(0.10, 0, n) for n in range(4)]
    # image 1 — dispatched while image 0 is still collecting (Figure 9)
    ev.append(ImageReady(0.15, 1, TILES, ALIVE4))
    ev += [BatchDelivered(0.25, 1, n) for n in range(4)]
    for node in range(4):
        ev.append(
            ResultReceived(
                0.30 + 0.16 * node, 0, node, compute_finish=99.0, busy_seconds=999.0, count=4
            )
        )
    ev.append(MergeCompleted(0.95, 0))
    # image 2 — will lose node 2 mid-collection
    ev.append(ImageReady(1.00, 2, TILES, ALIVE4))
    ev += [BatchDelivered(1.05, 2, n) for n in range(4)]
    # image 1: nodes 0/1 deliver fully, node 2 partially, node 3 misses
    partial = [0] * 4 + [1] * 4
    for i, node in enumerate(partial):
        ev.append(
            ResultReceived(1.06 + 0.01 * i, 1, node, compute_finish=99.0, busy_seconds=999.0)
        )
    ev.append(ResultReceived(1.15, 1, 2, compute_finish=99.0, busy_seconds=999.0, count=2))
    ev.append(DeadlineFired(1.25, 1))  # 0.25 + T_L
    ev.append(ResultReceived(1.26, 1, 3, compute_finish=99.0, busy_seconds=999.0))  # late
    ev.append(MergeCompleted(1.30, 1))
    # node 2 dies owning 2 unanswered tiles of image 2
    ev.append(WorkerDied(1.50, 2, (True, True, False, True), ((2, 2),)))
    ev += [BatchDelivered(1.55, 2, n, redispatched=True) for n in (0, 1, 3)]
    remaining = [0] * 6 + [1] * 5 + [3] * 5
    for i, node in enumerate(remaining):
        ev.append(
            ResultReceived(1.60 + 0.025 * i, 2, node, compute_finish=99.0, busy_seconds=999.0)
        )
    ev.append(MergeCompleted(2.02, 2))
    ev.append(DeadlineFired(2.05, 2))  # fires after retirement: stale no-op
    ev.append(WorkerRevived(2.20, 2))
    # image 3 — dispatch over the recovered cluster (probe donation may fire)
    ev.append(ImageReady(2.30, 3, TILES, ALIVE4))
    return ev


class TestBackendConformance:
    def test_identical_commands_and_decisions(self):
        des, proc = des_controller(), process_controller()
        trace = conformance_trace()
        cmds_des = replay(des, trace)
        cmds_proc = replay(proc, trace)
        assert cmds_des == cmds_proc
        assert des.decisions == proc.decisions
        # and the structural highlights actually happened:
        first = [c for c in cmds_des if isinstance(c, SendBatch) and c.image_id == 0]
        assert [c.count for c in first] == [4, 4, 4, 4]  # §7.3 even first split
        triggers = {c.image_id: c for c in cmds_des if isinstance(c, TriggerMerge)}
        assert not triggers[0].by_deadline and triggers[0].zero_filled == 0
        assert triggers[1].by_deadline and triggers[1].zero_filled == 6
        redispatched = [c for c in cmds_des if isinstance(c, Redispatch)]
        assert sum(c.count for c in redispatched) == 2
        assert all(c.node != LOCAL_WORKER for c in redispatched)  # survivors took it

    def test_profiles_differ_only_where_documented(self):
        des_cfg = des_controller().config
        proc_cfg = process_controller().config
        assert des_cfg.credit_mode == "arrival-span"
        assert proc_cfg.credit_mode == "busy-span"
        assert (des_cfg.mask_dead, des_cfg.local_fallback) == (False, False)
        assert (proc_cfg.mask_dead, proc_cfg.local_fallback) == (True, True)

    def test_replay_is_deterministic(self):
        a, b = des_controller(), des_controller()
        trace = conformance_trace()
        assert replay(a, trace) == replay(b, trace)
        assert a.decisions == b.decisions


# ------------------------------------------------------ batched results
def _result_groups(data, allocation):
    """Draw per-node result batches that never exceed a node's allocation:
    ``(node, busy parts)`` in a drawn interleaving.  Busy parts are dyadic
    (``n / 64``), so their float sums are exact in any order."""
    groups = []
    for node, quota in enumerate(allocation):
        while quota > 0 and data.draw(st.booleans(), label=f"more{node}"):
            k = data.draw(st.integers(1, quota), label=f"k{node}")
            parts = data.draw(st.lists(st.integers(1, 64), min_size=k, max_size=k), label="busy")
            groups.append((node, [p / 64 for p in parts]))
            quota -= k
    return data.draw(st.permutations(groups), label="order")


@pytest.mark.parametrize("profile", [des_controller, process_controller])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_counted_result_equals_its_single_tile_results(profile, data):
    """``ResultReceived(count=k, busy_seconds=b)`` makes the same commands
    and decisions as k one-tile results whose busy seconds sum to b —
    through completion, a deadline zero-fill, results landing after the
    trigger, and results for a stale image — in both backend profiles."""
    batched, single = profile(), profile()
    start = [ImageReady(0.0, 0, TILES, ALIVE4)] + [BatchDelivered(0.1, 0, n) for n in range(4)]
    allocation = [c.count for c in replay(batched, start) if isinstance(c, SendBatch)]
    replay(single, start)
    groups = _result_groups(data, allocation)
    deadline_at = data.draw(st.integers(0, len(groups)), label="deadline_at")
    stale_at = data.draw(st.integers(0, len(groups)), label="stale_at")
    trace_b, trace_s = [], []
    for i, (node, parts) in enumerate(groups + [(None, [])]):
        now = 0.2 + 0.05 * i
        if i == deadline_at:
            trace_b.append(DeadlineFired(now, 0))
            trace_s.append(DeadlineFired(now, 0))
        if i == stale_at:  # an image that was never (or is no longer) in flight
            trace_b.append(ResultReceived(now, 7, 0, busy_seconds=0.5, count=3))
            trace_s += [ResultReceived(now, 7, 0, busy_seconds=0.5)] * 3
        if not parts:
            continue
        finish = now - 0.01
        trace_b.append(
            ResultReceived(now, 0, node, compute_finish=finish, busy_seconds=sum(parts), count=len(parts))
        )
        trace_s += [ResultReceived(now, 0, node, compute_finish=finish, busy_seconds=b) for b in parts]
    # The next image's allocation shows the rate credits the first one earned.
    end = [MergeCompleted(2.0, 0), ImageReady(2.1, 1, TILES, ALIVE4)]
    assert replay(batched, trace_b + end) == replay(single, trace_s + end)
    assert batched.decisions == single.decisions


# --------------------------------------------------------------- properties
@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=5),
    tiles_per_node=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_allocation_and_probe_donation_conserve_tiles(num_nodes, tiles_per_node, data):
    """After an arbitrary first image skews the rates, the next dispatch
    still allocates exactly ``num_tiles`` tiles and probe donation never
    drains any batch below one tile."""
    num_tiles = num_nodes * tiles_per_node
    alive = (True,) * num_nodes
    ctl = CentralController(
        num_nodes,
        ControllerConfig(window=2, t_limit=1.0, probe_interval=1),
    )
    cmds = ctl.handle(ImageReady(0.0, 0, num_tiles, alive))
    for cmd in [c for c in cmds if isinstance(c, SendBatch)]:
        ctl.handle(BatchDelivered(0.1, 0, cmd.node))
    counts = [
        data.draw(st.integers(min_value=0, max_value=tiles_per_node), label=f"n{k}")
        for k in range(num_nodes)
    ]
    t = 0.2
    for node, count in enumerate(counts):
        for _ in range(count):
            ctl.handle(ResultReceived(t, 0, node, busy_seconds=0.5))
            t += 0.01
    ctl.handle(DeadlineFired(1.1, 0))
    ctl.handle(MergeCompleted(1.2, 0))

    batches = [c for c in ctl.handle(ImageReady(2.0, 1, num_tiles, alive)) if isinstance(c, SendBatch)]
    assert sum(c.count for c in batches) == num_tiles  # conservation
    assert all(c.count >= 1 for c in batches)  # no donor drained to zero
    allocation = ctl.allocation_view(1)
    assert int(allocation.sum()) == num_tiles
    assert (allocation >= 0).all()
    probes = [c for c in batches if c.probe]
    assert all(c.count == 1 for c in probes)  # a probe is a single tile


# ------------------------------------------------------------ credit algebra
class TestCreditModes:
    def test_arrival_span_normalizes_by_busy_span(self):
        received = np.array([4, 0])
        node_start = np.array([0.0, math.nan])
        last_finish = np.array([0.5, math.nan])
        credits = arrival_span_credits(received, node_start, last_finish, 1.0, 16)
        assert credits[0] == pytest.approx(8.0)  # finished in half the window
        assert credits[1] == 0.0

    def test_arrival_span_straggler_gets_raw_count(self):
        credits = arrival_span_credits(
            np.array([3]), np.array([math.nan]), np.array([math.nan]), 1.0, 16
        )
        assert credits[0] == 3.0  # no usable span: the paper's plain count

    def test_arrival_span_caps_at_tile_total(self):
        credits = arrival_span_credits(
            np.array([4]), np.array([0.0]), np.array([0.01]), 1.0, 16
        )
        assert credits[0] == 16.0

    def test_busy_span_full_batch_normalizes(self):
        credits = busy_span_credits(np.array([4]), np.array([4]), np.array([0.5]), 1.0, 16)
        assert credits[0] == pytest.approx(8.0)

    def test_busy_span_partial_batch_raw_count(self):
        credits = busy_span_credits(np.array([2]), np.array([4]), np.array([0.5]), 1.0, 16)
        assert credits[0] == 2.0


# ------------------------------------------------------------ policy registry
class TestPolicies:
    def test_builtins_registered(self):
        assert {"greedy_min_max", "static_even"} <= set(available_policies())

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown allocation policy"):
            get_policy("simulated_annealing")

    def test_resolve_accepts_callable(self):
        assert resolve_policy(static_even) is static_even
        assert resolve_policy("static_even") is static_even

    def test_static_even_round_robin(self):
        req = AllocationRequest(
            num_tiles=7,
            rates=np.array([1.0, 1.0, 1.0]),
            alive=np.array([True, True, True]),
        )
        assert static_even(req).tolist() == [3, 2, 2]

    def test_static_even_skips_dead_and_decayed(self):
        req = AllocationRequest(
            num_tiles=4,
            rates=np.array([1.0, 1.0, 0.0]),
            alive=np.array([True, False, True]),
        )
        assert static_even(req).tolist() == [4, 0, 0]

    def test_static_even_respects_storage_cap(self):
        req = AllocationRequest(
            num_tiles=5,
            rates=np.array([1.0, 1.0]),
            alive=np.array([True, True]),
            tile_bits=1.0,
            storage_bits=np.array([2.0, math.inf]),
        )
        assert static_even(req).tolist() == [2, 3]

    def test_static_even_no_eligible_node_raises(self):
        req = AllocationRequest(
            num_tiles=2, rates=np.array([0.0, 0.0]), alive=np.array([True, True])
        )
        with pytest.raises(SchedulingError):
            static_even(req)

    def test_des_run_with_static_even_policy(self):
        system = ADCNNSystem(
            neutral_workload(),
            [SimNode(f"n{i}", RASPBERRY_PI_3B) for i in range(4)],
            SimNode("c", RASPBERRY_PI_3B),
            config=ADCNNConfig(t_limit=1.0, deadline_slack=1.0, policy="static_even"),
        )
        records = system.run(4)
        for rec in records:
            assert rec.allocation.sum() == TILES
            assert rec.allocation.max() - rec.allocation.min() <= 1  # rate-blind


# -------------------------------------------------------- state-machine guards
class TestControllerGuards:
    def test_window_full_raises(self):
        ctl = CentralController(2, ControllerConfig(window=1, t_limit=1.0))
        ctl.handle(ImageReady(0.0, 0, 4, (True, True)))
        with pytest.raises(RuntimeError, match="window is full"):
            ctl.handle(ImageReady(0.1, 1, 4, (True, True)))
        ctl.handle(MergeCompleted(0.2, 0))
        assert ctl.can_dispatch  # the slot frees on merge completion

    def test_duplicate_image_id_raises(self):
        ctl = CentralController(2, ControllerConfig(window=4, t_limit=1.0))
        ctl.handle(ImageReady(0.0, 7, 4, (True, True)))
        with pytest.raises(ValueError, match="already in flight"):
            ctl.handle(ImageReady(0.1, 7, 4, (True, True)))

    def test_alive_vector_length_checked(self):
        ctl = CentralController(3, ControllerConfig(t_limit=1.0))
        with pytest.raises(ValueError, match="one entry per node"):
            ctl.handle(ImageReady(0.0, 0, 4, (True, True)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(window=0)
        with pytest.raises(ValueError):
            ControllerConfig(credit_mode="exact")
        with pytest.raises(ValueError):
            ControllerConfig(probe_interval=-1)
        ctl = CentralController(2, ControllerConfig())
        with pytest.raises(ValueError):
            ctl.set_window(0)

    def test_invalid_policy_output_rejected(self):
        bad = ControllerConfig(policy=lambda req: np.zeros(2, dtype=int), t_limit=1.0)
        ctl = CentralController(2, bad)
        with pytest.raises(SchedulingError, match="allocated 0 tiles"):
            ctl.handle(ImageReady(0.0, 0, 4, (True, True)))

    def test_local_fallback_when_no_node_accepts(self):
        ctl = CentralController(
            2,
            ControllerConfig(t_limit=1.0, mask_dead=True, local_fallback=True),
        )
        cmds = ctl.handle(ImageReady(0.0, 0, 4, (False, False)))
        batches = [c for c in cmds if isinstance(c, SendBatch)]
        assert batches == [SendBatch(0, LOCAL_WORKER, 4)]
        deadlines = [c for c in cmds if isinstance(c, ArmDeadline)]
        assert deadlines == [ArmDeadline(0, 1.0)]  # arms immediately: no transfer
        assert ctl.allocation_view(0).tolist() == [0, 0]

    def test_deadline_trigger_and_late_result(self):
        ctl = CentralController(2, ControllerConfig(t_limit=1.0))
        ctl.handle(ImageReady(0.0, 0, 4, (True, True)))
        ctl.handle(BatchDelivered(0.1, 0, 0))
        ctl.handle(BatchDelivered(0.1, 0, 1))
        ctl.handle(ResultReceived(0.5, 0, 0))
        cmds = ctl.handle(DeadlineFired(1.1, 0))
        trigger = next(c for c in cmds if isinstance(c, TriggerMerge))
        assert trigger.by_deadline and trigger.zero_filled == 3
        assert trigger.received == (1, 0)
        assert ctl.handle(ResultReceived(1.2, 0, 1)) == []  # already zero-filled

    def test_redispatch_goes_local_without_survivors(self):
        ctl = CentralController(
            2,
            ControllerConfig(
                t_limit=1.0, redispatch=True, mask_dead=True, local_fallback=True
            ),
        )
        ctl.handle(ImageReady(0.0, 0, 4, (True, True)))
        for node in (0, 1):
            ctl.handle(BatchDelivered(0.1, 0, node))
        cmds = ctl.handle(WorkerDied(0.5, 0, (False, False), ((0, 2),)))
        assert cmds == [Redispatch(0, LOCAL_WORKER, 2)]

    def test_stale_events_are_ignored(self):
        ctl = CentralController(2, ControllerConfig(t_limit=1.0))
        assert ctl.handle(BatchDelivered(0.0, 99, 0)) == []
        assert ctl.handle(ResultReceived(0.0, 99, 0)) == []
        assert ctl.handle(DeadlineFired(0.0, 99)) == []
        assert ctl.handle(MergeCompleted(0.0, 99)) == []


# ------------------------------------------------- driver-facing satellites
class TestSystemGuards:
    def make_system(self, **cfg) -> ADCNNSystem:
        return ADCNNSystem(
            neutral_workload(),
            [SimNode(f"n{i}", RASPBERRY_PI_3B) for i in range(4)],
            cfg.pop("central", SimNode("c", RASPBERRY_PI_3B)),
            config=ADCNNConfig(t_limit=1.0, deadline_slack=1.0, **cfg),
        )

    def test_transferred_bits_before_run_raises(self):
        system = self.make_system()
        with pytest.raises(ValueError, match="no records"):
            system.total_transferred_bits()
        system.run(2)
        assert system.total_transferred_bits() >= 0.0

    def test_dead_central_node_cannot_stall_the_run(self):
        system = self.make_system(central=SimNode("c", RASPBERRY_PI_3B, fail_time=1e-6))
        records = system.run(3)
        assert len(records) == 3  # the stream still drains
        assert all(not math.isfinite(r.completion) for r in records)
        with pytest.raises(ValueError, match="no finite latencies"):
            system.mean_latency()
