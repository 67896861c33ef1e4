"""Fence around the discrete-event simulator: its numbers at a known commit.

Every paper figure comes from the DES, and a speed-up of the simulator must
not move one simulated bit.  Each constant below was read from one run of
the code before the scalar Algorithm 3, the tuple event heap and the running
busy total, written as ``repr`` floats, and is compared exactly:

- the closed-loop digest that the benchmark ledger records for ``run(64)``
  (vgg16, 64 tiles, prefix 13, ratio 0.032, 8 Raspberry Pi 3B nodes);
- one seeded open-loop run's wrap-up numbers;
- Figure 15's throttle run (allocation shift and latency series);
- a fail/recover run under a two-step CPU schedule, which takes the
  piecewise-rate loop, re-dispatch, probes and the clipped
  ``total_busy_time`` path.
"""

import hashlib

import numpy as np

from repro.experiments import fig15_adaptivity
from repro.experiments.common import build_adcnn_system
from repro.models import get_spec
from repro.profiling import RASPBERRY_PI_3B
from repro.runtime import ADCNNConfig, ADCNNSystem, ADCNNWorkload
from repro.simulator import CpuSchedule, SimNode

CLOSED_LOOP_DIGEST = "36846ad17946eed0f68fefe206e8c065ea5e750b67b2d82dd1482b0553b65753"

OPEN_SOJOURN_P50_P95_P99 = [0.2886659925670034, 0.6251702527378712, 0.7428923203799297]
OPEN_MEAN_LATENCY = 0.3336572658326455
OPEN_UTILIZATION = [
    0.4364048314765209, 0.4364048314765209, 0.4364048314765209, 0.4364048314765209,
    0.4364048314765209, 0.43640483147652087, 0.4364048314765209, 0.43640483147652087,
]
OPEN_BITS = 290555166.7199905

FIG15_ALLOCATIONS = (
    ["8 8 8 8 8 8 8 8"] * 25
    + ["12 12 12 12 5 5 3 3"]
    + ["13 13 13 13 5 5 1 1"]
    + ["13 13 12 12 5 5 2 2"] * 23
)
FIG15_LATENCIES_MS = [
    275.2513660915501, 275.2513660915501, 275.25136609154964, 275.2513660915492,
    275.2513660915488, 275.2513660915488, 275.2513660915488, 275.2513660915501,
    275.2513660915521, 275.2513660915521, 275.2513660915521, 275.2513660915521,
    275.2513660915521, 275.2513660915521, 275.2513660915508, 275.25136609154544,
    275.25136609154544, 275.25136609154544, 275.25136609154544, 275.25136609154544,
    275.25136609154544, 275.25136609154544, 275.25136609154544, 275.25136609154544,
    494.3841950216408, 691.1358700985656, 392.12513018288763, 369.41705904745345,
    369.41705904745345, 369.41705904745345, 369.41705904745345, 369.41705904745345,
    369.41705904745345, 369.41705904745345, 369.41705904745345, 369.41705904745345,
    369.41705904745345, 369.41705904745345, 369.41705904745345, 369.41705904745345,
    369.41705904745345, 369.41705904745345, 369.41705904745345, 369.41705904745345,
    369.41705904745345, 369.41705904745345, 369.41705904745345, 369.41705904745345,
    369.41705904745527, 369.41705904745703,
]

FAIL_RECOVER_LATENCIES = [
    0.2752513660915501, 0.48000304116847325, 0.4095033501538463, 0.4095033501538463,
    0.40950335015384587, 0.409503350153845, 0.40950335015384454, 0.40950335015384454,
    0.40950335015384454, 0.49438419502164144, 0.49438419502164144, 0.5435721137908742,
    0.6419479513293349, 0.3855064178570937, 0.4284151223992434, 0.6787576891575342,
    0.691036903384616, 0.6654429439999952, 0.6142550252307615, 0.5374731470769163,
    0.616304157886427, 0.6909358700985662, 0.6604112102286894, 0.4782861033312873,
    0.4503770708399406, 0.6858402624482789, 0.6398489846153765, 0.48628522830768617,
    0.47980304116846817, 0.5565849193223134, 0.5118791876923021, 0.40950335015384187,
    0.3596671489104466, 0.46204298644890684, 0.5118791876923012, 0.43509730953845605,
    0.3928894181290037, 0.42003509503945935, 0.5134309052181418, 0.5118791876923012,
]
FAIL_RECOVER_ALLOCATIONS = (
    [[8, 8, 8, 8, 8, 8, 8, 8]] * 11
    + [[9, 9, 9, 9, 9, 8, 6, 5]]
    + [[10, 10, 11, 11, 10, 10, 1, 1]]
    + [[10, 12, 8, 12, 12, 10, 0, 0]]
    + [[12, 12, 0, 13, 13, 14, 0, 0]]
    + [[12, 12, 0, 12, 13, 13, 1, 1]]
    + [[13, 12, 0, 12, 13, 14, 0, 0]]
    + [[13, 13, 0, 12, 12, 12, 1, 1]]
    + [[12, 13, 0, 12, 13, 12, 1, 1]]
    + [[12, 12, 0, 11, 10, 9, 5, 5]]
    + [[11, 12, 0, 11, 11, 9, 5, 5]]
    + [[12, 12, 0, 11, 10, 9, 5, 5]]
    + [[11, 12, 0, 12, 11, 10, 4, 4]]
    + [[12, 11, 0, 12, 11, 12, 3, 3]]
    + [[11, 10, 0, 12, 12, 15, 2, 2]]
    + [[11, 10, 0, 12, 11, 14, 3, 3]]
    + [[9, 8, 0, 9, 10, 11, 8, 9]]
    + [[7, 7, 0, 8, 8, 8, 13, 13]]
    + [[7, 7, 0, 7, 8, 7, 14, 14]]
    + [[9, 11, 0, 8, 9, 5, 11, 11]]
    + [[10, 10, 1, 10, 10, 5, 9, 9]]
    + [[11, 11, 0, 11, 11, 6, 7, 7]]
    + [[9, 9, 8, 9, 10, 9, 5, 5]]
    + [[11, 10, 1, 11, 11, 10, 5, 5]]
    + [[9, 8, 9, 9, 9, 10, 5, 5]]
    + [[8, 8, 6, 8, 8, 10, 8, 8]]
    + [[6, 6, 11, 6, 6, 8, 11, 10]]
    + [[6, 7, 11, 6, 6, 7, 11, 10]]
    + [[6, 7, 11, 6, 5, 7, 11, 11]]
    + [[7, 10, 9, 7, 6, 6, 9, 10]]
)
FAIL_RECOVER_ZERO_FILLED = [
    0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 16, 11, 2, 0, 0, 0, 0, 0, 0, 0,
    0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
]
FAIL_RECOVER_UTILIZATION = [
    0.9430550607043842, 0.9556627486817154, 0.46144137997032814, 0.9506196734907829,
    0.9480981358953167, 0.9279258351315863, 0.8651384660468758, 0.8580475795745639,
]
FAIL_RECOVER_BUSY_AT_IMAGE_20 = [
    5.335724429541267, 5.373274318214737, 2.9688992886153858, 5.371352034407656,
    5.344360227927459, 5.262798322413834, 4.6810152655545885, 4.607694771664238,
]


def ledger_system() -> ADCNNSystem:
    workload = ADCNNWorkload.from_spec(
        get_spec("vgg16"), num_tiles=64, separable_prefix=13, compression_ratio=0.032
    )
    nodes = [SimNode(f"n{k}", RASPBERRY_PI_3B) for k in range(8)]
    return ADCNNSystem(workload, nodes, SimNode("central", RASPBERRY_PI_3B))


def test_closed_loop_digest():
    system = ledger_system()
    records = system.run(64)
    parts = [
        f"{r.image_id}:{r.completion:.9e}:{r.latency:.9e}:{r.allocation.tolist()}"
        for r in records
    ]
    parts.append(f"{system.total_transferred_bits():.9e}")
    assert hashlib.sha256("|".join(parts).encode()).hexdigest() == CLOSED_LOOP_DIGEST


def test_open_loop_wrap_up():
    system = ledger_system()
    rng = np.random.default_rng(2024)
    result = system.run_open_loop(np.cumsum(rng.exponential(0.5, size=60)))
    assert [result.sojourn_quantile(q) for q in (0.5, 0.95, 0.99)] == OPEN_SOJOURN_P50_P95_P99
    assert system.mean_latency() == OPEN_MEAN_LATENCY
    assert system.node_utilization().tolist() == OPEN_UTILIZATION
    assert system.total_transferred_bits() == OPEN_BITS


def test_fig15_throttle_run():
    report = fig15_adaptivity.run()
    assert report.column("alloc") == FIG15_ALLOCATIONS
    assert report.column("latency_ms") == FIG15_LATENCIES_MS


def test_fail_recover_run():
    throttled = CpuSchedule(((2.0, 0.3), (6.0, 1.0)))
    fail_times: list[float | None] = [None, None, 3.0, None, None, None, None, None]
    recover_times: list[float | None] = [None, None, 7.5, None, None, None, None, None]
    system = build_adcnn_system(
        "vgg16",
        8,
        schedules=[CpuSchedule()] * 6 + [throttled] * 2,
        fail_times=fail_times,
        recover_times=recover_times,
        config=ADCNNConfig(pipeline_depth=2, redispatch=True, probe_interval=3),
    )
    records = system.run(40)
    assert [r.latency for r in records] == FAIL_RECOVER_LATENCIES
    assert [r.allocation.tolist() for r in records] == FAIL_RECOVER_ALLOCATIONS
    assert [r.zero_filled_tiles for r in records] == FAIL_RECOVER_ZERO_FILLED
    assert system.node_utilization().tolist() == FAIL_RECOVER_UTILIZATION
    until = records[20].completion
    assert [n.total_busy_time(until=until) for n in system.nodes] == FAIL_RECOVER_BUSY_AT_IMAGE_20
