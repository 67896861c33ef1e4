import compare

SPEC = {
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "throughput_ips", "unit": "1/s", "better": "higher", "bound": 0.20},
    ],
}


def ledger(latency, throughput, failed=0, layers=None):
    def entry(lat, thr):
        return {
            "end_to_end": {"latency_p50_ms": {"value": lat, "unit": "ms"},
                           "throughput_ips": {"value": thr, "unit": "1/s"}},
            "end_to_end_run": {"attempted": 100, "failed": failed},
            "per_layer": {k: {"value": v, "unit": "ms"} for k, v in (layers or {}).items()},
        }

    return {"workloads": {"w1": entry(latency, throughput), "w2": entry(10.0, 50.0)}}


def verdicts(a, b, noise=None):
    rows = compare.compare(a, b, SPEC, noise or {})
    return {(r["workload"], r["metric"]): r["verdict"] for r in rows}


def test_within_bound_passes_in_both_directions():
    v = verdicts(ledger(10.0, 100.0), ledger(10.9, 85.0))
    assert v[("w1", "latency_p50_ms")] == "pass" and v[("w1", "throughput_ips")] == "pass"
    assert set(verdicts(ledger(10.0, 100.0), ledger(5.0, 300.0)).values()) == {"pass"}


def test_beyond_bound_regresses_respecting_which_direction_is_better():
    v = verdicts(ledger(10.0, 100.0), ledger(11.5, 75.0))
    assert v[("w1", "latency_p50_ms")] == "regressed"
    assert v[("w1", "throughput_ips")] == "regressed"
    assert v[("w2", "latency_p50_ms")] == "pass"  # each workload has its own row


def test_spread_wider_than_the_bound_is_unresolved_unless_b_is_better():
    noise = {"w1": {"latency_p50_ms": 0.15}}
    assert verdicts(ledger(10.0, 100.0), ledger(13.0, 100.0), noise)[("w1", "latency_p50_ms")] == "unresolved"
    assert verdicts(ledger(10.0, 100.0), ledger(10.2, 100.0), noise)[("w1", "latency_p50_ms")] == "unresolved"
    assert verdicts(ledger(10.0, 100.0), ledger(9.0, 100.0), noise)[("w1", "latency_p50_ms")] == "pass"


def test_any_increase_in_failed_fraction_regresses():
    assert verdicts(ledger(10.0, 100.0), ledger(10.0, 100.0, failed=1))[("w1", "failed_frac")] == "regressed"
    assert verdicts(ledger(10.0, 100.0, failed=1), ledger(10.0, 100.0))[("w1", "failed_frac")] == "pass"


def test_a_missing_metric_is_reported_not_skipped():
    b = ledger(10.0, 100.0)
    del b["workloads"]["w1"]["end_to_end"]["throughput_ips"]
    assert verdicts(ledger(10.0, 100.0), b)[("w1", "throughput_ips")] == "missing"


def test_layer_diff_lists_the_largest_mover_first():
    a = ledger(10.0, 100.0, layers={"runtime.overhead_ms": 2.0, "nn.separable_forward_ms": 4.0, "same": 1.0})
    b = ledger(13.0, 100.0, layers={"runtime.overhead_ms": 5.0, "nn.separable_forward_ms": 4.2, "same": 1.0})
    moves = compare.layer_diff(a, b, "w1")
    assert [m[0] for m in moves] == ["runtime.overhead_ms", "nn.separable_forward_ms"]
    assert moves[0][3] == 1.5


def test_noise_table_needs_four_runs_and_uses_quartiles():
    runs = [ledger(lat, 100.0) for lat in (10.0, 10.1, 9.9, 10.2, 10.0, 9.8)]
    table = compare.noise_table(runs, SPEC)
    assert 0.0 < table["w1"]["latency_p50_ms"] < 0.05
    assert table["w1"]["throughput_ips"] == 0.0
    assert compare.noise_table(runs[:3], SPEC) == {}
