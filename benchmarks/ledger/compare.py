#!/usr/bin/env python3
"""Compare two ledger result files, or measure run-to-run noise.

``python3 benchmarks/ledger/compare.py A.json B.json``
    One row per (workload, end-to-end metric): A's value, B's value, the
    bound from ``BENCHMARK.json`` and a verdict.  ``regressed`` means B is
    worse than A by more than the bound.  Where the recorded run-to-run
    spread of that pair (``baseline/noise.json``) is itself wider than the
    bound, two single runs cannot tell a regression from noise: the verdict
    is ``unresolved`` unless B reads better than A.  After the table, each
    workload with a regression gets its per-layer diff, largest mover
    first, so the row names the layer and stage that moved.  Exits 1 on any
    regression.

``python3 benchmarks/ledger/compare.py --noise RUN1.json RUN2.json ...``
    Print the noise table (inter-quartile distance over median, per
    workload and metric) of several ledger files of one commit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
NOISE_TABLE = HERE / "baseline" / "noise.json"
sys.path.insert(0, str(HERE))

from ledgerbench.stats import spread  # noqa: E402

Ledger = dict[str, Any]


def load(path: Path) -> Ledger:
    with open(path) as fh:
        return json.load(fh)


def value(ledger: Ledger, workload: str, section: str, metric: str) -> float | None:
    entry = ledger.get("workloads", {}).get(workload, {}).get(section, {}).get(metric)
    return None if entry is None else float(entry["value"])


def failed_frac(ledger: Ledger, workload: str) -> float:
    run = ledger.get("workloads", {}).get(workload, {}).get("end_to_end_run", {})
    return run.get("failed", 0) / max(run.get("attempted", 1), 1)


def worsening(a: float, b: float, better: str) -> float:
    """Share of A by which B is worse (negative when B is better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def verdict(worse: float, bound: float, noise: float) -> str:
    if noise > bound:
        return "pass" if worse <= 0 else "unresolved"
    return "regressed" if worse > bound else "pass"


def compare(a: Ledger, b: Ledger, spec: dict[str, Any], noise: dict[str, dict[str, float]]) -> list[dict[str, Any]]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            va = value(a, workload, "end_to_end", metric["name"])
            vb = value(b, workload, "end_to_end", metric["name"])
            if va is None or vb is None:
                rows.append({"workload": workload, "metric": metric["name"], "verdict": "missing"})
                continue
            worse = worsening(va, vb, metric["better"])
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"], "a": va, "b": vb,
                "bound": metric["bound"], "worse": worse,
                "verdict": verdict(worse, metric["bound"], noise.get(workload, {}).get(metric["name"], 0.0)),
            })
        fa, fb = failed_frac(a, workload), failed_frac(b, workload)
        rows.append({"workload": workload, "metric": "failed_frac", "unit": "fraction", "a": fa, "b": fb,
                     "bound": 0.0, "worse": fb - fa, "verdict": "regressed" if fb > fa else "pass"})
    return rows


def layer_diff(a: Ledger, b: Ledger, workload: str) -> list[tuple[str, float, float, float]]:
    """(metric, A, B, relative change) of every per-layer metric, largest mover first."""
    la = a.get("workloads", {}).get(workload, {}).get("per_layer", {})
    lb = b.get("workloads", {}).get(workload, {}).get("per_layer", {})
    moves = []
    for name in la.keys() & lb.keys():
        va, vb = float(la[name]["value"]), float(lb[name]["value"])
        if va == vb:
            continue
        moves.append((name, va, vb, (vb - va) / abs(va) if va else float("inf")))
    return sorted(moves, key=lambda m: abs(m[3]), reverse=True)


def noise_table(ledgers: list[Ledger], spec: dict[str, Any]) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            found = (value(ledger, workload, "end_to_end", metric["name"]) for ledger in ledgers)
            values = [v for v in found if v is not None]
            if len(values) >= 4:
                table.setdefault(workload, {})[metric["name"]] = round(spread(values), 4)
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--noise", action="store_true", help="print the noise table of the given runs")
    args = parser.parse_args()
    spec = load(HERE.parents[1] / "BENCHMARK.json")
    ledgers = [load(p) for p in args.files]
    if args.noise:
        json.dump(noise_table(ledgers, spec), sys.stdout, indent=1)
        print()
        return 0
    if len(ledgers) != 2:
        parser.error("give exactly two result files: A.json B.json")
    noise = load(NOISE_TABLE) if NOISE_TABLE.exists() else {}
    a, b = ledgers
    rows = compare(a, b, spec, noise)
    print(f"{'workload':15s} {'metric':18s} {'A':>12s} {'B':>12s} {'unit':8s} {'worse by':>9s} {'bound':>6s}  verdict")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:15s} {row['metric']:18s} {'-':>12s} {'-':>12s} {'':8s} {'':>9s} {'':>6s}  missing")
            continue
        print(f"{row['workload']:15s} {row['metric']:18s} {row['a']:12.5g} {row['b']:12.5g} {row['unit']:8s} "
              f"{row['worse'] * 100:8.1f}% {row['bound'] * 100:5.0f}%  {row['verdict']}")
    regressed = sorted({r["workload"] for r in rows if r["verdict"] == "regressed"})
    for workload in regressed:
        print(f"\n{workload}: per-layer and stage diff, largest mover first")
        for name, va, vb, rel in layer_diff(a, b, workload):
            print(f"  {name:38s} {va:12.5g} -> {vb:12.5g}  {rel * 100:+8.1f}%")
    bad = [r for r in rows if r["verdict"] in ("regressed", "missing")]
    print(f"\n{len(rows)} rows: {len(bad)} regressed or missing, "
          f"{sum(1 for r in rows if r['verdict'] == 'unresolved')} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
