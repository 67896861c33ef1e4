#!/usr/bin/env python3
"""Perf ledger entry point.

Two ways to run it, from the repository root:

``python3 benchmarks/ledger/run.py [--seed N] [--out DIR]``
    The whole ledger: every workload untraced (end-to-end metrics), then
    traced (per-layer metrics), each in its own fresh interpreter.  Prints
    every metric by name with its unit, writes ``<out>/ledger_seed<N>.json``
    and ``<out>/trace_<workload>.jsonl``, and exits non-zero on any output
    mismatch, leak or missing metric.

``... run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in a fresh child interpreter; the last line of
    standard output is one JSON object (``correct``, ``attempted``,
    ``failed``, ``metrics``).  This is the form ``BENCHMARK.json`` names.
    The parent only supervises: it returns once the child and every process
    the child started have ended and been waited for.

The workload and metric names, units and regression bounds live in
``BENCHMARK.json``; this file only checks that a run produced exactly them.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ledgerbench import scrub_thread_env  # noqa: E402

scrub_thread_env()  # before anything imports NumPy: BLAS reads these at load

#: A single run is killed, with everything it started, after this long
#: (the driver allows 180 s).
RUN_TIMEOUT_S = 170.0

#: Window length of a whole-ledger run; shorter than BENCHMARK.json's
#: ``run_seconds`` so that ten runs fit in three minutes on two cores.
LEDGER_SECONDS = 12


def contract() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_one(args: argparse.Namespace) -> int:
    from ledgerbench.fingerprint import fingerprint
    from ledgerbench.layers import traced
    from ledgerbench.spans import SpanLog
    from ledgerbench.workloads import UNTRACED

    spec = contract()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    log = SpanLog()
    extras: dict[str, Any] = {}
    if args.trace:
        values, tally = traced(args.workload, args.seed, args.seconds, log)
        values = {name: values.get(name, 0.0) for name in units} | values
    else:
        run = UNTRACED[args.workload](args.seed, args.seconds)
        values, tally, extras = run["metrics"], run["tally"], run["extras"]
    if set(values) != set(units):
        missing, unknown = sorted(set(units) - set(values)), sorted(set(values) - set(units))
        print(f"metric names differ from BENCHMARK.json: missing {missing}, unknown {unknown}", file=sys.stderr)
        return 2
    bad = [name for name, value in values.items() if math.isnan(value)]  # nothing was measured
    correct = tally.failed == 0 and tally.attempted > 0 and not bad
    for name in units:
        print(f"{args.workload:15s} {name:38s} {values[name]:14.6g} {units[name]}")
    for reason in tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        full = result | {
            "workload": args.workload, "trace": args.trace, "extras": extras,
            "reasons": tally.reasons, "fingerprint": fingerprint(ROOT, args.seed, args.seconds),
        }
        with open(args.out / f"{args.workload}.{section}.json", "w") as fh:
            json.dump(full, fh, indent=1)
        if args.trace:
            log.write_jsonl(args.out / f"trace_{args.workload}.jsonl")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    spec = contract()
    out: Path = args.out if args.out is not None else HERE / "out"
    out.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds if args.seconds is not None else LEDGER_SECONDS
    ledger: dict[str, Any] = {"workloads": {}}
    status = 0
    began = time.monotonic()
    for trace in (0, 1):
        section = "per_layer" if trace else "end_to_end"
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            sys.stderr.write(done.stderr)
            part = out / f"{workload}.{section}.json"
            if done.returncode != 0 or not part.exists():
                print(f"{workload} (trace {trace}) failed with exit code {done.returncode}", file=sys.stderr)
                status = 1
                continue
            with open(part) as fh:
                full = json.load(fh)
            part.unlink()
            entry = ledger["workloads"].setdefault(workload, {})
            entry[section] = full["metrics"]
            entry[f"{section}_run"] = {k: full[k] for k in ("correct", "attempted", "failed", "reasons", "extras")}
            ledger["fingerprint"] = full["fingerprint"]
    for workload, entry in ledger["workloads"].items():
        e2e, layers = entry.get("end_to_end"), entry.get("per_layer")
        if workload == "steady_compute" and layers:
            infer, overhead = layers["runtime.infer_ms"]["value"], layers["runtime.overhead_ms"]["value"]
            print(f"steady_compute: runtime.overhead_ms {overhead:.1f} ms beside {infer - overhead:.1f} ms of "
                  f"in-process nn.* + partition.* + compression.* work per image (runtime.infer_ms {infer:.1f} ms)")
        if e2e and layers:
            print(f"{workload}: failed_frac {entry['end_to_end_run']['extras']['failed_frac']:.4f}, "
                  f"telemetry.overhead_frac {layers['telemetry.overhead_frac']['value']:.3f}")
    ledger["wall_seconds"] = time.monotonic() - began
    path = out / f"ledger_seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(ledger, fh, indent=1)
    print(f"wrote {path} in {ledger['wall_seconds']:.0f} s")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--measure-here", action="store_true",
                        help="(what the supervising parent passes to its child) measure in this interpreter")
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = float(contract()["run_seconds"])
    if args.measure_here:
        return run_one(args)
    from ledgerbench.supervise import run_supervised

    child = [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:], "--measure-here"]
    return run_supervised(child, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
