#!/usr/bin/env python3
"""Run benchmark workloads and print every metric, by name and unit.

    python3 bench/suite.py                       # every workload, seed 1, untraced + traced
    python3 bench/suite.py --seeds 1-10 --trace 0 --workloads wide-operators
    python3 bench/suite.py --trace-selfcheck     # two traced runs per workload, same seed

Each run is one `bench/run.py` process, one after another.  Per workload
and seed it prints every end-to-end metric with its sample count, the
failed-operations ratio, the checks and the output digest; with the traced
run too, the tracing overhead and the layers with the most self time.  With
several seeds it prints, per gated metric, the median, the quartiles and
their spread as a share of the median, next to the metric's bound.  With
``--trace-selfcheck`` it fails unless the deterministic counters of two
traced runs on the same seed are identical.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = ROOT / ".bench_runs" / "results"

#: Per-layer counters that must repeat exactly across traced runs.
DETERMINISTIC = re.compile(
    r"\.(calls|columns|steps|members|partial)$|^classify\.passes_per_horizon$"
    r"|^cli\.cache\.|^classify\.verdicts\."
)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its full results record."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(command)} exited with {proc.returncode}")
    with open(RESULTS / f"{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as handle:
        record = json.load(handle)
    record["last_line"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def print_run(record: dict) -> None:
    print(f"\n== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  failed {record['failed']}/{record['attempted']}")
    for name, m in record["metrics"].items():
        extra = f"  p{m['percentile']}" if "percentile" in m else ""
        wall = f"  wall {m['wall']:.6g}" if "wall" in m else ""
        print(f"  {name:24s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}{extra}{wall}")
    for name, c in record["checks"].items():
        print(f"  check {name:22s} {c['checked'] - c['failed']}/{c['checked']} ok")
        for failure in c["failures"]:
            print(f"    FAILED {failure}")
    print(f"  output digest {record['output_digest']}")


def print_traced(traced: dict, plain: dict | None) -> None:
    layer = traced["per_layer"]
    selfs = sorted(((v, k[len("layer."):-len(".self_s")]) for k, v in layer.items()
                    if k.startswith("layer.")), reverse=True)
    print(f"  self time per pass: " + ", ".join(f"{name} {v:.3g} s" for v, name in selfs[:4]))
    if plain is not None:
        untraced = sum(r["s"] for r in plain["requests"]) / plain["passes"]
        print(f"  tracing overhead {layer['trace.pass_s'] / untraced - 1:+.1%} "
              f"({layer['trace.pass_s']:.3g} s against {untraced:.3g} s of requests per pass)")
    if traced["missing_targets"]:
        print(f"  not traced (missing): {', '.join(traced['missing_targets'])}")


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in contract["workloads"]))
    parser.add_argument("--seeds", default="1", help="e.g. 1,2 or 1-10")
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--trace-selfcheck", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    if args.trace_selfcheck:
        status = 0
        for workload in workloads:
            a, b = (run(workload, seeds[0], args.seconds, 1)["per_layer"] for _ in range(2))
            names = sorted(n for n in a if DETERMINISTIC.search(n))
            differ = [n for n in names if a[n] != b.get(n)]
            print(f"{workload}: {len(names) - len(differ)}/{len(names)} deterministic counters repeat")
            for n in differ:
                print(f"  DIFFERS {n}: {a[n]!r} then {b.get(n)!r}")
            status |= bool(differ)
        return status

    gated = contract["end_to_end"]
    for workload in workloads:
        plain_runs = []
        for seed in seeds:
            plain = traced = None
            if args.trace in ("0", "both"):
                plain = run(workload, seed, args.seconds, 0)
                plain_runs.append(plain)
                print_run(plain)
            if args.trace in ("1", "both"):
                traced = run(workload, seed, args.seconds, 1)
                print_run(traced)
                print_traced(traced, plain)
        if len(plain_runs) > 1:
            print(f"\n== {workload}: {len(plain_runs)} seeds, gated metrics")
            for m in gated:
                values = [r["last_line"]["metrics"][m["name"]]["value"] for r in plain_runs]
                q1, med, q3 = quartiles(values)
                share = (q3 - q1) / med
                verdict = "ok" if share < m["bound"] / 3 else "WIDE" if share > m["bound"] else "marginal"
                print(f"  {m['name']:16s} median {med:.6g} {m['unit']:4s} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {share:.3f} bound {m['bound']} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
