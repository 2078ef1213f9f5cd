#!/usr/bin/env python3
"""Run one ergorank benchmark workload and report its metrics.

    python3 bench/run.py --workload gallery-default --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run builds its inputs from ``--seed``
(several times, reporting the median set-up time), then runs whole passes of
the workload's requests in one process with one client until ``--seconds``
have elapsed (at least two passes), then checks every output outside the
timed region.  With ``--trace 0`` it reports end-to-end metrics; with
``--trace 1`` it wraps the program's layer functions and reports per-layer
metrics per pass.  The last line of standard output is one JSON object; the
full record (environment, every metric with its sample count, per-request
sha256 digests, check results) goes to ``.bench_runs/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
RESULTS = RUNS / "results"

MIN_PASSES = 2
SETUP_REPEATS = 5

#: The request kind behind the gated `request_mean_s` metric per workload.
MAIN_KIND = {"gallery-default": "analyze", "wide-operators": "analyze", "tree-certify": "rank"}

#: Unit of each request kind's latency metrics.  Every kind but the cache
#: hit also reports a tail.
KIND_UNITS = {"analyze": "s", "analyze_cached": "ms", "rank": "s", "tree": "s",
              "certify": "s", "check": "ms"}


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP pools at the CPUs this process may use.  Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); None below twenty samples, where that percentile
    would fall below the median."""
    n = len(values)
    if n < 20:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class First(NamedTuple):
    """The first output seen for one request key."""

    kind: str
    result: object
    text: str
    digest: str


class Session:
    """Runs and times requests and keeps what the checks need.

    Requests with the same key have the same input, so their outputs must be
    byte-identical; later ones are compared with the first by digest.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records: list[dict] = []
        self.first: dict[str, First] = {}
        self.captured: dict[str, list] = {}
        self.repeats = 0
        self.mismatches: list[str] = []
        self._capture_key = None

    def request(self, kind: str, key: str, call, output):
        """Time `call()`; then, untimed, turn its result into canonical
        output text with `output(result) -> (text, meta)`."""
        record = {"kind": kind, "key": key, "ok": False}
        self.records.append(record)
        self._capture_key = None if key in self.first else key
        span = (self.tracer.request_span(len(self.records) - 1, kind)
                if self.tracer else contextlib.nullcontext())
        record["start"] = time.perf_counter()
        try:
            with span:
                result = call()
        except Exception:  # a failing request is counted, not fatal
            record["error"] = traceback.format_exc(limit=3)
            result = None
        finally:
            record["end"] = time.perf_counter()
            self._capture_key = None
        if "error" in record:
            return None
        try:
            text, meta = output(result)
        except Exception:
            record["error"] = traceback.format_exc(limit=3)
            return result
        record.update(meta, sha256=sha256_text(text))
        seen = self.first.get(key)
        if seen is None:
            self.first[key] = First(kind, result, text, record["sha256"])
        else:
            self.repeats += 1
            if seen.digest != record["sha256"]:
                record["ok"] = False
                self.mismatches.append(f"{key}: {kind} output differs from the first {seen.kind}")
        return result

    @contextlib.contextmanager
    def capture_verdicts(self, cli):
        """Keep the Verdict objects (with their in-memory evidence) that the
        CLI's family checks return for the first request of each key."""
        names = [n for n in ("check_power_bounded", "check_cesaro_bounded", "check_ergodic",
                             "check_uniformly_ergodic") if callable(getattr(cli, n, None))]
        originals = {n: getattr(cli, n) for n in names}

        def capturing(fn):
            def call(*args, **kwargs):
                verdict = fn(*args, **kwargs)
                if self._capture_key is not None:
                    self.captured.setdefault(self._capture_key, []).append(verdict)
                return verdict
            return call

        for n in names:
            setattr(cli, n, capturing(originals[n]))
        try:
            yield
        finally:
            for n, fn in originals.items():
                setattr(cli, n, fn)


#: A fresh interpreter times its own import of ergorank and, around it, a
#: pure-Python kernel whose median time measures that process's CPU speed.
IMPORT_PROBE = """
import time
def kernel():
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i & 7
    return time.perf_counter() - start
samples = [kernel() for _ in range(5)]
start = time.perf_counter()
import ergorank
elapsed = time.perf_counter() - start
samples = sorted(samples + [kernel() for _ in range(5)])
print(elapsed, (samples[4] + samples[5]) / 2)
"""
#: Nominal time of the IMPORT_PROBE kernel: its reference speed.
IMPORT_KERNEL_S = 0.002


def measure_setup(workload, clock, scratch: Path, seed: int) -> dict:
    """Set-up time at reference speed, median of SETUP_REPEATS: the import of
    ergorank in a fresh interpreter, plus building the inputs in this
    process.  The last set of inputs is the one used."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    imports, import_walls, builds = [], [], []
    for i in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                               check=True, capture_output=True, text=True)
        elapsed, kernel_s = map(float, probe.stdout.split())
        import_walls.append(elapsed)
        imports.append(elapsed * IMPORT_KERNEL_S / kernel_s)
        root = scratch / f"inputs{i}"
        root.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(str(root), seed)
        builds.append((start, time.perf_counter()))
    return {
        "import_s": statistics.median(imports),
        "inputs_s": statistics.median(clock.reference_s(*iv) for iv in builds),
        "wall_s": statistics.median(import_walls) + statistics.median(b - a for a, b in builds),
        "samples": SETUP_REPEATS,
    }


def environment(nproc: int, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    blas = None
    with contextlib.suppress(Exception):  # show_config's layout differs across numpy versions
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    return {
        "cpu": cpu, "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit, "seed": seed,
    }


def end_to_end(workload, session, setup, rss_mb, failed) -> dict:
    """Every end-to-end metric: name -> {value, unit, samples, wall}.  Times
    are at reference speed; `wall` holds the same statistic of wall time."""
    out = {"setup_s": {"value": setup["import_s"] + setup["inputs_s"], "unit": "s",
                       "samples": setup["samples"], "wall": setup["wall_s"]}}
    for kind in workload.kinds:
        unit = KIND_UNITS[kind]
        scale = 1e3 if unit == "ms" else 1.0
        records = [r for r in session.records if r["kind"] == kind]
        if not records:
            continue
        values = [r["s"] * scale for r in records]
        walls = [r["wall_s"] * scale for r in records]
        out[f"{kind}_p50_{unit}"] = {"value": statistics.median(values), "unit": unit,
                                     "samples": len(values), "wall": statistics.median(walls)}
        t = tail(values) if kind != "analyze_cached" else None
        if t is not None:
            out[f"{kind}_tail_{unit}"] = {"value": t[0], "unit": unit, "samples": len(values),
                                          "percentile": round(t[1], 1), "wall": tail(walls)[0]}
    main = [r for r in session.records if r["kind"] == MAIN_KIND[workload.name]]
    out["request_mean_s"] = {"value": statistics.fmean(r["s"] for r in main), "unit": "s",
                             "samples": len(main), "kind": MAIN_KIND[workload.name],
                             "wall": statistics.fmean(r["wall_s"] for r in main)}
    attempted = len(session.records)
    out["ops_per_s"] = {"value": attempted / sum(r["s"] for r in session.records), "unit": "1/s",
                        "samples": attempted,
                        "wall": attempted / sum(r["wall_s"] for r in session.records)}
    out["peak_rss_mb"] = {"value": rss_mb, "unit": "MB", "samples": 1}
    out["failed_ops_ratio"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}
    return out


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAIN_KIND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if not (SRC / "ergorank" / "__init__.py").is_file():
        print(f"error: no ergorank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import checks
        import spans
        import speed
        import workloads
        from ergorank import cli
    except ImportError as exc:
        print(f"error: cannot import ergorank: {exc}", file=sys.stderr)
        return 2

    contract = load_contract()
    workload = workloads.WORKLOADS[args.workload]()
    scratch = RUNS / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        clock = speed.SpeedClock()
        clock.start()
        setup = measure_setup(workload, clock, scratch, args.seed)
        tracer = spans.Tracer() if args.trace else None
        session = Session(tracer)
        passes_s: list[float] = []
        if tracer:
            tracer.install()
        try:
            with session.capture_verdicts(cli):
                begin = time.perf_counter()
                while len(passes_s) < MIN_PASSES or time.perf_counter() - begin < args.seconds:
                    pass_dir = scratch / f"pass{len(passes_s)}"
                    pass_dir.mkdir()
                    start = time.perf_counter()
                    workload.run_pass(session, str(pass_dir))
                    passes_s.append(time.perf_counter() - start)
        finally:
            clock.stop()
            if tracer:
                tracer.uninstall()
        for record in session.records:
            record["wall_s"] = record["end"] - record["start"]
            record["s"] = clock.reference_s(record["start"], record["end"])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        log = checks.run_checks(workload, session)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(1 for r in session.records if not r["ok"] or r["key"] in log.failed_keys)
    attempted = len(session.records)
    metrics = end_to_end(workload, session, setup, rss_mb, failed)
    passes = len(passes_s)
    speed_factor = clock.factor()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": passes, "passes_s": passes_s,
        "environment": environment(nproc, args.seed),
        "setup": setup, "metrics": metrics,
        "speed": {"reference_s": speed.REFERENCE_S, "factor": speed_factor,
                  "samples": len(clock.durations), "spread": spread(clock.durations)},
        "attempted": attempted, "failed": failed, "checks": log.summary(),
        "cache": {"hits": sum(1 for r in session.records if r.get("cached")),
                  "misses": sum(1 for r in session.records
                                if workload.uses_cache and r.get("cached") is False)},
        "output_digest": sha256_text("".join(sorted(f"{k} {f.digest}\n" for k, f in session.first.items()))),
        "requests": [{k: r.get(k) for k in ("kind", "key", "s", "wall_s", "sha256", "ok", "cached", "error")}
                     for r in session.records],
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        # Span times are wall times (kernel samples included); scale them to
        # reference speed with the run's median kernel time.
        layer = {name: value * speed_factor if name.endswith((".s", "_s")) else value
                 for name, value in tracer.metrics(passes).items()}
        layer["cli.cache.hits"] = record["cache"]["hits"] / passes
        layer["cli.cache.misses"] = record["cache"]["misses"] / passes
        layer["trace.pass_s"] = sum(r["s"] for r in session.records) / passes
        record["per_layer"] = layer
        record["missing_targets"] = tracer.missing
        tracer.save(f"{stem}-spans.npz")
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print_summary(record)
    if tracer:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        reported = {name: {"value": record["per_layer"][name], "unit": unit} for name, unit in units.items()}
    else:
        reported = {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in contract["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


def print_summary(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  requests {record['attempted']}  "
          f"wall {sum(record['passes_s']):.1f} s")
    print(f"  {env['cpu']}, nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, "
          f"BLAS {env['blas']} x{env['blas_threads']}, commit {env['git_commit']}")
    for name, m in record["metrics"].items():
        extra = f"  p{m['percentile']}" if "percentile" in m else ""
        print(f"  {name:24s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}{extra}")
    for name, c in record["checks"].items():
        print(f"  check {name:22s} {c['checked'] - c['failed']}/{c['checked']} ok")
        for failure in c["failures"]:
            print(f"    FAILED {failure}")
    print(f"  output digest {record['output_digest']}")
    for name, value in sorted(record.get("per_layer", {}).items()):
        print(f"  {name:44s} {value:14.6g}")


if __name__ == "__main__":
    sys.exit(main())
