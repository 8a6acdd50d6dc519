"""Benchmark for the spectral_risk package: four desk workloads, closed loop.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  One process runs one workload with one
client that sends its next query when the previous one returns.  Every
answer is checked against a fixed reference (bench/oracle.py).  The last
line printed is a JSON object with correct, attempted, failed and the
metrics named in BENCHMARK.json: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  Lines before it print the same
metrics for people, plus query_tail_ms and failed_share, which are not
gated.  --workload all runs every workload, each in its own process.

Noise controls, and why:
  * BLAS is pinned to one thread.  Replication at n = 10M spread 1.7-4.5%
    (quartile distance over median) with one thread and 6-8% with two,
    with outliers 45% above the median.
  * Each workload runs in its own process, so peak_rss_mb is its own.
  * The first query is a warm-up and is left out of the timings.
  * Runs time whole cycles of queries, so every seed sees the same mix of
    query kinds, and report medians; consecutive rounds of one call on a
    shared host differed by up to 15%, which a single query would show.
  * setup_s is the median of several fresh interpreters, one discarded
    first, rather than a single start-up; the rest start between query
    cycles, spread over the run, because the host's speed drifts over
    tens of seconds and a burst of start-ups would sample one moment.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in the set-up probes started below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk-grid", "desk-file", "stress-batch", "tight-tol")
SETUP_PROBES = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="query time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the inputs in a fresh interpreter and report readiness
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import spectral_risk from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import spectral_risk  # noqa: F401
    import workloads

    if Path(spectral_risk.__file__).resolve().parent != SRC / "spectral_risk":
        sys.exit(f"bench: imported spectral_risk from {spectral_risk.__file__}, not {SRC}")
    return workloads


def machine() -> dict:
    import numpy
    import scipy

    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "l3_cache": l3.read_text().strip() if l3.is_file() else "unknown",
    }


class SetupProbe:
    """Times fresh interpreters from start to the workload's inputs being built."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
                    f"--workload={args.workload}", f"--seed={args.seed}"]
        self.samples = []

    def __call__(self):
        start = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"bench: set-up probe failed with exit code {code}")
        self.samples.append(elapsed)


class Run:
    """Outcome of the timing loop for one workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        # queries whose only problems are known defects of the package
        self.known = []
        self.untraced_ms = []
        self.traced_ms = []
        # kernel time and page faults of the timed queries, from getrusage
        self.kernel_ms = 0.0
        self.minor_faults = 0

    def query(self, q, timings):
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = q.call()
        except Exception as exc:  # a query that raises is a failed query, not a crashed run
            elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {exc}"]
            known = False
        else:
            elapsed = time.perf_counter() - start
            found = q.check(out)
            problems = [p.message for p in found]
            known = all(p.known for p in found)
        if timings is not None:
            timings.append(elapsed * 1e3)
        if problems:
            (self.known if known else self.failed).append(f"{q.label}: {'; '.join(problems)}")


def measure(workload, seconds: float, tracer, probe) -> Run:
    """Warm up on one query, then run whole cycles until seconds of query
    time have passed.

    With a tracer, odd cycles run traced and even ones untraced, so the
    overhead comparison sees the same drift on both sides.  With a set-up
    probe, fresh interpreters start between cycles at even steps of query
    time, so set-up is sampled across the run rather than at one moment.
    """
    run = Run()
    run.query(workload.cycle(0)[0], None)
    before = resource.getrusage(resource.RUSAGE_SELF)
    cycles = 0
    busy = 0.0
    while busy < seconds or cycles < (2 if tracer else 1):
        while probe is not None and len(probe.samples) <= SETUP_PROBES * busy / seconds:
            probe()
        cycles += 1
        traced = tracer is not None and cycles % 2 == 0
        timings = run.traced_ms if traced else run.untraced_ms
        queries = workload.cycle(cycles)
        start = time.perf_counter()
        with tracer if traced else contextlib.nullcontext():
            for q in queries:
                run.query(q, timings)
        busy += time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    run.kernel_ms = (after.ru_stime - before.ru_stime) * 1e3
    run.minor_faults = after.ru_minflt - before.ru_minflt
    while probe is not None and len(probe.samples) <= SETUP_PROBES:
        probe()
    return run


def tail(ms: list):
    """Highest listed percentile with at least TAIL_BEYOND queries beyond it."""
    n = len(ms)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(round(pct * n / 100.0, 6))
        if n - rank >= TAIL_BEYOND:
            return pct, sorted(ms)[rank - 1]
    return None, None


def end_to_end(run: Run, setup: list) -> dict:
    ms = run.untraced_ms
    return {
        "setup_s": statistics.median(setup),
        "query_p50_ms": statistics.median(ms),
        "queries_per_s": len(ms) / (sum(ms) / 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, tracer, workload) -> tuple:
    metrics = tracer.per_query(len(run.traced_ms))
    untraced = statistics.fmean(run.untraced_ms)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.fmean(run.traced_ms) / untraced - 1.0)
    timed = len(run.traced_ms) + len(run.untraced_ms)
    metrics["process.sys_ms"] = run.kernel_ms / timed
    metrics["process.minor_faults"] = run.minor_faults / timed
    broken = [f"{name} called {tracer.stats[name].calls} times"
              for name in workload.must_not_call if tracer.stats[name].calls]
    return metrics, broken


def print_report(args, run, metrics, specs, setup, broken):
    units = {m["name"]: m["unit"] for m in specs}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(machine()))
    n = len(run.untraced_ms)
    notes = {"setup_s": f"median of {len(setup)} fresh interpreters" if setup else "",
             "query_p50_ms": f"n={n}", "queries_per_s": f"n={n}"}
    for key in units:
        print(f"  {key:<48} {metrics[key]:>14.6g} {units[key]:<6} {notes.get(key, '')}")
    if not args.trace:
        pct, value = tail(run.untraced_ms)
        if pct is None:
            print(f"  {'query_tail_ms':<48} {'omitted':>14} {'ms':<6} n={n}, "
                  f"too few queries for p{TAIL_PERCENTILES[-1]:g}")
        else:
            print(f"  {'query_tail_ms':<48} {value:>14.6g} {'ms':<6} p{pct:g}, n={n}")
    share = len(run.failed) / run.attempted
    print(f"  {'failed_share':<48} {share:>14.6g} {'ratio':<6} {len(run.failed)} of {run.attempted} queries; "
          f"{len(run.known)} more showed only a known defect")
    for line in run.failed[:5] + broken:
        print(f"  ! {line}")
    for line in run.known[:1]:
        print(f"  known defect: {line}")
    correct = not run.failed and not broken
    result = {"correct": correct, "attempted": run.attempted, "failed": len(run.failed),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs}}
    print(json.dumps(result))


def run_one(args) -> int:
    if not (SRC / "spectral_risk" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC}; run from a full checkout")
    probe = None if args.trace or args.probe else SetupProbe(args)
    if probe is not None:
        probe()  # compiles and caches what later start-ups read; left out of setup_s
    workloads = import_package()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        # numpy seeds must be non-negative; this keeps every seed distinct
        workload = workloads.WORKLOADS[args.workload](args.seed % (1 << 64), Path(workdir))
        if args.probe:
            print("ready", flush=True)
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        run = measure(workload, args.seconds, tracer, probe)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics, broken = per_layer(run, tracer, workload)
        print_report(args, run, metrics, spec["per_layer"], [], broken)
    else:
        setup = probe.samples[1:]
        print_report(args, run, end_to_end(run, setup), spec["end_to_end"], setup, [])
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload != "all":
        return run_one(args)
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), f"--workload={name}", f"--seed={args.seed}",
               f"--seconds={args.seconds:g}", f"--trace={args.trace}"]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
