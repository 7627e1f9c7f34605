"""dompoly benchmark: one process, one client, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The next request is sent only after the
previous one returns.  With --trace 0 the run warms up, then sends whole
decks of requests (see workloads.py) until at least S seconds have passed and
at least MIN_REQUESTS requests were made, and reports the end-to-end
metrics.  With --trace 1 it sends every request of a fixed number of decks
twice, untraced and with spans recorded around the public functions of every
module, and reports the per-layer metrics; the spans go to .bench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the seed, the
sample count and the environment.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: one process, no extra threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import mpmath

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_REQUESTS = 100  # so that ten samples lie beyond the p90
HARD_LIMIT_S = 150.0  # stop sending decks after this long, whatever the count
WARMUP_S = 2.0
SETUP_REPEATS = 3
IMPORT_CHILD = ("import time; t = time.perf_counter(); import dompoly.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
    }


def setup_seconds() -> float:
    """Median time, in reference seconds, to import dompoly.cli in a fresh
    interpreter; the speed is calibrated here, right before and after."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        before = clock.calibration()
        done = subprocess.run([sys.executable, "-c", IMPORT_CHILD], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        if attempt:  # the first import may still compile bytecode
            times.append(clock.reference_seconds(float(done.stdout), before,
                                                 clock.calibration()))
    return statistics.median(times)


class Run:
    """Times and failures of the timed requests."""

    def __init__(self):
        self.wall: list[float] = []
        self.failures: list[str] = []
        self.windows: list[tuple[float, float]] = []  # (start, end) per request
        self.speed: list[tuple[float, float]] = []  # (when, calibration)

    def calibrate(self) -> None:
        self.speed.append((perf_counter(), clock.calibration()))

    def execute(self, request, tracer=None) -> None:
        """Time one request, recording spans if a tracer is given, then
        check its output outside the timed region."""
        if not self.speed:
            self.calibrate()
        start = perf_counter()
        if tracer:
            tracer.recording = True
        try:
            result = request.run()
        except Exception as exc:  # a failed request is counted, not fatal
            self.failures.append(f"{request.label}: {type(exc).__name__}: {exc}")
            return
        finally:
            end = perf_counter()
            if tracer:
                tracer.recording = False
            self.wall.append(end - start)
            self.windows.append((start, end))
            self.calibrate()
        try:
            request.check(result)
        except Exception as exc:  # a malformed output is a failed check
            self.failures.append(f"{request.label}: check: {type(exc).__name__}: {exc}")

    @property
    def latencies(self) -> list[float]:
        """Request times in reference seconds."""
        return clock.reference_times(self.wall, self.windows, self.speed)

    def merged(self, other: "Run") -> "Run":
        both = Run()
        both.wall = self.wall + other.wall
        both.failures = self.failures + other.failures
        both.windows = self.windows + other.windows
        both.speed = sorted(self.speed + other.speed)
        return both


def warm_up(workload, seed, ctx) -> None:
    """Let interpreter and mpmath caches fill before anything is timed."""
    start = perf_counter()
    scratch = Run()
    for request in next(workload.decks(random.Random(f"{workload.name}:{seed}:warmup"), ctx)):
        scratch.execute(request)
        if perf_counter() - start >= WARMUP_S:
            break


def measure(workload, seed, seconds, ctx) -> tuple[Run, int]:
    run = Run()
    start = perf_counter()
    decks = workload.decks(random.Random(f"{workload.name}:{seed}"), ctx)
    for count, deck in enumerate(decks, 1):
        for request in deck:
            run.execute(request)
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(run.wall) >= MIN_REQUESTS) or elapsed >= HARD_LIMIT_S:
            return run, count


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: every order statistic
    weighted by the Beta((n+1)p, (n+1)(1-p)) mass of its 1/n step.  Request
    costs come in clusters, and one or two order statistics jump between
    them from run to run; the weighted mean does not."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def end_to_end(run: Run) -> dict[str, float]:
    lat = run.latencies
    completed = len(lat) - len(run.failures)
    return {
        "req_per_s": completed / sum(lat),
        "latency_p50_s": quantile(lat, 0.5),
        "latency_p90_s": quantile(lat, 0.9),
        "success_ratio": completed / len(lat),
        "setup_s": setup_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload, seed, ctx, spans_path) -> tuple[Run, dict[str, float]]:
    """Each request of a fixed number of decks, sent untraced and traced back
    to back, so both sides see the same machine speed; which goes first
    alternates, so neither gains from the other's warm caches."""
    import tracing

    decks = workload.decks(random.Random(f"{workload.name}:{seed}"), ctx)
    requests = [r for deck in itertools.islice(decks, workload.trace_decks) for r in deck]
    plain, spanned = Run(), Run()
    tracer = tracing.Tracer()
    for index, request in enumerate(requests):
        for with_spans in ((False, True) if index % 2 else (True, False)):
            if with_spans:
                with tracing.installed(tracer):
                    spanned.execute(request, tracer)
            else:
                plain.execute(request)
    tracer.write_spans(spans_path)
    ratio = sum(spanned.latencies) / sum(plain.latencies)
    return plain.merged(spanned), tracing.layer_metrics(tracer, ratio)


def unit(name: str) -> str:
    for suffix, value in (("_per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio"),
                          ("_mb", "MB"), ("_bits", "bits")):
        if name.endswith(suffix):
            return value
    return "count"


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "dompoly", "cli.py")):
        print(f"error: no dompoly sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        ctx = workloads.Context(workdir)
        warm_up(workload, args.seed, ctx)
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
            run, values = traced(workload, args.seed, ctx, spans_path)
            extra = {"spans": os.path.relpath(spans_path, ROOT), "decks": workload.trace_decks}
        else:
            run, decks = measure(workload, args.seed, args.seconds, ctx)
            values = end_to_end(run)
            extra = {"decks": decks}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in run.failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "samples": len(run.wall), **extra,
            "wall_p50_s": statistics.median(run.wall), "wall_sum_s": sum(run.wall),
            "reference_sum_s": sum(run.latencies), "environment": environment()}
    print(json.dumps(info))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(run.wall),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
