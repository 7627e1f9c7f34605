"""Quick self-test of the benchmark, about half a minute:

    python3 bench/selftest.py

- BENCHMARK.json has the required shape;
- every workload, run on three requests, prints exactly the end-to-end
  metrics named in BENCHMARK.json (--trace 0) and exactly the per-layer ones
  (--trace 1), with the units given there, and its outputs pass the checks;
- the reference formulas the checks use agree with brute force;
- without the dompoly sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the thread pins before numpy loads)
import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from dompoly.domination import brute_force_poly  # noqa: E402
from dompoly.graphs import Graph  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message: str) -> None:
    raise SystemExit(f"selftest: {message}")


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        fail(f"workloads {names} != {sorted(workloads.WORKLOADS)}")
    seen = set()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(metric["name"]) or metric["name"] in seen:
            fail(f"bad or repeated name {metric['name']!r}")
        seen.add(metric["name"])
        if not UNIT.match(metric["unit"]) or metric["better"] not in ("higher", "lower"):
            fail(f"bad unit or direction for {metric['name']}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if max(bounds.values()) > 0.25 or bounds.get("setup_s") != max(bounds.values()):
        fail("bounds must be <= 0.25 with setup_s the largest")


def emitted(name: str, trace: int) -> dict:
    """The result line of a run of `name` on three requests."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    if code != 0:
        fail(f"{name} --trace {trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    run.WARMUP_S = 0.0
    run.MIN_REQUESTS = 1
    for name, workload in list(workloads.WORKLOADS.items()):
        workloads.WORKLOADS[name] = workloads.Workload(
            name, lambda rng, ctx, decks=workload.decks: (d[:3] for d in decks(rng, ctx)), 1)
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = emitted(name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{name} --trace {trace}: {result['failed']} failed")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{name} --trace {trace}: metrics differ: "
                     f"{sorted(set(got) ^ set(want))}")
        workloads.WORKLOADS[name] = workload
        print(f"ok {name}")


def check_formulas() -> None:
    for kind in ("friendship", "book", "book_contracted", "complete", "cycle", "path", "star"):
        for n in range(3, 8):
            order, edges = gen.family_edges(kind, n)
            coeffs = list(brute_force_poly(Graph(order, edges)).coeffs)
            for x in checks.EVAL_POINTS:
                if checks.horner(coeffs, x) != checks.family_value(kind, n, x):
                    fail(f"formula for {kind}:{n} disagrees with brute force")
    print("ok formulas")


def check_bare_directory() -> None:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "roots-solve",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        fail("a directory without sources must fail without a result")
    print("ok bare directory")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    check_formulas()
    check_bare_directory()
    check_metrics(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
