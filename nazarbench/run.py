#!/usr/bin/env python3
"""Build nazar_bench from source and run one workload of the benchmark.

Usage (from the repository root):

    python3 nazarbench/run.py --workload fleet|ingest|restart|rca \
        --seed N --seconds S --trace 0|1 [--ingest-rate EV_PER_S] [--tiny]

The first call configures and builds `nazar_bench` (CMake, Release) in a
directory of $CARGO_TARGET_DIR (or `.bench_build`) named after this
checkout, so two checkouts never share a build tree; later calls only
re-run the incremental build. The workload runs in its own process. Its
`info` lines pass through, and the last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. BENCHMARK.json is the metric catalogue: run.py adds the
per-layer units, reports 0 for a layer the workload does not exercise,
and refuses a result that names a metric the catalogue lacks or misses
an end-to-end one. Any failure exits non-zero without printing a result
line.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet", "ingest", "restart", "rca")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"nazarbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the benchmark binary incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to nazarbench/")
    key = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "nazarbench-" + key)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "nazar_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "nazar_bench")


def catalogue(trace):
    """Metric name -> unit from BENCHMARK.json for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete(line, trace):
    """The result line checked against the catalogue, in catalogue
    order, with per-layer units and zeros filled in."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last line of the workload is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    want = catalogue(trace)
    got = result["metrics"]
    unknown = sorted(set(got) - set(want))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for name, unit in want.items():
        if name not in got and not trace:
            fail(f"end-to-end metric {name} missing")
        m = got.get(name, {"value": 0.0})
        if (m.get("unit", unit if trace else None) != unit
                or not math.isfinite(m["value"])):
            fail(f"metric {name} has a bad unit or value")
        metrics[name] = {"value": m["value"], "unit": unit}
    result["metrics"] = metrics
    return json.dumps(result)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--ingest-rate", type=float, default=8000.0,
                   help="ingest phase-A offered load, events/s")
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes")
    p.add_argument("--work-dir", default=".bench_out",
                   help="state dirs and trace files (inside the checkout)")
    args = p.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ingest-rate", str(args.ingest_rate),
           "--work-dir", args.work_dir]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{args.workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    lines[-1] = complete(lines[-1], args.trace == 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
