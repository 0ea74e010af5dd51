#!/usr/bin/env python3
"""The repository's benchmark: builds the benchmark program, runs one workload, checks
the names and units it reports against BENCHMARK.json, and prints the
result line last.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a checkout. It builds perfbench/ (which compiles the
quake libraries from ../src) into .bench_build/perfbench, and keeps its
scratch files (etree stores, checkpoints, hashes, traces) under
.bench_build/. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # The build system is generated only by a configure that succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(BUILD, "perfbench")


def workload_args(spec, name):
    w = spec["workloads"][name]
    if "ladder_rps" not in w:
        return []
    return ["--ladder", ",".join(str(r) for r in w["ladder_rps"]),
            "--nominal", str(w["nominal_rps"]),
            "--limit", str(w["latency_limit_s"]),
            "--lanes", str(w["lanes"]),
            "--ranks-per-lane", str(w["ranks_per_lane"]),
            "--queue-bound", str(w["queue_bound"])]


def run_program(exe, spec, name, seed, seconds, trace, smoke):
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(TRACES, exist_ok=True)
    cmd = [exe, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK,
           "--trace-out", os.path.join(TRACES, f"{name}-seed{seed}.json")]
    cmd += workload_args(spec, name)
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    lines = p.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{name} printed no result (exit {p.returncode})")
    return result, p.returncode


def expected(bench, spec, name, trace):
    """(name -> unit) this workload must print, and the full set to report."""
    if not trace:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        return units, units
    all_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    mine = spec["workloads"][name]["per_layer"]
    return {m: all_units.get(m, "?") for m in mine}, all_units


def check_names(result, want, name):
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        return (f"{name}: metric names/units differ from the spec: "
                f"missing {missing}, unexpected {extra}, unit mismatch {units}")
    return None


def run_one(args, bench, spec):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    exe = build()
    result, code = run_program(exe, spec, args.workload, args.seed,
                              args.seconds, args.trace, False)
    want, full = expected(bench, spec, args.workload, args.trace)
    err = check_names(result, want, args.workload)
    if err:
        fail(err)
    # Layers this workload does not exercise did no work in it: report 0.
    for metric, unit in full.items():
        result["metrics"].setdefault(metric, {"value": 0, "unit": unit})
    print(json.dumps(result))
    sys.stdout.flush()
    return code


def smoke(bench, spec):
    """Runs every workload at toy size, traced and untraced, and checks that
    the names and units each prints match BENCHMARK.json exactly."""
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    if sorted(names) != sorted(spec["workloads"]):
        problems.append(f"workloads differ: BENCHMARK.json {names}, "
                        f"spec.json {sorted(spec['workloads'])}")
    layer_union = set()
    for w in spec["workloads"].values():
        layer_union |= set(w["per_layer"])
    declared = {m["name"] for m in bench["per_layer"]}
    if layer_union != declared:
        problems.append(f"per-layer metrics differ: only in spec.json "
                        f"{sorted(layer_union - declared)}, only in "
                        f"BENCHMARK.json {sorted(declared - layer_union)}")
    mapped = set(spec["layer_map"])
    if mapped != declared:
        problems.append(f"layer_map misses {sorted(declared - mapped)}, "
                        f"has extra {sorted(mapped - declared)}")
    exe = build()
    for name in names:
        for trace in (0, 1):
            result, code = run_program(exe, spec, name, 1, 1, trace, True)
            want, _ = expected(bench, spec, name, trace)
            err = check_names(result, want, name)
            if err:
                problems.append(f"{err} (trace {trace})")
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: exit {code}, "
                                f"correct {result['correct']}, "
                                f"failed {result['failed']}")
            print(f"smoke {name} trace {trace}: "
                  f"{len(result['metrics'])} metrics", file=sys.stderr)
    for p in problems:
        print(f"perfbench smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok"}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    if args.smoke:
        return smoke(bench, spec)
    if not args.workload:
        ap.error("--workload is required (or --smoke)")
    return run_one(args, bench, spec)


if __name__ == "__main__":
    sys.exit(main())
