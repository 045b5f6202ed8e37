#!/usr/bin/env python3
"""Runs the real-socket GlobeDoc benchmark.

Builds the benchmark binary (and the GlobeDoc libraries it links) from the
source tree next to this directory, runs one workload and prints the
binary's report lines followed by one JSON result as the last line:

    python3 e2ebench/run.py --workload warm_small --seed 1 --seconds 10 --trace 0

--trace 1 runs the traced variant (per-layer metrics) and writes a sample of
its span trees to .bench_out/spans-<workload>.jsonl.

    python3 e2ebench/run.py --all --seconds 20

runs every workload in turn (untraced) and prints each one's report.

    python3 e2ebench/run.py --check

builds and runs the benchmark's unit tests, then a short smoke run of every
workload in both modes that asserts every metric named in BENCHMARK.json is
printed and every output check passed.

The build goes to .bench_build/e2ebench under the repository root.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "globedoc_e2ebench")
SELFTEST = os.path.join(BUILD, "e2ebench_selftest")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures on first use, then builds `targets`.  Raises on failure."""
    configured = any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for target in targets:
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the binary once; returns the parsed result.  Raises on failure."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans-out", os.path.join(OUT, f"spans-{workload}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"unexpected result keys {sorted(result)}")
    want, got = metric_names(trace), list(result["metrics"])
    if sorted(want) != sorted(got):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise RuntimeError(f"metric set differs: missing {missing}, extra {extra}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise RuntimeError("attempted must be a positive integer")
    return result


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def check():
    """Unit tests plus a smoke run of every workload in both modes."""
    build(["globedoc_e2ebench", "e2ebench_selftest"])
    if not os.path.exists(SELFTEST):
        raise RuntimeError("GTest not found: e2ebench_selftest was not built")
    subprocess.run([SELFTEST], check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=RUN_TIMEOUT_S)
    for workload in workload_names():
        for trace in (False, True):
            result = run_once(workload, 1, 2, trace, echo=False)
            if result["correct"] is not True:
                raise RuntimeError(f"{workload} trace={int(trace)}: output checks failed")
            log(f"smoke {workload} trace={int(trace)}: "
                f"{len(result['metrics'])} metrics, attempted={result['attempted']}, "
                f"failed={result['failed']}")
    log("check passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--check", action="store_true",
                        help="run the unit tests and a smoke run of every workload")
    args = parser.parse_args()
    try:
        if args.check:
            check()
            return 0
        if args.all:
            build(["globedoc_e2ebench"])
            correct = True
            for workload in workload_names():
                result = run_once(workload, args.seed, args.seconds, bool(args.trace))
                print(json.dumps(result), flush=True)
                correct = correct and result["correct"] is True
            return 0 if correct else 1
        if not args.workload:
            parser.error("--workload is required")
        build(["globedoc_e2ebench"])
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
