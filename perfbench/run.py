#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload interactive_tcp --seed 1 \
        --seconds 10 --trace 0

The build goes to .bench_build/ (incremental after the first run). Build
output and the benchmark's own report go to stderr; the last stdout line
is the result object. Exits non-zero if the build fails, the run fails a
correctness check, or the run does not finish in time.

An untraced run (--trace 0) is five independent processes on the same
seed, each measuring a fifth of --seconds. Every metric reported is the
median of the five processes' figures, and the request counts are their
sums. On a shared VM one process in a few ran markedly faster or slower
than its neighbours (p50 11 us against 17-19 us on interactive_tcp), so a
single process per run set the spread. A traced run is one process.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("interactive_tcp", "bulk_scale", "closed_loop")
RUN_TIMEOUT_S = 175
REPEATS = 5


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3

    return run(binary, args)


def run(binary, args):
    """Runs the repeats, prints the merged result and returns the exit
    code."""
    repeats = REPEATS if args.trace == "0" else 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for repeat in range(repeats):
        workdir = os.path.join(BUILD, f"work-{os.getpid()}-{repeat}")
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds / repeats),
                   "--trace", args.trace, "--workdir", workdir]
        try:
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                   timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 4
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            print(f"perfbench: run exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 5
        results.append(json.loads(lines[-1]))
        if not results[-1]["correct"]:
            break
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(
                       r["metrics"][name]["value"] for r in results),
                   "unit": metric["unit"]}
            for name, metric in results[0]["metrics"].items()
        },
    }
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
