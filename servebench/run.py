#!/usr/bin/env python3
"""Build and run the serving-simulator benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. The first call configures and builds the
benchmark (servebench/CMakeLists.txt, compiling the library layers from
src/) into .bench_build/ (or $CARGO_TARGET_DIR); later calls rebuild only
what changed. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. `--workload all` runs every workload, each in its own
process, and prints one summary table with failed_share.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("online_soak", "qos_catalog", "qos_slo_traced")
DEFAULT_SEED = 20130520


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "servebench")


def build():
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "online", "server.hpp")):
        print("servebench: library sources (src/) not found next to "
              "servebench/", file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("servebench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out, "servebench")


def run_all(binary, args):
    rows = []
    failed_any = False
    for workload in WORKLOADS:
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0 or not lines:
            failed_any = True
            rows.append((workload, None))
            continue
        rows.append((workload, json.loads(lines[-1])))
    print("\nsummary (seed %d, %s s per workload):" % (args.seed, args.seconds))
    for workload, result in rows:
        if result is None:
            print("  %-15s FAILED (no result)" % workload)
            continue
        share = result["failed"] / result["attempted"]
        metrics = "" if args.trace else "  ".join(
            "%s %.6g %s" % (name, m["value"], m["unit"])
            for name, m in result["metrics"].items())
        print("  %-15s %s  failed_share %.6g ratio" % (workload, metrics, share))
        failed_any = failed_any or not result["correct"]
    return 1 if failed_any else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.workload == "all":
        return run_all(binary, args)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--jobs", str(args.jobs), "--corrupt", str(args.corrupt)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
