#!/usr/bin/env python3
"""Builds and runs the layer-attributed aaltune benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload tune_init --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --smoke       # seconds-long run of every workload
  python3 perfbench/run.py --self-test   # the benchmark's own unit tests

The first call configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench; later calls only rebuild what
changed. The last line of standard output is the result object; build logs
go to standard error. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 175
WORKLOADS = ["tune_init", "tune_bao", "serve_fleet"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configures (once) and builds `target`; logs go to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(BUILD, target)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def clean_work_dir():
    """Drops stores and generated models; keeps the span dumps."""
    os.makedirs(WORK, exist_ok=True)
    for name in os.listdir(WORK):
        path = os.path.join(WORK, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)


def run(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout text)."""
    clean_work_dir()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK, "--git-sha", git_sha()]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        clean_work_dir()
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def smoke(binary):
    """Runs every workload at smoke scale, traced and untraced, and checks
    that each prints exactly the metric names and units BENCHMARK.json
    declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(binary, workload, 1, 2, trace, smoke=True)
            lines = out.strip().splitlines()
            label = "%s --trace %d" % (workload, trace)
            if code != 0 or not lines:
                problems.append("%s exited %d:\n%s" % (label, code, out))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra or mis-united %s" % (
                                    label, sorted(set(want) - set(got)),
                                    sorted(k for k in got
                                           if want.get(k) != got[k])))
            print("%-24s correct=%s attempted=%d metrics=%d" % (
                label, result["correct"], result["attempted"],
                len(result["metrics"])))
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        return subprocess.run([tests]).returncode
    binary = build("perfbench_run")
    if args.smoke:
        return smoke(binary)
    if args.workload is None:
        parser.error("--workload is required")
    code, out = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
