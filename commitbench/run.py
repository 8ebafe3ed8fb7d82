#!/usr/bin/env python3
"""Build and run the commit benchmark (see commitbench/README.md).

    python3 commitbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds commitbench/main.exe from source
into .bench_build/, runs it with a scratch log directory under
.bench_run/, checks that its result names exactly the metrics that
BENCHMARK.json declares, and prints that result as the last line of
standard output.  Exits non-zero without a result when the build, the
run or the check fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "commitbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("commitbench: " + message, file=sys.stderr)
    sys.exit(1)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return spec, {m["name"]: m["unit"] for m in section}


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
             "--profile", "release", "./commitbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % done.returncode)


def check_result(line, declared):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: %r" % line[:200])
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive whole number")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail("metric names differ from BENCHMARK.json: extra %s, missing %s"
             % (sorted(set(metrics) - set(declared)),
                sorted(set(declared) - set(metrics))))
    for name, metric in metrics.items():
        value = metric.get("value")
        if metric.get("unit") != declared[name]:
            fail("unit of %s is %r, declared %r"
                 % (name, metric.get("unit"), declared[name]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("value of %s is not a finite number: %r" % (name, value))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec, declared = declared_metrics(args.trace == 1)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()

    run_dir = os.path.join(ROOT, ".bench_run",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(os.path.dirname(run_dir), exist_ok=True)
    # The benchmark starts restart processes of its own; run it in a
    # process group so a timeout stops all of them.
    proc = subprocess.Popen(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--dir", run_dir],
        cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_run"))
        except OSError:
            pass

    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    result = check_result(lines[-1], declared)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
