#!/usr/bin/env python3
"""Builds and runs the rfdnet benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
`perfbench` binary and the `rfdnetd` daemon from the checkout's sources into
`.bench_build/`; later calls only let CMake confirm they are current. The
binary's notes and every metric (name, value, unit) go to stdout, and the
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Untraced runs (--trace 0) report the end-to-end metrics of BENCHMARK.json,
traced runs (--trace 1) its per-layer metrics; a layer the workload does not
run reports 0. Exits non-zero, without a result, when the build fails, and
with a result marked incorrect when any check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["paper_sweep", "internet_flap", "full_table_churn",
             "whatif_daemon"]
# Longer than any run's measuring time plus its set-up, shorter than the
# 180 s a run may take in total.
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rfdnet sources under " + ROOT + "/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "rfdnetd"])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_bench(args, tmp_dir):
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rfdnetd", os.path.join(BUILD, "rfdnetd"), "--tmp-dir", tmp_dir]
    # A new process group, so a timeout can take the daemon child with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # any straggler
        except ProcessLookupError:
            pass
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    build()

    os.makedirs(os.path.dirname(BUILD), exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.dirname(BUILD))
    try:
        out = run_bench(args, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("perfbench printed no result")
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            print("metric %s (%s) is not declared" % (name, m["unit"]))
            result["correct"] = False
    for name, unit in units.items():
        if name in metrics:
            continue
        if not args.trace:
            print("missing end-to-end metric " + name)
            result["correct"] = False
        metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {n: metrics[n] for n in units}

    for name, m in result["metrics"].items():
        print("%-32s %.9g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
