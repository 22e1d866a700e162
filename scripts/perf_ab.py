#!/usr/bin/env python3
"""A/B of two commits on one perfbench workload, in alternating pairs.

    scripts/perf_ab.py PARENT CHANGE WORKLOAD FIRST_SEED PAIRS

Each commit is exported with `git archive` to <tmp>/rfdnet-perf-ab/<sha>,
reused for the same commit, where perfbench/run.py builds it. Pair i runs
seed FIRST_SEED + i on both sides, the parent first on even i; every run is
pinned to one CPU and uses run.py's default run length. For each end-to-end
metric of BENCHMARK.json it prints both medians [q1, q3], the shift, the
pairs the change won (ties count for neither side) and a verdict, from the
first of these rules that holds: `regression` (worse than the metric's
bound), `gain` (better in at least 9 of every 10 pairs, by more than the
parent's q3 - q1, with no more failed runs than the parent), `unresolved`
(the parent's q3 - q1 is wider than the bound and not every change run is
better than every parent run), else `within bound`. A run without a result
has failed; one marked incorrect has no values either. The last line is
one JSON object with all of it, plus nproc, the CPU model and build type.
"""

import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
USAGE = "usage: perf_ab.py PARENT CHANGE WORKLOAD FIRST_SEED PAIRS"
SIDES = ("parent", "change")


def fail(message):
    print("perf_ab.py: " + message, file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    """(q1, median, q3), interpolating between ranks."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent, change, better, bound):
    """Summary and verdict of one metric over the pairs of an A/B.

    `parent[i]` and `change[i]` are pair i's values, None for a run without
    a correct result; `better` is "lower" or "higher", and `bound` the
    relative worsening BENCHMARK.json allows.
    """
    sign = 1.0 if better == "lower" else -1.0

    def gain(p, c):  # > 0 when c reads better than p
        return sign * (p - c)

    pv = [v for v in parent if v is not None]
    cv = [v for v in change if v is not None]
    both = [(p, c) for p, c in zip(parent, change)
            if p is not None and c is not None]
    out = {"pairs": len(parent),
           "wins": sum(1 for p, c in both if gain(p, c) > 0),
           "ties": sum(1 for p, c in both if p == c),
           "parent_failed": len(parent) - len(pv),
           "change_failed": len(change) - len(cv),
           "parent_values": list(parent), "change_values": list(change),
           "parent": None, "change": None, "shift": None,
           "verdict": "unresolved"}
    if not pv or not cv:
        return out
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    out["parent"] = {"median": pm, "q1": p1, "q3": p3}
    out["change"] = {"median": cm, "q1": c1, "q3": c3}

    def rel(x):  # x relative to the parent's median; any move from 0 is inf
        if x == 0:
            return 0.0
        return x / abs(pm) if pm else math.copysign(math.inf, x)

    out["shift"] = rel(cm - pm)
    if rel(-gain(pm, cm)) > bound:
        out["verdict"] = "regression"
    elif (10 * out["wins"] >= 9 * len(parent) and gain(pm, cm) > p3 - p1
          and out["change_failed"] <= out["parent_failed"]):
        out["verdict"] = "gain"
    elif (rel(p3 - p1) > bound
          and not all(gain(p, c) > 0 for p in pv for c in cv)):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "within bound"
    return out


def export(rev):
    """(sha, tree) of `rev`, exported once and built with run.py's build."""
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], capture_output=True, text=True)
    if res.returncode:
        fail("unknown revision " + rev)
    sha = res.stdout.strip()
    tree = os.path.join(tempfile.gettempdir(), "rfdnet-perf-ab", sha)
    if not os.path.isdir(tree):
        part = tree + ".part"
        shutil.rmtree(part, ignore_errors=True)
        os.makedirs(part)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", part], stdin=archive.stdout,
                       check=True)
        if archive.wait():
            fail("git archive failed for " + sha)
        os.rename(part, tree)
    # Built here on every CPU, so the first pinned run does not compile on
    # one; build() exits 2 when the build fails.
    spec = importlib.util.spec_from_file_location(
        "run_" + sha, os.path.join(tree, "perfbench", "run.py"))
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    run_py.build()
    return sha, tree


def field(path, key, sep):
    """Value of the first `key<sep>value` line of a text file."""
    with open(path) as f:
        for line in f:
            if line.startswith(key):
                return line.split(sep, 1)[1].strip()
    return ""


def run_once(tree, workload, seed, cpu):
    """One run.py run pinned to `cpu`: ("ok"|"failed"|"incorrect", metrics)."""
    res = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        result = json.loads(res.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        return "failed", {}
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    return ("ok" if result["correct"] else "incorrect"), metrics


def quartile_text(stats):
    if stats is None:
        return "-"
    return "%.4g [%.4g, %.4g]" % (stats["median"], stats["q1"], stats["q3"])


def main(argv):
    if len(argv) != 5:
        fail(USAGE)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workload = argv[2]
    if workload not in [w["name"] for w in declared["workloads"]]:
        fail("unknown workload " + workload)
    try:
        first_seed, pairs = int(argv[3]), int(argv[4])
    except ValueError:
        fail(USAGE)
    if first_seed < 0 or pairs < 1:
        fail("FIRST_SEED must be >= 0 and PAIRS >= 1")

    shas, trees = {}, {}
    for side, rev in zip(SIDES, argv[:2]):
        shas[side], trees[side] = export(rev)
    cpu = max(os.sched_getaffinity(0))
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else reversed(SIDES):
            status, metrics = run_once(trees[side], workload, first_seed + i,
                                       cpu)
            runs[side].append((status, metrics))
            print("pair %d seed %d %-6s %-9s %s" % (
                i, first_seed + i, side, status,
                " ".join("%s=%.4g" % kv for kv in metrics.items())),
                flush=True)

    report = {
        "parent": shas["parent"], "change": shas["change"],
        "workload": workload, "first_seed": first_seed, "pairs": pairs,
        "cpu": cpu, "nproc": os.cpu_count(),
        "cpu_model": field("/proc/cpuinfo", "model name", ":"),
        "build_type": {s: field(os.path.join(
            trees[s], ".bench_build", "perfbench", "CMakeCache.txt"),
            "CMAKE_BUILD_TYPE:", "=") for s in SIDES},
        "runs": {s: {status: sum(1 for r, _ in runs[s] if r == status)
                     for status in ("failed", "incorrect")} for s in SIDES},
        "metrics": {},
    }
    print("\n%s: parent %.10s, change %.10s, %d pairs from seed %d, CPU %d"
          % (workload, shas["parent"], shas["change"], pairs, first_seed, cpu))
    print("failed/incorrect runs: " + ", ".join(
        "%s %d/%d" % (s, report["runs"][s]["failed"],
                      report["runs"][s]["incorrect"]) for s in SIDES))
    row = "%-12s %-28s %-28s %8s %6s  %s"
    print(row % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
                 "shift", "won", "verdict"))
    for m in declared["end_to_end"]:
        values = [[ms.get(m["name"]) if st == "ok" else None
                   for st, ms in runs[s]] for s in SIDES]
        c = compare(*values, m["better"], m["bound"])
        report["metrics"][m["name"]] = c
        shift = "-" if c["shift"] is None else "%+.1f%%" % (100 * c["shift"])
        print(row % (m["name"], quartile_text(c["parent"]),
                     quartile_text(c["change"]), shift,
                     "%d/%d" % (c["wins"], c["pairs"]), c["verdict"]))
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
