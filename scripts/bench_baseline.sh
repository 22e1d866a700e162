#!/usr/bin/env bash
# Performance baseline snapshot: runs the engine microbenchmarks plus one
# full figure benchmark (fig07, single-flap secondary charging) and writes a
# merged JSON artifact:
#
#   {
#     "date": "YYYY-MM-DD",
#     "micro_engine": { "<benchmark>": {"real_time_ns": ..., ...}, ... },
#     "micro_propagation": { "<benchmark>": {"real_time_ns": ..., ...}, ... },
#     "micro_shard": { "<benchmark>": {"real_time_ns": ..., ...}, ... },
#     "fig07": { "wall_s": ..., "profile": { "<kind>": {counts...}, ... } },
#     "ext_full_table": { "wall_s": ... }
#   }
#
# The micro_propagation section includes the BM_Propagation*Stability twins
# (same workloads with the --stability train detectors attached) and the
# BM_Propagation*Telemetry twins (logical counter bundles plus the
# TelemetrySampler advanced on a 1 s sim-time grid); check.sh --bench
# additionally gates each twin's overhead against its plain variant within
# the current run.
#
# The micro_engine numbers are wall-clock and vary with the machine; the
# fig07 profile counts are byte-deterministic (pure functions of the event
# sequence), so a change in a diff of two baselines means the workload
# itself changed, not the hardware. The deterministic scorecards of
# ext_full_table and micro_shard --scorecard are pinned as golden lines in
# tests/golden/artifacts.txt instead.
#
# Usage: scripts/bench_baseline.sh [OUT.json]
#   default OUT: BENCH_<today>.json in the repo root. Compare against the
#   committed baseline with scripts/check.sh --bench.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_$(date +%F).json}"

# Reuse the existing build tree's generator (check.sh configures Ninja on a
# fresh tree; a Makefiles tree works just as well here).
cmake -B build >/dev/null
cmake --build build --target micro_engine micro_propagation micro_shard \
  fig07_secondary_charging ext_full_table >/dev/null

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "running micro_engine..." >&2
./build/bench/micro_engine --benchmark_format=json \
  >"$TMP/micro.json" 2>/dev/null

echo "running micro_propagation..." >&2
./build/bench/micro_propagation --benchmark_format=json \
  >"$TMP/micro_prop.json" 2>/dev/null

echo "running micro_shard (1/2/4/8 shards)..." >&2
./build/bench/micro_shard --benchmark_format=json \
  >"$TMP/micro_shard.json" 2>/dev/null

echo "running fig07_secondary_charging (profiled)..." >&2
FIG07_START=$(date +%s.%N)
./build/bench/fig07_secondary_charging --profile "$TMP/fig07_profile.json" \
  >/dev/null
FIG07_END=$(date +%s.%N)

echo "running ext_full_table (hash and null)..." >&2
FT_START=$(date +%s.%N)
./build/bench/ext_full_table --prefixes 20000 --events 20000 >/dev/null
FT_END=$(date +%s.%N)

python3 - "$TMP/micro.json" "$TMP/micro_prop.json" "$TMP/fig07_profile.json" \
  "$OUT" "$(date +%F)" "$FIG07_START" "$FIG07_END" "$FT_START" "$FT_END" \
  "$TMP/micro_shard.json" <<'PY'
import json
import sys

micro_path, prop_path, profile_path, out_path, date, t0, t1 = sys.argv[1:8]
ft0, ft1, shard_path = sys.argv[8:11]

with open(micro_path) as f:
    micro = json.load(f)
with open(prop_path) as f:
    prop = json.load(f)
with open(profile_path) as f:
    profile = json.load(f)
with open(shard_path) as f:
    shard = json.load(f)


def flatten(report):
    bench = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") != "iteration":
            continue
        bench[b["name"]] = {
            "real_time": b["real_time"],
            "cpu_time": b["cpu_time"],
            "time_unit": b.get("time_unit", "ns"),
            "iterations": b["iterations"],
            "items_per_second": b.get("items_per_second"),
        }
    return bench


out = {
    "date": date,
    "micro_engine": flatten(micro),
    "micro_propagation": flatten(prop),
    "micro_shard": flatten(shard),
    "fig07": {
        "wall_s": round(float(t1) - float(t0), 3),
        "profile": profile,
    },
    "ext_full_table": {
        # Wall time covers the hash and null runs.
        "wall_s": round(float(ft1) - float(ft0), 3),
    },
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
PY

echo "wrote $OUT" >&2
