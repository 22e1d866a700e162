#!/usr/bin/env bash
# Full verification pass: configure, build, run every test (plain and under
# ASan/UBSan), every benchmark and the reproduction scorecard. Exits
# non-zero on any failure.
#
# `check.sh --fast` runs the fast ctest tier only (unit suites labeled
# `fast`; see tests/CMakeLists.txt) — the sub-second edit loop. The full
# pass also runs the `slow` (experiment/integration) and `property`
# (randomized oracle) tiers plus both sanitizer legs.
#
# `check.sh --bench` runs the perf-baseline tier instead: it takes a fresh
# snapshot with scripts/bench_baseline.sh and fails if any micro_engine,
# micro_propagation or micro_shard benchmark regressed more than 20%
# against the newest committed BENCH_*.json (wall-clock jitter on shared
# machines sits well under that), or if the full-table workload's wall time
# regressed past the same limit. The deterministic scorecards this tier
# used to compare (ext_full_table's and micro_shard's) are golden lines in
# tests/golden/artifacts.txt, checked by ctest.
#
# The plain build treats every compiler warning as an error.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
BENCH=0
if [[ "${1:-}" == "--fast" ]]; then FAST=1; fi
if [[ "${1:-}" == "--bench" ]]; then BENCH=1; fi

if [[ "$BENCH" == 1 ]]; then
  BASELINE=$(ls -1 BENCH_*.json 2>/dev/null | sort | tail -1 || true)
  if [[ -z "$BASELINE" ]]; then
    echo "check.sh --bench: no committed BENCH_*.json baseline found" >&2
    exit 1
  fi
  CURRENT=$(mktemp /tmp/bench_current.XXXXXX.json)
  trap 'rm -f "$CURRENT"' EXIT
  scripts/bench_baseline.sh "$CURRENT"
  python3 - "$BASELINE" "$CURRENT" <<'PY'
import json
import sys

baseline_path, current_path = sys.argv[1:3]
with open(baseline_path) as f:
    base = json.load(f)
with open(current_path) as f:
    cur = json.load(f)

LIMIT = 1.20  # fail above +20% real time
failed = []
for section in ("micro_engine", "micro_propagation", "micro_shard"):
    for name, b in sorted(base.get(section, {}).items()):
        c = cur.get(section, {}).get(name)
        if c is None:
            failed.append(f"{section}/{name}: missing from current run")
            continue
        ratio = c["real_time"] / b["real_time"]
        unit = b.get("time_unit", "ns")
        marker = "FAIL" if ratio > LIMIT else "ok"
        print(f"  {marker:4} {section}/{name}: {ratio:.2f}x baseline "
              f"({c['real_time']:.0f} vs {b['real_time']:.0f} {unit})")
        if ratio > LIMIT:
            failed.append(f"{section}/{name}: {ratio:.2f}x baseline")

base_ft = base.get("ext_full_table")
cur_ft = cur.get("ext_full_table")
if base_ft and cur_ft:
    ratio = cur_ft["wall_s"] / base_ft["wall_s"] if base_ft["wall_s"] else 1.0
    marker = "FAIL" if ratio > LIMIT else "ok"
    print(f"  {marker:4} ext_full_table/wall: {ratio:.2f}x baseline "
          f"({cur_ft['wall_s']:.2f} vs {base_ft['wall_s']:.2f} s)")
    if ratio > LIMIT:
        failed.append(f"ext_full_table/wall: {ratio:.2f}x baseline")

# Observability overhead gates: the --stability probe and --telemetry
# record-path variants of the propagation microbenchmarks must stay cheap
# relative to their plain twins *within the current run* (target < 5% wall
# overhead; gated at the same jitter-tolerant LIMIT as the baseline
# comparisons so a noisy shared machine doesn't flake the pass).
for kind, plain, probed in (
    ("stability", "BM_PropagationMesh100/2", "BM_PropagationMesh100Stability/2"),
    ("stability", "BM_PropagationInternet208/2",
     "BM_PropagationInternet208Stability/2"),
    ("telemetry", "BM_PropagationMesh100/2", "BM_PropagationMesh100Telemetry/2"),
    ("telemetry", "BM_PropagationInternet208/2",
     "BM_PropagationInternet208Telemetry/2"),
):
    p = cur.get("micro_propagation", {}).get(plain)
    s = cur.get("micro_propagation", {}).get(probed)
    if p is None or s is None:
        failed.append(f"micro_propagation overhead pair missing: "
                      f"{plain} vs {probed}")
        continue
    ratio = s["real_time"] / p["real_time"]
    marker = "FAIL" if ratio > LIMIT else "ok"
    print(f"  {marker:4} {kind} overhead {probed}: {ratio:.2f}x plain")
    if ratio > LIMIT:
        failed.append(f"{kind} overhead {probed}: {ratio:.2f}x plain")

if failed:
    print(f"bench tier FAILED vs {baseline_path}:", file=sys.stderr)
    for f_ in failed:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print(f"bench tier passed vs {baseline_path}")
PY
  exit 0
fi

cmake -B build -G Ninja -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build

if [[ "$FAST" == 1 ]]; then
  ctest --test-dir build --output-on-failure -L fast
  echo "fast checks passed"
  exit 0
fi

ctest --test-dir build --output-on-failure

# Daemon smoke leg: start rfdnetd on a tmpdir-scoped socket and submit two
# jobs twice each: one asking for `scorecard` (it runs on the keyed driver)
# and one asking only for `result` (it runs on the serial driver). Every
# reply must be one line, and each resubmission a byte-identical cache hit.
# Then SIGTERM the daemon and require a clean drain (exit 0, socket
# unlinked). This exercises the real signal path, which the in-process
# SvcDaemon suite cannot.
SMOKE_DIR=$(mktemp -d /tmp/rfdnetd-smoke.XXXXXX)
SOCK="$SMOKE_DIR/rfdnetd.sock"
JOB='"topology":{"kind":"mesh","width":3,"height":3},"pulses":1,"seed":42'
build/examples/rfdnetd --socket "$SOCK" --queue 8 --cache 32 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.05
done
[[ -S "$SOCK" ]] || { echo "rfdnetd smoke: socket never appeared" >&2; exit 1; }
for OUTPUT in scorecard result; do
  REQ="{\"op\":\"run\",\"job\":{$JOB,\"outputs\":[\"$OUTPUT\"]}}"
  R1=$(build/examples/rfdnetd --ctl --socket "$SOCK" --request "$REQ")
  R2=$(build/examples/rfdnetd --ctl --socket "$SOCK" --request "$REQ")
  for R in "$R1" "$R2"; do
    if [[ "$R" != '{"ok":true,'* || "$R" == *$'\n'* ]]; then
      echo "rfdnetd smoke: $OUTPUT reply is not one ok line: $R" >&2
      exit 1
    fi
  done
  if [[ "$R1" != "$R2" ]]; then
    echo "rfdnetd smoke: cached $OUTPUT resubmission was not byte-identical" >&2
    exit 1
  fi
done
build/examples/rfdnetd --ctl --socket "$SOCK" --status \
  | grep -q '"cache_hits":2' \
  || { echo "rfdnetd smoke: expected exactly two cache hits" >&2; exit 1; }
kill -TERM "$DAEMON_PID"
if ! wait "$DAEMON_PID"; then
  echo "rfdnetd smoke: daemon exited non-zero on SIGTERM" >&2
  exit 1
fi
[[ -S "$SOCK" ]] && { echo "rfdnetd smoke: socket not unlinked" >&2; exit 1; }
rm -rf "$SMOKE_DIR"
echo "rfdnetd smoke leg passed"

# Sanitizer pass: the ParallelRunner thread pool, the event engine's slot
# recycling and the fault-injection property suites must come up clean under
# ASan + UBSan.
cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
cmake --build build-asan
ctest --test-dir build-asan --output-on-failure

# TSan leg: the thread pool plus the obs metrics path (per-trial registries
# written by workers, merged canonically afterwards) must be race-free; the
# fault-storm sweep adds per-trial injectors and trace files to that path,
# the sharded-engine determinism suite exercises the barrier/inbox
# synchronization under the real BGP workload, the slot-delivery suite
# checks that cross-shard updates land on their sender's slot, the
# stability/telemetry property suites pin the per-shard tracker and sampler
# merge contracts, the live-entry oracle checks the damping counters against
# their walk on the 2-shard full table, and the svc suites hammer the
# daemon's single-flight dispatcher and drain path from concurrent client
# threads.
# ASan and TSan cannot share a build, hence the third tree; scope it to the
# threaded suites to keep the pass quick.
cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
cmake --build build-tsan --target core_tests property_tests stability_tests \
  telemetry_tests svc_tests bgp_tests
ctest --test-dir build-tsan --output-on-failure \
  -R 'ParallelRunner|SweepDeterminism|ObsDeterminism|FaultSweepOracle|ShardedDeterminism|SlotDelivery|StabilityProperty|TelemetryProperty|TelemetryOracle|SvcService|SvcDaemon|LiveEntriesOracle'

for b in build/bench/*; do
  echo "===== $(basename "$b") ====="
  "$b"
  echo
done

echo "all checks passed"
