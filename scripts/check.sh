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
# The plain build treats every compiler warning as an error.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
case "${1:-}" in
  "") ;;
  --fast) FAST=1 ;;
  *) echo "usage: scripts/check.sh [--fast]" >&2; exit 2 ;;
esac

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
