#!/usr/bin/env bash
# Strict CLI parsing regression: every numeric flag must reject garbage with
# exit code 2 and a per-flag message, on real binaries (not just unit tests).
#
# Usage: cli_strict_test.sh <rfdsim> <repro_scorecard> <ext_full_table> <rfdnetd>
#
# Registered in ctest as CliStrictParse (label: fast). Every case here exits
# during argument handling, before any simulation work starts, so the whole
# script runs in well under a second.
set -u

if [ "$#" -ne 4 ]; then
  echo "usage: $0 <rfdsim> <repro_scorecard> <ext_full_table> <rfdnetd>" >&2
  exit 2
fi
RFDSIM=$1
SCORECARD=$2
FULL_TABLE=$3
RFDNETD=$4

failures=0

# expect2 <description> <message-substring> <cmd...>
# Asserts the command exits 2 and prints the substring on stderr.
expect2() {
  local desc=$1 needle=$2
  shift 2
  local stderr rc
  stderr=$("$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: $desc — expected exit 2, got $rc ($*)" >&2
    failures=$((failures + 1))
    return
  fi
  case "$stderr" in
    *"$needle"*) echo "ok: $desc" ;;
    *)
      echo "FAIL: $desc — stderr missing '$needle': $stderr" >&2
      failures=$((failures + 1))
      ;;
  esac
}

# --- rfdsim: the flag-rich example ---------------------------------------
expect2 "rfdsim rejects garbage --seed" "invalid value 'abc' for --seed" \
  "$RFDSIM" --seed abc
expect2 "rfdsim rejects trailing garbage in --pulses" \
  "invalid value '3x' for --pulses" "$RFDSIM" --pulses 3x
expect2 "rfdsim rejects negative --seed (u64)" \
  "invalid value '-1' for --seed" "$RFDSIM" --seed=-1
expect2 "rfdsim rejects flag-like value for --telemetry-out" \
  "missing value for --telemetry-out" "$RFDSIM" --telemetry-out --metrics
expect2 "rfdsim rejects duplicate --seed" "duplicate flag --seed" \
  "$RFDSIM" --seed 1 --seed 2
expect2 "rfdsim rejects non-numeric --interval" \
  "invalid value 'fast' for --interval" "$RFDSIM" --interval fast

# --- repro_scorecard: the --jobs contract (configure_from_args) -----------
expect2 "repro_scorecard rejects --jobs 0" "invalid value '0' for --jobs" \
  "$SCORECARD" --jobs 0
expect2 "repro_scorecard rejects garbage --jobs" \
  "invalid value 'abc' for --jobs" "$SCORECARD" --jobs abc
expect2 "repro_scorecard rejects flag-like --jobs value" \
  "missing value for --jobs" "$SCORECARD" --jobs --metrics

# --- ext_full_table: bench-side numerics ----------------------------------
expect2 "ext_full_table rejects garbage --seed" \
  "invalid value 'abc' for --seed" "$FULL_TABLE" --seed abc
expect2 "ext_full_table rejects garbage --prefixes" \
  "invalid value '10k' for --prefixes" "$FULL_TABLE" --prefixes 10k
expect2 "ext_full_table rejects --trace" "--trace is not supported" \
  "$FULL_TABLE" --trace /tmp/cli-strict-unused
expect2 "ext_full_table rejects --trace-format" \
  "--trace-format is not supported" "$FULL_TABLE" --trace-format jsonl
expect2 "ext_full_table rejects --profile" "--profile is not supported" \
  "$FULL_TABLE" --profile -

# --- rfdnetd: daemon flags -------------------------------------------------
expect2 "rfdnetd rejects garbage --queue" "invalid value 'abc' for --queue" \
  "$RFDNETD" --socket /tmp/cli-strict-unused.sock --queue abc
expect2 "rfdnetd rejects --jobs 0" "invalid value '0' for --jobs" \
  "$RFDNETD" --jobs 0

# --- positive controls: valid invocations still work ----------------------
if ! "$RFDSIM" --help >/dev/null 2>&1; then
  echo "FAIL: rfdsim --help should exit 0" >&2
  failures=$((failures + 1))
else
  echo "ok: rfdsim --help exits 0"
fi
if ! "$RFDNETD" --help >/dev/null 2>&1; then
  echo "FAIL: rfdnetd --help should exit 0" >&2
  failures=$((failures + 1))
else
  echo "ok: rfdnetd --help exits 0"
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures strict-parse case(s) failed" >&2
  exit 1
fi
echo "all strict-parse cases passed"
