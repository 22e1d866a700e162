#!/usr/bin/env bash
# Strict CLI parsing regression: every numeric flag must reject garbage with
# exit code 2 and a per-flag message, on real binaries (not just unit tests).
#
# Usage: cli_strict_test.sh <rfdsim> <repro_scorecard> <ext_full_table> <rfdnetd>
#                           <ext_fault_storm> <ext_multi_origin>
#
# Registered in ctest as CliStrictParse (label: fast). Every case here exits
# during argument handling or config validation, before any simulation work
# starts, so the whole script runs in well under a second.
set -u

if [ "$#" -ne 6 ]; then
  echo "usage: $0 <rfdsim> <repro_scorecard> <ext_full_table> <rfdnetd>" \
    "<ext_fault_storm> <ext_multi_origin>" >&2
  exit 2
fi
RFDSIM=$1
SCORECARD=$2
FULL_TABLE=$3
RFDNETD=$4
FAULT_STORM=$5
MULTI_ORIGIN=$6

failures=0

# expect_exit <code> <description> <message-substring> <cmd...>
# Asserts the command exits with <code> and prints the substring on stderr.
expect_exit() {
  local want=$1 desc=$2 needle=$3
  shift 3
  local stderr rc
  stderr=$("$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL: $desc — expected exit $want, got $rc ($*)" >&2
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

# expect2 <description> <message-substring> <cmd...>: a flag error (exit 2).
expect2() { expect_exit 2 "$@"; }

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
# Config errors surface from validation before the run, with exit 1; a
# finite MRAI too long for the microsecond clock fails like a negative one.
expect_exit 1 "rfdsim rejects negative --mrai" "error: TimingConfig:" \
  "$RFDSIM" --mrai -1
expect_exit 1 "rfdsim rejects an --mrai past the clock" \
  "error: TimingConfig: mrai_s" "$RFDSIM" --mrai 1e300

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
expect2 "ext_full_table rejects a negative --interval" \
  "event interval must be > 0" "$FULL_TABLE" --interval -1
expect2 "ext_full_table rejects a negative --cooldown" "cooldown < 0" \
  "$FULL_TABLE" --cooldown -1
expect2 "ext_full_table rejects an --interval past the clock" \
  "event_interval_s must be finite and at most 1e9 s" \
  "$FULL_TABLE" --interval 1e300
expect2 "ext_full_table rejects an unknown --rib-backend" \
  "unknown --rib-backend 'btree' (hash|null)" "$FULL_TABLE" --rib-backend btree

# --- ext_fault_storm: storm options and schedules, checked before any run --
expect2 "ext_fault_storm rejects a negative --fault-mean-down" \
  "ext_fault_storm: StormOptions: mean_down_s must be > 0" \
  "$FAULT_STORM" --fault-mean-down -1
expect2 "ext_fault_storm rejects a --fault-mean-down past the clock" \
  "ext_fault_storm: StormOptions: horizon_s + 37 x mean_down_s" \
  "$FAULT_STORM" --fault-mean-down 1e300
expect2 "ext_fault_storm rejects a --fault-horizon past the clock" \
  "ext_fault_storm: StormOptions: horizon_s + 37 x mean_down_s" \
  "$FAULT_STORM" --fault-horizon 1e300
expect2 "ext_fault_storm rejects garbage in --rates" \
  "ext_fault_storm: invalid rate 'abc' in --rates" \
  "$FAULT_STORM" --rates 0.01,abc
expect2 "ext_fault_storm rejects a malformed --fault-schedule" \
  "ext_fault_storm: fault schedule: statement must start with '@TIME'" \
  "$FAULT_STORM" --fault-schedule bogus

# --- ext_multi_origin: the obs flags it would ignore, before any run -------
expect2 "ext_multi_origin rejects --metrics" \
  "ext_multi_origin: --metrics is not supported" "$MULTI_ORIGIN" --metrics
expect2 "ext_multi_origin rejects --trace" \
  "ext_multi_origin: --trace is not supported" \
  "$MULTI_ORIGIN" --trace /tmp/cli-strict-unused
expect2 "ext_multi_origin rejects --trace-format" \
  "ext_multi_origin: --trace-format is not supported" \
  "$MULTI_ORIGIN" --trace-format=jsonl
expect2 "ext_multi_origin rejects --profile" \
  "ext_multi_origin: --profile is not supported" "$MULTI_ORIGIN" --profile -

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
