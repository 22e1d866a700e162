// Differential oracle for the telemetry sampler wired into run_experiment:
// the counter series in the sampler's JSONL artifact must agree — byte for
// byte, through the %.17g serialization — with a batch reference that counts
// the run's JSONL *trace* records up to each grid instant after the fact.
//
// The contract that makes exact agreement possible: the counter increments
// and the trace emissions sit at the same program points (engine step,
// bgp send, rfd suppress/reuse), both sinks attach at wiring time (warm-up
// included), the engine clock is integer microseconds and the trace prints
// times as %.6f — lossless, so `llround(stod * 1e6)` recovers the exact
// tick. Level probes (residency, entry occupancy) are deliberately out of
// scope: the trace does not carry reclamation events, which is exactly why
// those figures are sampled live instead of post-processed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fault/schedule.hpp"

namespace rfdnet {
namespace {

// ---------------------------------------------------------------------------
// Trace parsing (line-oriented; the sink writes one JSON object per line).

std::optional<std::string> json_field(const std::string& line,
                                      const std::string& name) {
  const std::string tag = "\"" + name + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return std::nullopt;
  std::size_t begin = at + tag.size();
  std::size_t end = begin;
  if (line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  return line.substr(begin, end - begin);
}

/// Trace instants are %.6f prints of an integer-microsecond clock, so
/// parsing back and rounding recovers the exact tick.
std::int64_t micros_field(const std::string& line) {
  const auto v = json_field(line, "t");
  EXPECT_TRUE(v.has_value()) << "t missing in: " << line;
  return std::llround(std::stod(*v) * 1e6);
}

/// Event instants per reconstructible series, in trace (= execution) order.
struct TraceEvents {
  std::vector<std::int64_t> fired;
  std::vector<std::int64_t> sends;
  std::vector<std::int64_t> withdrawals;
  std::vector<std::int64_t> suppressions;
  std::vector<std::int64_t> reuses;
};

TraceEvents read_trace(const std::string& trace_path) {
  TraceEvents ev;
  std::ifstream in(trace_path);
  EXPECT_TRUE(in.good()) << "missing trace file: " << trace_path;
  std::string line;
  while (std::getline(in, line)) {
    const auto type = json_field(line, "type");
    if (!type) continue;
    if (*type == "engine.step") {
      ev.fired.push_back(micros_field(line));
    } else if (*type == "bgp.send") {
      const std::int64_t t = micros_field(line);
      ev.sends.push_back(t);
      if (json_field(line, "kind") == std::optional<std::string>("withdraw")) {
        ev.withdrawals.push_back(t);
      }
    } else if (*type == "rfd.suppress") {
      ev.suppressions.push_back(micros_field(line));
    } else if (*type == "rfd.reuse") {
      ev.reuses.push_back(micros_field(line));
    }
  }
  return ev;
}

// ---------------------------------------------------------------------------
// Sampler artifact parsing and reference re-rendering.

std::string fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// All rows of series `name` from the sampler's JSONL, concatenated in file
/// order — the byte string under test.
std::string filter_series(const std::string& jsonl, const std::string& name) {
  std::istringstream in(jsonl);
  std::ostringstream out;
  std::string line;
  const std::string tag = "\"name\":\"" + name + "\"";
  while (std::getline(in, line)) {
    if (line.find(tag) != std::string::npos) out << line << '\n';
  }
  return out.str();
}

/// The grid instants of the artifact (dedup'd row times, file order).
std::vector<std::int64_t> grid_of(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::vector<std::int64_t> grid;
  std::string line;
  while (std::getline(in, line)) {
    const std::int64_t t = micros_field(line);
    if (grid.empty() || grid.back() != t) grid.push_back(t);
  }
  return grid;
}

/// Renders the reference rows for one series: the running count of `events`
/// at each grid instant, in the sampler's own row format.
std::string reference_series(const std::string& name,
                             const std::vector<std::int64_t>& grid,
                             const std::vector<std::int64_t>& events) {
  std::ostringstream out;
  std::size_t i = 0;
  for (const std::int64_t t_us : grid) {
    while (i < events.size() && events[i] <= t_us) {
      EXPECT_TRUE(i == 0 || events[i] >= events[i - 1])
          << name << ": trace not time-ordered";
      ++i;
    }
    out << "{\"t\":" << fmt17(static_cast<double>(t_us) / 1e6)
        << ",\"name\":\"" << name
        << "\",\"value\":" << fmt17(static_cast<double>(i)) << "}\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// The (workload, seed) matrix: Fig. 10-style pulse trains plus a fault storm
// (suppress/reuse churn with irregular arrivals).

struct OracleCase {
  const char* name;
  int pulses;         // 0 = storm-only workload
  double storm_rate;  // > 0 attaches a Poisson fault storm
  std::uint64_t seed;
};

// Prints a case by its workload. gtest's fallback would dump the raw bytes,
// which start with the address of `name`, so the ctest names discovered from
// them changed from run to run under ASLR.
void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << "pulses=" << c.pulses << ", storm=" << c.storm_rate
      << ", seed=" << c.seed;
}

std::string case_name(const ::testing::TestParamInfo<OracleCase>& info) {
  return std::string(info.param.name) + "_seed" +
         std::to_string(info.param.seed);
}

class TelemetryOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(TelemetryOracle, CounterSeriesMatchTracePostProcessing) {
  const OracleCase& c = GetParam();
  const std::string trace =
      ::testing::TempDir() + "telemetry_oracle_" + c.name + "_s" +
      std::to_string(c.seed) + ".jsonl";

  core::ExperimentConfig cfg;
  cfg.topology.width = 6;
  cfg.topology.height = 6;
  cfg.seed = c.seed;
  cfg.isp = 0;
  cfg.pulses = c.pulses;
  cfg.telemetry_period_s = 5.0;
  cfg.trace_path = trace;
  if (c.storm_rate > 0) {
    fault::StormOptions storm;
    storm.rate_per_s = c.storm_rate;
    storm.horizon_s = 300.0;
    fault::FaultPlan plan;
    plan.storm = storm;
    cfg.faults = plan;
  }

  const core::ExperimentResult res = core::run_experiment(cfg);
  ASSERT_FALSE(res.telemetry_jsonl.empty());
  ASSERT_FALSE(res.telemetry_summary.empty());

  const std::vector<std::int64_t> grid = grid_of(res.telemetry_jsonl);
  ASSERT_FALSE(grid.empty());
  const TraceEvents ev = read_trace(trace);
  ASSERT_FALSE(ev.fired.empty());
  ASSERT_FALSE(ev.sends.empty());

  const struct {
    const char* series;
    const std::vector<std::int64_t>& events;
  } checks[] = {
      {"engine.fired", ev.fired},
      {"bgp.sends", ev.sends},
      {"bgp.withdrawals", ev.withdrawals},
      {"rfd.suppressions", ev.suppressions},
      {"rfd.reuses", ev.reuses},
  };
  for (const auto& chk : checks) {
    EXPECT_EQ(filter_series(res.telemetry_jsonl, chk.series),
              reference_series(chk.series, grid, chk.events))
        << "series diverged from trace oracle: " << chk.series;
  }

  // The grid itself is t0 + k*period with no holes: consecutive instants
  // differ by exactly the period.
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i] - grid[i - 1], 5'000'000) << "hole at row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadMatrix, TelemetryOracle,
    ::testing::Values(OracleCase{"fig10_n1", 1, 0.0, 1},
                      OracleCase{"fig10_n1", 1, 0.0, 2},
                      OracleCase{"fig10_n3", 3, 0.0, 1},
                      OracleCase{"fig10_n3", 3, 0.0, 2},
                      OracleCase{"storm", 0, 0.02, 1},
                      OracleCase{"storm", 0, 0.02, 3}),
    case_name);

// Two identical runs must emit byte-identical telemetry artifacts (no
// wall-clock or address-dependent state leaks into the series).
TEST(TelemetryOracle, RepeatRunsAreByteIdentical) {
  core::ExperimentConfig cfg;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.seed = 11;
  cfg.pulses = 2;
  cfg.telemetry_period_s = 2.0;
  const core::ExperimentResult a = core::run_experiment(cfg);
  const core::ExperimentResult b = core::run_experiment(cfg);
  EXPECT_EQ(a.telemetry_jsonl, b.telemetry_jsonl);
  EXPECT_EQ(a.telemetry_summary, b.telemetry_summary);
  ASSERT_FALSE(a.telemetry_jsonl.empty());
}

}  // namespace
}  // namespace rfdnet
