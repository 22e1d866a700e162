// Differential check of the damping live-entry counter against the walk it
// replaced. `DampingModule::active_entries` answers from a counter kept
// where stored penalties change; while `obs::invariants_enabled()` (the test
// main turns it on) every counter answer is compared with
// `active_entries_walk`, the O(tracked) count over every entry, and a
// mismatch throws `obs::InvariantViolation`. Every telemetry sample
// (`rfd.active_entries`) and every residency sample (`scaffold::measure`:
// the full table's in-run samples and each run's final figures) goes
// through that call, so running these configs checks the two at each one.
//
// The configs: the fig03 flap pattern (4 pulses, 120 s apart) and fig10's
// n = 1, 3, 5 on the 10x10 mesh at seeds 1-3; the scorecard's heavy fault
// storm; the 2,000-prefix full table at 1 and 2 shards;
// and a full table with a 1 s half-life, whose penalties decay to exactly
// 0.0 about 1,075 s after their charge, so its samples fall on both sides
// of the counter's horizon.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "core/experiment.hpp"
#include "core/full_table.hpp"
#include "obs/invariant.hpp"

namespace rfdnet::core {
namespace {

struct RunCase {
  std::string name;
  int pulses;
  double interval_s;
  std::uint64_t seed;
};

void PrintTo(const RunCase& c, std::ostream* os) {
  *os << c.name << ".s" << c.seed;
}

class LiveEntriesOracleMesh : public ::testing::TestWithParam<RunCase> {};

TEST_P(LiveEntriesOracleMesh, RunsAgreeWithTheWalk) {
  ASSERT_TRUE(obs::invariants_enabled());
  const RunCase& c = GetParam();
  ExperimentConfig cfg;
  cfg.topology.kind = TopologySpec::Kind::kMeshTorus;
  cfg.pulses = c.pulses;
  cfg.flap_interval_s = c.interval_s;
  cfg.seed = c.seed;
  cfg.collect_metrics = true;  // final residency through scaffold::measure
  cfg.telemetry_period_s = 5.0;
  const ExperimentResult res = run_experiment(cfg);
  EXPECT_NE(res.telemetry_jsonl.find("\"rfd.active_entries\""),
            std::string::npos);
  EXPECT_GT(res.suppress_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LiveEntriesOracleMesh,
    ::testing::Values(RunCase{"fig03", 4, 120.0, 1},
                      RunCase{"fig03", 4, 120.0, 2},
                      RunCase{"fig03", 4, 120.0, 3},
                      RunCase{"fig10_n1", 1, 60.0, 1},
                      RunCase{"fig10_n1", 1, 60.0, 2},
                      RunCase{"fig10_n1", 1, 60.0, 3},
                      RunCase{"fig10_n3", 3, 60.0, 1},
                      RunCase{"fig10_n3", 3, 60.0, 2},
                      RunCase{"fig10_n3", 3, 60.0, 3},
                      RunCase{"fig10_n5", 5, 60.0, 1},
                      RunCase{"fig10_n5", 5, 60.0, 2},
                      RunCase{"fig10_n5", 5, 60.0, 3}),
    [](const ::testing::TestParamInfo<RunCase>& info) {
      return info.param.name + "_s" + std::to_string(info.param.seed);
    });

TEST(LiveEntriesOracle, FaultStormAgreesWithTheWalk) {
  ExperimentConfig cfg;
  cfg.topology.kind = TopologySpec::Kind::kMeshTorus;
  cfg.pulses = 0;
  fault::StormOptions storm;
  storm.horizon_s = 600.0;
  storm.rate_per_s = 0.05;
  fault::FaultPlan plan;
  plan.storm = storm;
  cfg.faults = plan;
  cfg.collect_metrics = true;
  cfg.telemetry_period_s = 5.0;
  const ExperimentResult res = run_experiment(cfg);
  EXPECT_GT(res.suppress_events, 0u);
}

FullTableConfig full_table(int shards) {
  FullTableConfig cfg;
  cfg.prefixes = 2000;
  cfg.events = 4000;
  cfg.shards = shards;
  cfg.telemetry_period_s = 5.0;
  return cfg;
}

TEST(LiveEntriesOracle, FullTableAgreesWithTheWalk) {
  for (const int shards : {1, 2}) {
    SCOPED_TRACE("k=" + std::to_string(shards));
    const FullTableResult res = run_full_table(full_table(shards));
    EXPECT_GT(res.peak_damping_active, 0u);
  }
}

TEST(LiveEntriesOracle, PenaltiesThatDecayToZeroMidRunAgreeWithTheWalk) {
  // 4000 toggles 0.5 s apart: 2,000 s of churn plus the 120 s cooldown, so
  // the cold tail's single charges read 0.0 long before the end, and the
  // samples cross the counter's ~1,063 s horizon.
  FullTableConfig cfg = full_table(2);
  cfg.event_interval_s = 0.5;
  cfg.damping->half_life_s = 1.0;
  cfg.damping->max_suppress_s = 4.0;  // ceiling 12000, as with Cisco
  const FullTableResult res = run_full_table(cfg);
  // Entries of prefixes last toggled before ~900 s read 0.0 at the end:
  // still tracked, no longer active.
  EXPECT_LT(res.final_damping_active, res.final_damping_tracked);
}

}  // namespace
}  // namespace rfdnet::core
