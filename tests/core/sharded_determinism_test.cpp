// Shard-count determinism suite: the scorecard of a sharded run must be
// byte-identical for every shard count — same seed, same topology, shards
// 1/2/4 (and 0 for the full-table driver, which runs it on
// one shard). Runs under the plain, ASan and TSan legs of
// scripts/check.sh (the TSan leg selects tests matching "ShardedDeterminism",
// which also makes the barrier/inbox synchronization race-checked under the
// real workload).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/full_table.hpp"
#include "core/sharded.hpp"

namespace rfdnet::core {
namespace {

/// Runs `cfg` at shards 1, 2, 4 and expects one scorecard.
void expect_invariant_scorecards(const ExperimentConfig& cfg) {
  std::string first;
  for (const int shards : {1, 2, 4}) {
    const ShardedExperimentResult r = run_sharded_experiment(cfg, shards);
    const std::string card = r.scorecard();
    ASSERT_FALSE(card.empty());
    if (first.empty()) {
      first = card;
    } else {
      ASSERT_EQ(card, first) << "scorecard diverged at shards=" << shards
                             << " seed=" << cfg.seed;
    }
  }
}

TEST(ShardedDeterminism, MeshScorecardsAreShardCountInvariant) {
  for (const std::uint64_t seed : {1u, 2u}) {
    ExperimentConfig cfg;
    cfg.topology.kind = TopologySpec::Kind::kMeshTorus;
    cfg.topology.width = 6;
    cfg.topology.height = 6;
    cfg.pulses = 2;
    cfg.seed = seed;
    cfg.record_all_penalties = true;
    cfg.record_update_log = true;
    expect_invariant_scorecards(cfg);
  }
}

TEST(ShardedDeterminism, InternetScorecardsAreShardCountInvariant) {
  ExperimentConfig cfg;
  cfg.topology.kind = TopologySpec::Kind::kInternetLike;
  cfg.topology.nodes = 208;
  cfg.pulses = 2;
  cfg.seed = 7;
  cfg.record_all_penalties = true;
  cfg.record_update_log = true;
  expect_invariant_scorecards(cfg);
}

TEST(ShardedDeterminism, FullTableScorecardsAreShardCountInvariant) {
  // Shards 0/1/2/4: all four scorecards must be one byte string — one
  // full-table answer at every shard count.
  std::string first;
  for (const int shards : {0, 1, 2, 4}) {
    FullTableConfig cfg;
    cfg.prefixes = 300;
    cfg.events = 600;
    cfg.routers = 6;
    cfg.seed = 3;
    cfg.samples = 16;
    cfg.cooldown_s = 60.0;
    cfg.shards = shards;
    const FullTableResult res = run_full_table(cfg);
    const std::string card = res.scorecard();
    ASSERT_FALSE(card.empty());
    if (first.empty()) {
      first = card;
    } else {
      ASSERT_EQ(card, first) << "diverged at shards=" << shards;
    }
  }
}

/// Expects `run_sharded_experiment(cfg, 2)` to throw `invalid_argument`
/// whose message contains `needle` — each serial-only feature must name
/// itself rather than hide behind a blanket rejection.
void expect_rejected_with(const ExperimentConfig& cfg,
                          const std::string& needle) {
  try {
    run_sharded_experiment(cfg, 2);
    FAIL() << "expected rejection mentioning: " << needle;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(ShardedDeterminism, SerialOnlyFeaturesAreRejectedPerFeature) {
  ExperimentConfig base;
  base.topology.kind = TopologySpec::Kind::kMeshTorus;
  base.topology.width = 4;
  base.topology.height = 4;

  EXPECT_THROW(run_sharded_experiment(base, 0), std::invalid_argument);

  {
    ExperimentConfig cfg = base;
    cfg.faults.emplace();
    expect_rejected_with(cfg, "fault injection");
  }
  {
    ExperimentConfig cfg = base;
    cfg.flap_mode = ExperimentConfig::FlapMode::kLinkSession;
    expect_rejected_with(cfg, "link-session");
  }
  {
    ExperimentConfig cfg = base;
    cfg.trace_path = "/tmp/unused-trace-path";
    expect_rejected_with(cfg, "tracing");
  }
  {
    ExperimentConfig cfg = base;
    cfg.collect_spans = true;
    expect_rejected_with(cfg, "span collection");
  }
  {
    ExperimentConfig cfg = base;
    cfg.profile = true;
    expect_rejected_with(cfg, "profiling");
  }
  {
    // Metrics collection is sharding-legal now (logical counter bundles
    // merge exactly); only the invalid telemetry knobs are rejected, and
    // each rejection names its flag.
    ExperimentConfig cfg = base;
    cfg.collect_metrics = true;
    cfg.telemetry_period_s = -1.0;
    expect_rejected_with(cfg, "telemetry period must be > 0");
  }
  {
    ExperimentConfig cfg = base;
    cfg.telemetry_period_s = 1e-9;  // rounds to a zero-length grid step
    expect_rejected_with(cfg, ">= 1 microsecond");
  }
  {
    ExperimentConfig cfg = base;
    cfg.heartbeat_s = -0.5;
    expect_rejected_with(cfg, "heartbeat period must be > 0");
  }
  {
    FullTableConfig cfg;
    cfg.shards = -1;
    EXPECT_THROW(run_full_table(cfg), std::invalid_argument);
  }
}

TEST(ShardedDeterminism, StabilityIsAcceptedUnderShardsWhileTraceIsNot) {
  // The regression this pins: relaxing the blanket "metrics rejected in
  // sharded mode" guard for the stability bundle must not also let the
  // genuinely serial-only features through.
  ExperimentConfig cfg;
  cfg.topology.kind = TopologySpec::Kind::kMeshTorus;
  cfg.topology.width = 4;
  cfg.topology.height = 4;
  cfg.collect_stability = true;

  const ShardedExperimentResult r = run_sharded_experiment(cfg, 4);
  ASSERT_TRUE(r.base.stability.has_value());
  EXPECT_GT(r.base.stability->updates, 0u);
  EXPECT_NE(r.base.metrics.json().find("stability.updates"),
            std::string::npos);

  ExperimentConfig with_trace = cfg;
  with_trace.trace_path = "/tmp/unused-trace-path";
  EXPECT_THROW(run_sharded_experiment(with_trace, 4), std::invalid_argument);

  ExperimentConfig bad_gap = cfg;
  bad_gap.stability_gap_s = 0.0;
  EXPECT_THROW(run_sharded_experiment(bad_gap, 4), std::invalid_argument);
}

TEST(ShardedDeterminism, StabilityMeshScorecardsAreShardCountInvariant) {
  for (const std::uint64_t seed : {1u, 2u}) {
    ExperimentConfig cfg;
    cfg.topology.kind = TopologySpec::Kind::kMeshTorus;
    cfg.topology.width = 6;
    cfg.topology.height = 6;
    cfg.pulses = 2;
    cfg.seed = seed;
    cfg.collect_stability = true;
    expect_invariant_scorecards(cfg);
  }
}

TEST(ShardedDeterminism, StabilityInternetScorecardsAreShardCountInvariant) {
  ExperimentConfig cfg;
  cfg.topology.kind = TopologySpec::Kind::kInternetLike;
  cfg.topology.nodes = 208;
  cfg.pulses = 2;
  cfg.seed = 7;
  cfg.collect_stability = true;
  expect_invariant_scorecards(cfg);
}

TEST(ShardedDeterminism, StabilityReportAndMetricsAreShardCountInvariant) {
  // Tighter than the scorecard: the full per-key JSON and the rendered
  // stability.* metric bundle must be byte-identical across shard counts.
  ExperimentConfig cfg;
  cfg.topology.kind = TopologySpec::Kind::kMeshTorus;
  cfg.topology.width = 6;
  cfg.topology.height = 6;
  cfg.pulses = 3;
  cfg.seed = 5;
  cfg.collect_stability = true;
  cfg.stability_gap_s = 10.0;

  std::string report_json;
  std::string metrics_json;
  for (const int shards : {1, 2, 4}) {
    const ShardedExperimentResult r = run_sharded_experiment(cfg, shards);
    ASSERT_TRUE(r.base.stability.has_value());
    if (report_json.empty()) {
      report_json = r.base.stability->to_json();
      metrics_json = r.base.metrics.json();
      EXPECT_GT(r.base.stability->trains, 0u);
    } else {
      EXPECT_EQ(r.base.stability->to_json(), report_json)
          << "report diverged at shards=" << shards;
      EXPECT_EQ(r.base.metrics.json(), metrics_json)
          << "metrics diverged at shards=" << shards;
    }
  }
}

TEST(ShardedDeterminism, TelemetryAndMetricsAreShardCountInvariant) {
  // The PR 9 contract: the telemetry JSONL series, its summary, and the
  // logical-counter metrics registry must be byte-identical at shards
  // 1/2/4 — including the time-evaluating residency/occupancy probes,
  // which must judge reclaim eligibility and penalty decay at the grid
  // instant rather than the (partition-dependent) shard clock.
  for (const auto kind : {TopologySpec::Kind::kMeshTorus,
                          TopologySpec::Kind::kInternetLike}) {
    ExperimentConfig cfg;
    cfg.topology.kind = kind;
    cfg.topology.width = 6;
    cfg.topology.height = 6;
    cfg.topology.nodes = 208;
    cfg.pulses = 2;
    cfg.seed = 7;
    cfg.collect_metrics = true;
    cfg.telemetry_period_s = 5.0;

    std::string jsonl;
    std::string summary;
    std::string metrics_json;
    for (const int shards : {1, 2, 4}) {
      const ShardedExperimentResult r = run_sharded_experiment(cfg, shards);
      ASSERT_FALSE(r.base.telemetry_jsonl.empty());
      ASSERT_FALSE(r.base.telemetry_summary.empty());
      if (jsonl.empty()) {
        jsonl = r.base.telemetry_jsonl;
        summary = r.base.telemetry_summary;
        metrics_json = r.base.metrics.json();
        // The series carries the shard-legal bundle, not the serial-only
        // engine.pending probe.
        EXPECT_NE(jsonl.find("\"bgp.rib_resident\""), std::string::npos);
        EXPECT_NE(jsonl.find("\"rfd.active_entries\""), std::string::npos);
        EXPECT_EQ(jsonl.find("engine.pending"), std::string::npos);
      } else {
        EXPECT_EQ(r.base.telemetry_jsonl, jsonl)
            << "telemetry diverged at shards=" << shards;
        EXPECT_EQ(r.base.telemetry_summary, summary)
            << "summary diverged at shards=" << shards;
        EXPECT_EQ(r.base.metrics.json(), metrics_json)
            << "metrics diverged at shards=" << shards;
      }
    }
  }
}

TEST(ShardedDeterminism, TelemetryFullTableIsShardCountInvariant) {
  std::string jsonl;
  std::string summary;
  std::string metrics_json;
  for (const int shards : {0, 1, 2, 4}) {
    FullTableConfig cfg;
    cfg.prefixes = 300;
    cfg.events = 600;
    cfg.routers = 6;
    cfg.seed = 3;
    cfg.samples = 16;
    cfg.cooldown_s = 60.0;
    cfg.telemetry_period_s = 20.0;
    cfg.shards = shards;
    const FullTableResult res = run_full_table(cfg);
    ASSERT_FALSE(res.telemetry_jsonl.empty());
    if (jsonl.empty()) {
      jsonl = res.telemetry_jsonl;
      summary = res.telemetry_summary;
      metrics_json = res.metrics.json();
      // The full-table driver pre-schedules per-shard residency events, so
      // no engine.* series is shard-legal here.
      EXPECT_EQ(jsonl.find("engine."), std::string::npos);
      EXPECT_NE(jsonl.find("\"bgp.rib_resident\""), std::string::npos);
    } else {
      EXPECT_EQ(res.telemetry_jsonl, jsonl)
          << "telemetry diverged at shards=" << shards;
      EXPECT_EQ(res.telemetry_summary, summary)
          << "summary diverged at shards=" << shards;
      EXPECT_EQ(res.metrics.json(), metrics_json)
          << "metrics diverged at shards=" << shards;
    }
  }
}

TEST(ShardedDeterminism, StabilityFullTableScorecardsAreShardCountInvariant) {
  std::string first;
  for (const int shards : {0, 1, 2, 4}) {
    FullTableConfig cfg;
    cfg.prefixes = 300;
    cfg.events = 600;
    cfg.routers = 6;
    cfg.seed = 3;
    cfg.samples = 16;
    cfg.cooldown_s = 60.0;
    cfg.collect_stability = true;
    cfg.shards = shards;
    const FullTableResult res = run_full_table(cfg);
    ASSERT_TRUE(res.stability.has_value());
    EXPECT_GT(res.stability->updates, 0u);
    // Scorecard embeds the aggregate summary; compare the per-key report
    // too, which the scorecard intentionally omits on this workload.
    const std::string card =
        res.scorecard() + "\n" + res.stability->to_json();
    if (first.empty()) {
      first = card;
    } else {
      ASSERT_EQ(card, first) << "diverged at shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace rfdnet::core
