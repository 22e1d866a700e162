// Tests for the full-table Zipf-churn workload driver: residency stays
// bounded (the reclamation bugfix at scale), hash and radix backends produce
// byte-identical scorecards, and the degenerate parameters (one prefix, null
// backend) behave exactly as specified.

#include "core/full_table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace rfdnet::core {
namespace {

FullTableConfig small_config() {
  FullTableConfig cfg;
  cfg.prefixes = 100;
  cfg.alpha = 1.0;
  cfg.events = 400;
  cfg.event_interval_s = 0.05;
  cfg.routers = 3;
  cfg.seed = 11;
  cfg.samples = 16;
  cfg.cooldown_s = 60.0;
  return cfg;
}

TEST(FullTable, ValidationRejectsBadParameters) {
  FullTableConfig cfg = small_config();
  cfg.prefixes = 0;
  EXPECT_THROW(run_full_table(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.routers = 1;
  EXPECT_THROW(run_full_table(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.alpha = -1.0;
  EXPECT_THROW(run_full_table(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.event_interval_s = 0.0;
  EXPECT_THROW(run_full_table(cfg), std::invalid_argument);
}

TEST(FullTable, ChurnRunsAndResidencyStaysBounded) {
  const FullTableConfig cfg = small_config();
  const FullTableResult res = run_full_table(cfg);
  EXPECT_EQ(res.toggles_applied, cfg.events);
  EXPECT_GT(res.updates_delivered, 0u);
  EXPECT_GT(res.updates_sent, 0u);
  // Three per-prefix tables per router is the hard ceiling on rows.
  const std::size_t ceiling =
      3u * static_cast<std::size_t>(cfg.routers) * cfg.prefixes;
  EXPECT_LE(res.peak_rib_resident, ceiling);
  EXPECT_GT(res.peak_rib_resident, 0u);
  EXPECT_LE(res.final_rib_resident, res.peak_rib_resident);
  // Damping state exists and the active subset never exceeds the tracked set.
  EXPECT_LE(res.final_damping_active, res.final_damping_tracked);
  EXPECT_FALSE(res.metrics.empty());
}

TEST(FullTable, WithdrawnTailIsReclaimed) {
  // Uniform churn over few prefixes, long cooldown, no damping: every prefix
  // left withdrawn at the end must have its rows reclaimed on every router,
  // so final residency is exactly (prefixes up) x routers x 3 tables.
  FullTableConfig cfg = small_config();
  cfg.prefixes = 32;
  cfg.alpha = 0.0;
  cfg.events = 200;
  cfg.damping.reset();
  cfg.cooldown_s = 600.0;  // past every MRAI horizon
  const FullTableResult res = run_full_table(cfg);
  EXPECT_FALSE(res.hit_horizon);
  // The driver toggles each target; count what ended down. toggles per
  // prefix is deterministic for the seed, so just bound: the final residency
  // must be a multiple of what one fully-up prefix costs and no more than
  // all-up.
  const std::size_t per_prefix = 3u * static_cast<std::size_t>(cfg.routers);
  EXPECT_LE(res.final_rib_resident, per_prefix * cfg.prefixes);
  EXPECT_EQ(res.final_rib_resident % per_prefix, 0u)
      << "a partially-reclaimed prefix leaked rows";
}

TEST(FullTable, HashAndRadixScorecardsAreByteIdentical) {
  FullTableConfig cfg = small_config();
  cfg.rib_backend = bgp::RibBackendKind::kHashMap;
  const FullTableResult hash = run_full_table(cfg);
  cfg.rib_backend = bgp::RibBackendKind::kRadix;
  const FullTableResult radix = run_full_table(cfg);
  EXPECT_EQ(hash.scorecard(), radix.scorecard());
  EXPECT_EQ(hash.metrics.json(), radix.metrics.json());
}

TEST(FullTable, SinglePrefixIsAlphaInvariant) {
  // With one prefix the Zipf sampler consumes no randomness, so the skew
  // parameter cannot leak into the run: scorecards are byte-identical.
  FullTableConfig cfg = small_config();
  cfg.prefixes = 1;
  cfg.events = 50;
  cfg.alpha = 0.0;
  const FullTableResult a = run_full_table(cfg);
  cfg.alpha = 3.7;
  const FullTableResult b = run_full_table(cfg);
  EXPECT_EQ(a.scorecard(), b.scorecard());
  // Alternating withdraw/announce of the lone prefix, starting from "up".
  EXPECT_EQ(a.toggles_applied, 50u);
  EXPECT_GT(a.updates_delivered, 0u);
}

TEST(FullTable, NullBackendRetainsNothing) {
  FullTableConfig cfg = small_config();
  cfg.prefixes = 50;
  cfg.events = 100;
  cfg.rib_backend = bgp::RibBackendKind::kNull;
  const FullTableResult res = run_full_table(cfg);
  EXPECT_EQ(res.toggles_applied, 100u);
  EXPECT_EQ(res.peak_rib_resident, 0u);
  EXPECT_EQ(res.final_rib_resident, 0u);
  EXPECT_EQ(res.final_damping_tracked, 0u);
}

TEST(FullTable, ResidencyGaugesMirrorTheResultAtEveryShardCount) {
  for (const int shards : {0, 1, 2, 4}) {
    FullTableConfig cfg = small_config();
    cfg.routers = 4;
    cfg.shards = shards;
    FullTableResult res = run_full_table(cfg);
    const std::string json = res.metrics.json();
    const auto gauge = [&res](const std::string& name) {
      return static_cast<std::size_t>(res.metrics.gauge(name).value());
    };
    for (const char* name :
         {"bgp.rib_resident", "bgp.rib_resident_peak", "rfd.tracked_entries",
          "rfd.tracked_entries_peak", "rfd.active_entries",
          "rfd.active_entries_peak"}) {
      EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
          << name << " missing at shards=" << shards;
    }
    EXPECT_EQ(gauge("bgp.rib_resident"), res.final_rib_resident);
    EXPECT_EQ(gauge("bgp.rib_resident_peak"), res.peak_rib_resident);
    EXPECT_EQ(gauge("rfd.tracked_entries"), res.final_damping_tracked);
    EXPECT_EQ(gauge("rfd.tracked_entries_peak"), res.peak_damping_tracked);
    EXPECT_EQ(gauge("rfd.active_entries"), res.final_damping_active);
    EXPECT_EQ(gauge("rfd.active_entries_peak"), res.peak_damping_active);
    // The two partition-dependent figures stay out of the registry.
    EXPECT_EQ(json.find("bgp.pending"), std::string::npos);
    EXPECT_EQ(json.find("rfd.penalty"), std::string::npos);
  }
}

TEST(FullTable, ZeroEventsIsAWarmupOnlyRun) {
  FullTableConfig cfg = small_config();
  cfg.events = 0;
  cfg.cooldown_s = 1.0;
  const FullTableResult res = run_full_table(cfg);
  EXPECT_EQ(res.toggles_applied, 0u);
  // The warmed-up table is fully resident on every router.
  EXPECT_EQ(res.final_rib_resident,
            3u * static_cast<std::size_t>(cfg.routers) * cfg.prefixes);
}

}  // namespace
}  // namespace rfdnet::core
