#include "core/multi_origin.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace rfdnet::core {
namespace {

MultiOriginConfig small(int origins, int pulses) {
  MultiOriginConfig cfg;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.origins = origins;
  cfg.pulses = pulses;
  cfg.seed = 1;
  return cfg;
}

TEST(MultiOrigin, RejectsBadConfig) {
  EXPECT_THROW(run_multi_origin(small(0, 1)), std::invalid_argument);
  EXPECT_THROW(run_multi_origin(small(1, -1)), std::invalid_argument);
  MultiOriginConfig too_many = small(26, 1);  // 25 mesh nodes
  EXPECT_THROW(run_multi_origin(too_many), std::invalid_argument);
  MultiOriginConfig bad = small(1, 1);
  bad.flap_interval_s = 0;
  EXPECT_THROW(run_multi_origin(bad), std::invalid_argument);

  // Spans past the clock, NaN included, are rejected by name before the
  // warm-up runs (they used to surface as "scheduling into the past" or a
  // warm-up that "did not converge").
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [](const MultiOriginConfig& cfg,
                                   const std::string& field) {
    try {
      run_multi_origin(cfg);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  MultiOriginConfig cfg = small(2, 2);
  cfg.flap_interval_s = nan;
  expect_rejected(cfg, "flap_interval_s");
  cfg = small(2, 2);
  cfg.flap_interval_s = 1e300;
  expect_rejected(cfg, "flap_interval_s");
  cfg = small(2, 2);
  cfg.stagger_s = nan;
  expect_rejected(cfg, "stagger_s");
  cfg = small(2, 2);
  cfg.stagger_s = 6e8;  // each span fits; the second origin's last flap not
  cfg.flap_interval_s = 2e8;
  expect_rejected(cfg, "stagger_s x (origins - 1) + (2 x pulses - 1)");
  cfg = small(2, 2);
  cfg.max_sim_s = nan;
  expect_rejected(cfg, "max_sim_s");
  cfg = small(2, 2);
  cfg.topology.link_delay_s = 1e300;
  expect_rejected(cfg, "link_delay_s");
}

TEST(MultiOrigin, SingleOriginBehavesLikeExperiment) {
  const auto res = run_multi_origin(small(1, 3));
  ASSERT_EQ(res.isp_suppressed.size(), 1u);
  EXPECT_TRUE(res.isp_suppressed[0]);  // 3rd pulse suppresses at ispAS
  EXPECT_GT(res.message_count, 0u);
  EXPECT_FALSE(res.hit_horizon);
}

TEST(MultiOrigin, EveryIspSuppressesItsOrigin) {
  const auto res = run_multi_origin(small(4, 5));
  ASSERT_EQ(res.isp_suppressed.size(), 4u);
  for (const bool b : res.isp_suppressed) EXPECT_TRUE(b);
}

TEST(MultiOrigin, ZeroPulsesQuiet) {
  const auto res = run_multi_origin(small(3, 0));
  EXPECT_EQ(res.message_count, 0u);
  EXPECT_DOUBLE_EQ(res.convergence_time_s, 0.0);
}

TEST(MultiOrigin, DampingCapsAggregateLoadGrowth) {
  // Persistent flapping: without damping the load scales with origin count;
  // with damping each origin costs ~one charging period.
  MultiOriginConfig nodamp1 = small(1, 5);
  nodamp1.damping.reset();
  MultiOriginConfig nodamp4 = small(4, 5);
  nodamp4.damping.reset();
  const auto raw1 = run_multi_origin(nodamp1);
  const auto raw4 = run_multi_origin(nodamp4);
  EXPECT_GT(raw4.message_count, 3 * raw1.message_count);

  const auto damp1 = run_multi_origin(small(1, 10));
  const auto damp4 = run_multi_origin(small(4, 10));
  const auto raw1_10 = [&] {
    MultiOriginConfig c = small(1, 10);
    c.damping.reset();
    return run_multi_origin(c);
  }();
  // Damped aggregate load stays below the undamped load per origin ratio.
  EXPECT_LT(static_cast<double>(damp4.message_count),
            4.0 * static_cast<double>(raw1_10.message_count));
  EXPECT_GT(damp1.suppress_events, 0u);
}

TEST(MultiOrigin, DeterministicForSeed) {
  const auto a = run_multi_origin(small(3, 2));
  const auto b = run_multi_origin(small(3, 2));
  EXPECT_EQ(a.message_count, b.message_count);
  EXPECT_DOUBLE_EQ(a.convergence_time_s, b.convergence_time_s);
  EXPECT_EQ(a.suppress_events, b.suppress_events);
}

TEST(MultiOrigin, RcnVariantRuns) {
  MultiOriginConfig cfg = small(2, 3);
  cfg.rcn = true;
  const auto res = run_multi_origin(cfg);
  EXPECT_FALSE(res.hit_horizon);
  ASSERT_EQ(res.isp_suppressed.size(), 2u);
  EXPECT_TRUE(res.isp_suppressed[0]);
  EXPECT_TRUE(res.isp_suppressed[1]);
}

}  // namespace
}  // namespace rfdnet::core
