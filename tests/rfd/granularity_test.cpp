// Parameterized sweep over reuse-timer granularities: quantization rounds
// reuse times up to the grid without otherwise changing semantics.

#include <gtest/gtest.h>

#include "bgp/path_table.hpp"
#include "rfd/damping.hpp"

namespace rfdnet::rfd {
namespace {

using bgp::Route;
using bgp::UpdateMessage;
using sim::SimTime;

constexpr bgp::Prefix kP = 0;

class GranularityProperty : public ::testing::TestWithParam<double> {};

TEST_P(GranularityProperty, ReuseTimeOnGridAndNotEarly) {
  const double g = GetParam();
  DampingParams params = DampingParams::cisco();
  params.reuse_granularity_s = g;

  bgp::PathTable paths;
  sim::Engine engine;
  int reuses = 0;
  DampingModule module(0, {1}, params, engine, [&reuses](int, bgp::Prefix) {
    ++reuses;
    return false;
  });

  // Drive over the cutoff: W, attr, attr, W ~ 3000.
  const Route r1{paths.from_hops({1, 9}), 100};
  const Route r2{paths.from_hops({1, 8}), 100};
  const Route r3{paths.from_hops({1, 7}), 100};
  std::optional<Route> prev;
  const auto at = [&](double t) {
    const auto target = SimTime::from_seconds(t);
    engine.schedule_at(target, [] {});
    while (engine.now() < target && engine.step()) {
    }
  };
  const auto deliver = [&](double t, const UpdateMessage& m) {
    at(t);
    module.on_update(0, m, prev, false);
    prev = m.route;
  };
  deliver(0.0, UpdateMessage::announce(kP, r1));
  deliver(10.0, UpdateMessage::withdraw(kP));
  deliver(11.0, UpdateMessage::announce(kP, r2));
  deliver(12.0, UpdateMessage::announce(kP, r3));
  deliver(13.0, UpdateMessage::withdraw(kP));
  ASSERT_TRUE(module.suppressed(0, kP));

  const auto when = module.reuse_time(0, kP);
  ASSERT_TRUE(when.has_value());

  // Exact crossing time for comparison.
  const double exact =
      13.0 + std::log(module.penalty(0, kP) / params.reuse) / params.lambda();
  EXPECT_GE(when->as_seconds(), exact - 1e-6);  // never early
  if (g > 0) {
    // Quantized: at most one grid period late, and on the grid.
    EXPECT_LE(when->as_seconds(), exact + g + 1e-6);
    const auto offset_us = (*when - SimTime::from_seconds(13.0)).as_micros();
    EXPECT_EQ(offset_us % static_cast<std::int64_t>(g * 1e6), 0);
  } else {
    EXPECT_NEAR(when->as_seconds(), exact, 1e-3);
  }

  // The timer actually fires and unsuppresses, and the penalty at firing
  // time is at or below the reuse threshold.
  engine.run();
  EXPECT_EQ(reuses, 1);
  EXPECT_FALSE(module.suppressed(0, kP));
  EXPECT_LE(module.penalty(0, kP), params.reuse + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Grid, GranularityProperty,
                         ::testing::Values(0.0, 0.5, 1.0, 5.0, 10.0, 30.0,
                                           60.0));

TEST(Granularity, BoundaryPenaltyWaitsAtLeastOnePeriod) {
  // Regression: when the decay wait rounds to zero microseconds (penalty
  // sitting essentially at the reuse boundary the instant suppression
  // triggers), the quantizer used to round up to zero periods and schedule
  // the reuse at `now` — releasing the route while the penalty still sat at
  // the cutoff. It must wait at least one full granularity period.
  DampingParams params = DampingParams::cisco();
  params.reuse_granularity_s = 60.0;
  params.cutoff = 1000.0;
  params.reuse = 1000.0 - 1e-7;
  params.withdrawal_penalty = 1000.0 + 1e-7;  // wait ~0.3us: rounds to 0

  bgp::PathTable paths;
  sim::Engine engine;
  int reuses = 0;
  DampingModule module(0, {1}, params, engine, [&reuses](int, bgp::Prefix) {
    ++reuses;
    return false;
  });

  const Route r{paths.from_hops({1, 9}), 100};
  module.on_update(0, UpdateMessage::announce(kP, r), std::nullopt, false);
  module.on_update(0, UpdateMessage::withdraw(kP), r, false);
  ASSERT_TRUE(module.suppressed(0, kP));

  const auto when = module.reuse_time(0, kP);
  ASSERT_TRUE(when.has_value());
  EXPECT_EQ(*when, engine.now() + sim::Duration::seconds(60.0));

  engine.run();
  EXPECT_EQ(reuses, 1);
  EXPECT_FALSE(module.suppressed(0, kP));
  EXPECT_LT(module.penalty(0, kP), params.reuse);
}

}  // namespace
}  // namespace rfdnet::rfd
