// Randomized update sequences into a DampingModule: whatever arrives, the
// RFC 2439 invariants must hold. This is the failure-injection counterpart
// to the scripted unit tests.

#include <gtest/gtest.h>

#include <optional>

#include "bgp/path_table.hpp"
#include "rfd/damping.hpp"
#include "sim/random.hpp"

namespace rfdnet::rfd {
namespace {

using bgp::Route;
using bgp::UpdateMessage;
using sim::SimTime;

constexpr bgp::Prefix kP = 0;

class DampingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DampingFuzz, InvariantsUnderRandomUpdateStreams) {
  sim::Rng rng(GetParam());
  const DampingParams params = DampingParams::cisco();
  bgp::PathTable paths;
  sim::Engine engine;
  int reuse_count = 0;
  DampingModule module(0, {1, 2}, params, engine,
                       [&reuse_count](int, bgp::Prefix) {
                         ++reuse_count;
                         return false;
                       });

  std::optional<Route> prev[2];
  bool was_suppressed[2] = {false, false};
  double t = 0.0;
  int suppress_transitions = 0;

  for (int step = 0; step < 400; ++step) {
    // Advance time by a random gap (sometimes long enough for reuse timers
    // to fire, sometimes a burst).
    t += rng.bernoulli(0.2) ? rng.uniform(100.0, 1500.0)
                            : rng.uniform(0.01, 5.0);
    const auto target = SimTime::from_seconds(t);
    engine.schedule_at(target, [] {});
    while (engine.now() < target && engine.step()) {
    }

    const int slot = static_cast<int>(rng.uniform_index(2));
    UpdateMessage msg = UpdateMessage::withdraw(kP);
    if (rng.bernoulli(0.6)) {
      const auto origin = static_cast<net::NodeId>(rng.uniform_index(5) + 10);
      Route r{paths.origin(origin), 100};
      if (rng.bernoulli(0.5)) r.path = paths.prepend(r.path, slot + 1);
      msg = UpdateMessage::announce(kP, r);
    }
    const bool loop_denied = rng.bernoulli(0.1);
    module.on_update(slot, msg, prev[slot], loop_denied);
    prev[slot] = loop_denied ? std::nullopt : msg.route;

    for (int s = 0; s < 2; ++s) {
      const double p = module.penalty(s, kP);
      // Penalty bounds.
      ASSERT_GE(p, 0.0);
      ASSERT_LE(p, params.ceiling() + 1e-6);
      const bool sup = module.suppressed(s, kP);
      if (sup) {
        // While suppressed the reuse timer exists and is within the max
        // hold-down horizon.
        const auto when = module.reuse_time(s, kP);
        ASSERT_TRUE(when.has_value());
        ASSERT_GE(*when, engine.now());
        ASSERT_LE((*when - engine.now()).as_seconds(),
                  params.max_suppress_s + 1.0);
        // Suppression can only start when the penalty exceeded the cutoff.
        if (!was_suppressed[s]) {
          ++suppress_transitions;
          ASSERT_GT(p, params.cutoff);
        }
      } else {
        ASSERT_FALSE(module.reuse_time(s, kP).has_value());
      }
      was_suppressed[s] = sup;
    }
  }

  // Drain: every suppression must resolve via the reuse callback.
  engine.run();
  EXPECT_FALSE(module.suppressed(0, kP));
  EXPECT_FALSE(module.suppressed(1, kP));
  EXPECT_EQ(module.suppressed_count(), 0);
  EXPECT_GT(suppress_transitions, 0);  // the stream was hostile enough
  EXPECT_GT(reuse_count, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DampingFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

class RcnFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RcnFuzz, RcnNeverChargesMoreThanOncePerRootCause) {
  sim::Rng rng(GetParam());
  const DampingParams params = DampingParams::cisco();
  bgp::PathTable paths;
  sim::Engine engine;
  DampingModule module(0, {1}, params, engine,
                       [](int, bgp::Prefix) { return false; });
  module.enable_rcn();

  // Replay a stream where only ONE root cause ever appears: however many
  // updates carry it, total charge is at most one withdrawal penalty.
  const rcn::RootCause rc{100, 0, false, 1};
  std::optional<Route> prev;
  double t = 0.0;
  double max_penalty = 0.0;
  for (int step = 0; step < 100; ++step) {
    t += rng.uniform(0.01, 2.0);
    const auto target = SimTime::from_seconds(t);
    engine.schedule_at(target, [] {});
    while (engine.now() < target && engine.step()) {
    }
    UpdateMessage msg = UpdateMessage::withdraw(kP, rc);
    if (rng.bernoulli(0.5)) {
      const auto origin = static_cast<net::NodeId>(rng.uniform_index(4) + 10);
      msg = UpdateMessage::announce(kP, Route{paths.origin(origin), 100},
                                    rc);
    }
    module.on_update(0, msg, prev, false);
    prev = msg.route;
    max_penalty = std::max(max_penalty, module.penalty(0, kP));
  }
  EXPECT_LE(max_penalty, params.withdrawal_penalty + 1e-9);
  EXPECT_FALSE(module.suppressed(0, kP));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcnFuzz, ::testing::Values(1u, 9u, 17u, 25u));

}  // namespace
}  // namespace rfdnet::rfd
