// Regression tests for the RCN §6.2 first-sighting filter: only an update
// that would actually be charged may consume a root cause's first sighting.
// Pre-fix, any update carrying the attribute recorded it — so a free update
// (duplicate, loop-denied, past the charge deadline) silently burned the RC
// and the one genuinely chargeable update arriving later passed free.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "bgp/path_table.hpp"
#include "rfd/damping.hpp"

namespace rfdnet::rfd {
namespace {

using bgp::Route;
using bgp::UpdateMessage;
using sim::SimTime;

constexpr bgp::Prefix kP = 0;

rcn::RootCause down_rc(std::uint64_t seq) {
  return rcn::RootCause{100, 101, /*up=*/false, seq};
}
rcn::RootCause up_rc(std::uint64_t seq) {
  return rcn::RootCause{100, 101, /*up=*/true, seq};
}

class RcnFilterTest : public ::testing::Test {
 protected:
  void make(DampingParams params = DampingParams::cisco()) {
    module_ = std::make_unique<DampingModule>(
        /*self=*/0, std::vector<net::NodeId>{10, 11}, params, engine_,
        [](int, bgp::Prefix) { return false; });
    module_->enable_rcn();
  }

  void announce(const Route& r, double t_s,
                std::optional<rcn::RootCause> rc = {},
                bool loop_denied = false) {
    at(t_s);
    module_->on_update(0, UpdateMessage::announce(kP, r, rc), prev_,
                       loop_denied);
    prev_ = r;
  }
  void withdraw(double t_s, std::optional<rcn::RootCause> rc = {},
                bool loop_denied = false) {
    at(t_s);
    module_->on_update(0, UpdateMessage::withdraw(kP, rc), prev_, loop_denied);
    prev_.reset();
  }
  void at(double t_s) {
    const auto target = SimTime::from_seconds(t_s);
    if (engine_.now() < target) {
      engine_.schedule_at(target, [] {});
      while (engine_.now() < target && engine_.step()) {
      }
    }
  }

  Route route(net::NodeId origin) {
    return Route{paths_.origin(origin), 100};
  }

  bgp::PathTable paths_;
  sim::Engine engine_;
  std::unique_ptr<DampingModule> module_;
  std::optional<Route> prev_;
};

TEST_F(RcnFilterTest, DuplicateDoesNotConsumeFirstSighting) {
  make();
  announce(route(1), 0.0);
  // A duplicate announcement is free; the RC it carries must survive.
  announce(route(1), 1.0, down_rc(1));
  EXPECT_DOUBLE_EQ(module_->penalty(0, kP), 0.0);
  // The withdrawal is this RC's first *chargeable* sighting: charged.
  withdraw(2.0, down_rc(1));
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 2.0);
}

TEST_F(RcnFilterTest, PastDeadlineUpdateDoesNotConsumeFirstSighting) {
  make(DampingParams::juniper());
  module_->set_charge_deadline(SimTime::from_seconds(0.5));
  announce(route(1), 0.0);
  // Past the deadline nothing is charged; the RC must not be burned.
  withdraw(1.0, down_rc(2));
  EXPECT_DOUBLE_EQ(module_->penalty(0, kP), 0.0);
  // Re-arm charging: the re-announcement carrying the same RC is its first
  // chargeable sighting and (Juniper, down-RC) costs the withdrawal penalty.
  module_->set_charge_deadline(SimTime::from_seconds(1e9));
  announce(route(1), 2.0, down_rc(2));
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 2.0);
}

TEST_F(RcnFilterTest, LoopDeniedUpdateDoesNotConsumeFirstSighting) {
  make(DampingParams::juniper());  // charge_loop_denied defaults to false
  announce(route(1), 0.0);
  withdraw(1.0, down_rc(3), /*loop_denied=*/true);
  EXPECT_DOUBLE_EQ(module_->penalty(0, kP), 0.0);
  announce(route(1), 2.0, down_rc(3));
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 2.0);
}

TEST_F(RcnFilterTest, SecondSightingIsStillFree) {
  make();
  announce(route(1), 0.0);
  withdraw(1.0, down_rc(4));  // first sighting: charged
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 2.0);
  announce(route(1), 2.0);  // Cisco re-announcement: free
  // The same RC reappears on a later withdrawal: already seen, free.
  withdraw(3.0, down_rc(4));
  EXPECT_LT(module_->penalty(0, kP), 1100.0);
  EXPECT_GT(module_->penalty(0, kP), 900.0);
}

TEST_F(RcnFilterTest, UpdatesWithoutRcFallThroughToNormalDamping) {
  make();
  announce(route(1), 0.0);
  withdraw(1.0);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 2.0);
}

TEST_F(RcnFilterTest, PenaltyFollowsTheFlapNotThePerceivedUpdate) {
  make();
  announce(route(1), 0.0);
  // Perceived as an attribute change (500), but the down-RC says the flap
  // was a withdrawal at the origin: charged the withdrawal penalty (1000).
  announce(route(2), 1.0, down_rc(5));
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 2.0);
  // An up-RC attr change costs the re-announcement penalty — 0 under Cisco.
  const double before = module_->penalty(0, kP);
  announce(route(3), 2.0, up_rc(6));
  EXPECT_NEAR(module_->penalty(0, kP), before, 2.0);
}

}  // namespace
}  // namespace rfdnet::rfd
