#include <gtest/gtest.h>

#include "bgp/path_table.hpp"
#include "rfd/damping.hpp"

namespace rfdnet::rfd {
namespace {

using bgp::RelPref;
using bgp::Route;
using bgp::UpdateMessage;
using sim::SimTime;

constexpr bgp::Prefix kP = 0;

UpdateMessage announce_pref(const Route& r, RelPref pref) {
  UpdateMessage m = UpdateMessage::announce(kP, r);
  m.rel_pref = pref;
  return m;
}

class SelectiveDampingTest : public ::testing::Test {
 protected:
  SelectiveDampingTest()
      : module_(0, {1}, DampingParams::cisco(), engine_,
                [](int, bgp::Prefix) { return true; }) {
    module_.enable_selective();
  }

  Route route_len(int len) {
    bgp::AsPath p = paths_.origin(100);
    for (int i = 1; i < len; ++i) {
      p = paths_.prepend(p, static_cast<net::NodeId>(i));
    }
    return Route{p, 100};
  }

  bgp::PathTable paths_;
  sim::Engine engine_;
  DampingModule module_;
  std::optional<Route> prev_;

  void deliver(const UpdateMessage& m) {
    module_.on_update(0, m, prev_, false);
    prev_ = m.route;
  }
};

TEST_F(SelectiveDampingTest, WorseAnnouncementsAreFree) {
  deliver(announce_pref(route_len(2), RelPref::kBetter));  // initial: free
  deliver(announce_pref(route_len(3), RelPref::kWorse));   // exploration
  deliver(announce_pref(route_len(4), RelPref::kWorse));   // exploration
  EXPECT_DOUBLE_EQ(module_.penalty(0, kP), 0.0);
}

TEST_F(SelectiveDampingTest, BetterAnnouncementsAreCharged) {
  deliver(announce_pref(route_len(4), RelPref::kBetter));
  deliver(announce_pref(route_len(2), RelPref::kBetter));  // attr change
  EXPECT_NEAR(module_.penalty(0, kP), 500.0, 1.0);
}

TEST_F(SelectiveDampingTest, WithdrawalsStillCharged) {
  // §6: selective damping does not catch everything — the withdrawal that
  // ends an exploration sequence is charged.
  deliver(announce_pref(route_len(2), RelPref::kBetter));
  deliver(announce_pref(route_len(3), RelPref::kWorse));
  deliver(UpdateMessage::withdraw(kP));
  EXPECT_NEAR(module_.penalty(0, kP), 1000.0, 1.0);
}

TEST_F(SelectiveDampingTest, ReuseAnnouncementRanksBetterAndIsCharged) {
  // §6: "does not address the problem of secondary charging" — a reuse
  // announcement is an improvement over the withdrawn state and pays full
  // price.
  deliver(announce_pref(route_len(2), RelPref::kBetter));
  deliver(UpdateMessage::withdraw(kP));  // +1000
  deliver(announce_pref(route_len(2), RelPref::kBetter));  // re-announce: +0
  deliver(announce_pref(route_len(3), RelPref::kBetter));  // "reuse": +500
  EXPECT_NEAR(module_.penalty(0, kP), 1500.0, 10.0);
}

TEST_F(SelectiveDampingTest, AnnouncementWithoutAttributeCharged) {
  deliver(announce_pref(route_len(2), RelPref::kBetter));
  deliver(UpdateMessage::announce(kP, route_len(3)));  // no rel_pref
  EXPECT_NEAR(module_.penalty(0, kP), 500.0, 1.0);
}

TEST(SelectiveExclusivity, SelectiveAndRcnAreMutuallyExclusive) {
  sim::Engine engine;
  DampingModule a(0, {1}, DampingParams::cisco(), engine,
                  [](int, bgp::Prefix) { return true; });
  a.enable_selective();
  EXPECT_THROW(a.enable_rcn(), std::logic_error);
  DampingModule b(0, {1}, DampingParams::cisco(), engine,
                  [](int, bgp::Prefix) { return true; });
  b.enable_rcn();
  EXPECT_THROW(b.enable_selective(), std::logic_error);
  EXPECT_TRUE(b.rcn_enabled());
  EXPECT_FALSE(b.selective_enabled());
}

TEST(RelPrefNames, ToString) {
  EXPECT_EQ(bgp::to_string(RelPref::kBetter), "better");
  EXPECT_EQ(bgp::to_string(RelPref::kEqual), "equal");
  EXPECT_EQ(bgp::to_string(RelPref::kWorse), "worse");
}

}  // namespace
}  // namespace rfdnet::rfd
