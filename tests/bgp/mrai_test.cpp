// MRAI pacing details: per-(peer, prefix) independence, jitter behavior,
// withdrawal rate limiting (WRATE), and interaction with session resets.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/router.hpp"

namespace rfdnet::bgp {
namespace {

class MraiTest : public ::testing::Test {
 protected:
  void make(double mrai_s, bool wrate = false, double jitter_min = 1.0,
            double jitter_max = 1.0) {
    cfg_.mrai_s = mrai_s;
    cfg_.mrai_on_withdrawals = wrate;
    cfg_.mrai_jitter_min = jitter_min;
    cfg_.mrai_jitter_max = jitter_max;
    router_ = std::make_unique<BgpRouter>(
        5,
        std::vector<BgpRouter::PeerInfo>{{1, net::Relationship::kPeer},
                                         {2, net::Relationship::kPeer}},
        cfg_, policy_, engine_, rng_,
        [this](int slot, const UpdateMessage& m) {
          sent_.emplace_back(router_->peer(slot).id, m, engine_.now());
        });
  }

  std::size_t count_to(net::NodeId to) const {
    std::size_t n = 0;
    for (const auto& [peer, m, t] : sent_) n += peer == to;
    return n;
  }

  TimingConfig cfg_;
  ShortestPathPolicy policy_;
  sim::Engine engine_;
  sim::Rng rng_{1};
  std::vector<std::tuple<net::NodeId, UpdateMessage, sim::SimTime>> sent_;
  std::unique_ptr<BgpRouter> router_;
};

Route path1(net::NodeId a) { return Route{AsPath::origin(a), 0}; }
Route path2(net::NodeId a, net::NodeId b) {
  return Route{AsPath::origin(b).prepended(a), 0};
}

TEST_F(MraiTest, PrefixesRateLimitIndependently) {
  make(30.0);
  // Two prefixes learned back to back: both go out immediately — the MRAI
  // clock is per (peer, prefix), not per peer.
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  router_->deliver(1, UpdateMessage::announce(7, path1(1)));
  EXPECT_EQ(count_to(2), 2u);
  EXPECT_EQ(engine_.now(), sim::SimTime::zero());
}

TEST_F(MraiTest, SecondChangeOnSamePrefixWaits) {
  make(30.0);
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  router_->deliver(1, UpdateMessage::announce(0, path2(1, 9)));
  EXPECT_EQ(count_to(2), 1u);
  engine_.run();
  EXPECT_EQ(count_to(2), 2u);
  EXPECT_EQ(std::get<2>(sent_.back()), sim::SimTime::from_seconds(30.0));
}

TEST_F(MraiTest, JitterScalesInterval) {
  make(30.0, false, 0.5, 0.5);  // fixed 0.5 factor -> 15 s
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  router_->deliver(1, UpdateMessage::announce(0, path2(1, 9)));
  engine_.run();
  EXPECT_EQ(std::get<2>(sent_.back()), sim::SimTime::from_seconds(15.0));
}

TEST_F(MraiTest, WrateDelaysWithdrawals) {
  make(30.0, /*wrate=*/true);
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  ASSERT_EQ(count_to(2), 1u);
  router_->deliver(1, UpdateMessage::withdraw(0));
  // Withdrawal is rate-limited too: nothing yet.
  EXPECT_EQ(count_to(2), 1u);
  engine_.run();
  ASSERT_EQ(count_to(2), 2u);
  EXPECT_TRUE(std::get<1>(sent_.back()).is_withdrawal());
  EXPECT_GE(std::get<2>(sent_.back()), sim::SimTime::from_seconds(30.0));
}

TEST_F(MraiTest, WithdrawalRestartsClockUnderWrate) {
  make(30.0, /*wrate=*/true);
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  router_->deliver(1, UpdateMessage::withdraw(0));
  engine_.run();  // withdrawal out at t = 30
  ASSERT_EQ(count_to(2), 2u);
  // Re-announcement right after: paced from the withdrawal.
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  EXPECT_EQ(count_to(2), 2u);
  engine_.run();
  ASSERT_EQ(count_to(2), 3u);
  EXPECT_EQ(std::get<2>(sent_.back()), sim::SimTime::from_seconds(60.0));
}

TEST_F(MraiTest, PendingSurvivesMultipleOverwrites) {
  make(30.0);
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  ASSERT_EQ(count_to(2), 1u);
  // Three changes land within the window; only the final state is sent.
  router_->deliver(1, UpdateMessage::announce(0, path2(1, 7)));
  router_->deliver(1, UpdateMessage::announce(0, path2(1, 8)));
  router_->deliver(1, UpdateMessage::announce(0, path2(1, 9)));
  engine_.run();
  ASSERT_EQ(count_to(2), 2u);
  const auto& last = std::get<1>(sent_.back());
  EXPECT_TRUE(last.route->path.contains(9));
}

TEST_F(MraiTest, SessionResetClearsPacing) {
  make(30.0);
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  ASSERT_EQ(count_to(2), 1u);
  // Session to peer 2 bounces: on re-establishment the best route goes out
  // immediately — the old MRAI clock died with the session.
  router_->session_down(1);  // slot 1 = peer 2
  router_->session_up(1);
  EXPECT_EQ(count_to(2), 2u);
  EXPECT_EQ(engine_.now(), sim::SimTime::zero());
}

}  // namespace
}  // namespace rfdnet::bgp
