// Regression tests for MRAI wakeup lifecycle: every path that drops or
// satisfies a pending update must also cancel the scheduled wakeup, or the
// engine carries a stale timer (and, pre-fix, `pending()` never drains).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/router.hpp"

namespace rfdnet::bgp {
namespace {

class MraiCancelTest : public ::testing::Test {
 protected:
  void make(double mrai_s, bool wrate = false) {
    cfg_.mrai_s = mrai_s;
    cfg_.mrai_on_withdrawals = wrate;
    cfg_.mrai_jitter_min = 1.0;
    cfg_.mrai_jitter_max = 1.0;
    // Keep the flow one-directional (peer 1 in, peer 2 out) so each deferral
    // corresponds to exactly one scheduled wakeup.
    cfg_.advertise_to_sender = false;
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

TEST_F(MraiCancelTest, ConvergingBackCancelsTheWakeup) {
  make(30.0);
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  ASSERT_EQ(count_to(2), 1u);
  // A change within the window defers and schedules a wakeup...
  router_->deliver(1, UpdateMessage::announce(0, path2(1, 9)));
  EXPECT_EQ(router_->pending_depth(), 1);
  EXPECT_EQ(engine_.pending(), 1u);
  // ...then the route converges back to what was already sent: the pending
  // update is dropped AND the wakeup must go with it.
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  EXPECT_EQ(router_->pending_depth(), 0);
  EXPECT_EQ(engine_.pending(), 0u);
  router_->check_invariants();
  engine_.run();
  // The dead wakeup must not produce a spurious duplicate send.
  EXPECT_EQ(count_to(2), 1u);
}

TEST_F(MraiCancelTest, WithdrawalBypassCancelsTheWakeup) {
  make(30.0);  // WRATE off: withdrawals skip the MRAI clock
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  router_->deliver(1, UpdateMessage::announce(0, path2(1, 9)));
  ASSERT_EQ(count_to(2), 1u);
  ASSERT_EQ(engine_.pending(), 1u);
  // The withdrawal goes out immediately, superseding the deferred
  // announcement; its wakeup must be cancelled, not left to fire.
  router_->deliver(1, UpdateMessage::withdraw(0));
  EXPECT_EQ(count_to(2), 2u);
  EXPECT_TRUE(std::get<1>(sent_.back()).is_withdrawal());
  EXPECT_EQ(router_->pending_depth(), 0);
  EXPECT_EQ(engine_.pending(), 0u);
  router_->check_invariants();
  engine_.run();
  EXPECT_EQ(count_to(2), 2u);
}

TEST_F(MraiCancelTest, SessionDownCancelsTheWakeup) {
  make(30.0);
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  router_->deliver(1, UpdateMessage::announce(0, path2(1, 9)));
  ASSERT_EQ(engine_.pending(), 1u);
  // Tearing the session down resets the out-entry (including mrai_ready):
  // pre-fix the stale wakeup survived and fired against the reset entry.
  router_->session_down(router_->peer_slot(2));
  EXPECT_EQ(router_->pending_depth(), 0);
  EXPECT_EQ(engine_.pending(), 0u);
  router_->check_invariants();
  engine_.run();
  EXPECT_EQ(count_to(2), 1u);
}

}  // namespace
}  // namespace rfdnet::bgp
