#include "bgp/router.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "bgp/policy.hpp"

namespace rfdnet::bgp {
namespace {

struct SentMsg {
  net::NodeId from;
  net::NodeId to;
  UpdateMessage msg;
  sim::SimTime t;
};

/// Damping stub with externally controlled suppression.
class FakeDamper final : public DampingHook {
 public:
  void on_update(int slot, const UpdateMessage& msg,
                 const std::optional<Route>& prev, bool loop_denied) override {
    ++updates_seen;
    last_slot = slot;
    last_kind = msg.kind;
    last_prev = prev;
    last_loop_denied = loop_denied;
  }
  bool suppressed(int slot, Prefix p) const override {
    return sup.contains({slot, p});
  }
  void reset() override { sup.clear(); }

  std::set<std::pair<int, Prefix>> sup;
  int updates_seen = 0;
  int last_slot = -1;
  UpdateKind last_kind = UpdateKind::kAnnouncement;
  std::optional<Route> last_prev;
  bool last_loop_denied = false;
};

class RouterTest : public ::testing::Test {
 protected:
  void make_router(net::NodeId id, std::vector<BgpRouter::PeerInfo> peers) {
    cfg_.mrai_jitter_min = 1.0;  // deterministic MRAI in tests
    cfg_.mrai_jitter_max = 1.0;
    router_ = std::make_unique<BgpRouter>(
        id, std::move(peers), cfg_, policy_, engine_, rng_, paths_,
        [this](int slot, const UpdateMessage& m) {
          sent_.push_back(SentMsg{router_->id(), router_->peer(slot).id, m,
                                  engine_.now()});
        });
  }

  /// Messages sent to `to`, in order.
  std::vector<UpdateMessage> to_peer(net::NodeId to) const {
    std::vector<UpdateMessage> out;
    for (const auto& s : sent_) {
      if (s.to == to) out.push_back(s.msg);
    }
    return out;
  }

  void advance(double seconds) {
    engine_.schedule_after(sim::Duration::seconds(seconds), [] {});
    engine_.run();
  }

  TimingConfig cfg_;
  ShortestPathPolicy policy_;
  PathTable paths_;
  sim::Engine engine_;
  sim::Rng rng_{1};
  std::vector<SentMsg> sent_;
  std::unique_ptr<BgpRouter> router_;
};

TEST_F(RouterTest, RejectsBadConstruction) {
  cfg_.mrai_jitter_min = 1.0;
  cfg_.mrai_jitter_max = 1.0;
  EXPECT_THROW(BgpRouter(1, {{1, net::Relationship::kPeer}}, cfg_, policy_,
                         engine_, rng_, paths_,
                         [](int, const UpdateMessage&) {}),
               std::invalid_argument);  // peer with self
  EXPECT_THROW(
      BgpRouter(1, {{2, net::Relationship::kPeer}, {2, net::Relationship::kPeer}},
                cfg_, policy_, engine_, rng_, paths_,
                [](int, const UpdateMessage&) {}),
      std::invalid_argument);  // duplicate peer
  EXPECT_THROW(BgpRouter(1, {}, cfg_, policy_, engine_, rng_, paths_, nullptr),
               std::invalid_argument);  // no send fn
}

TEST_F(RouterTest, PeerSlots) {
  make_router(0, {{5, net::Relationship::kPeer}, {9, net::Relationship::kPeer}});
  EXPECT_EQ(router_->peer_count(), 2);
  EXPECT_EQ(router_->peer_slot(5), 0);
  EXPECT_EQ(router_->peer_slot(9), 1);
  EXPECT_EQ(router_->peer_slot(7), -1);
}

TEST_F(RouterTest, OriginateAnnouncesToAllPeers) {
  make_router(0, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  router_->originate(0);
  ASSERT_EQ(sent_.size(), 2u);
  for (const auto& s : sent_) {
    EXPECT_TRUE(s.msg.is_announcement());
    EXPECT_EQ(s.msg.route->path.hops(), (std::vector<net::NodeId>{0}));
  }
  ASSERT_TRUE(router_->best(0).has_value());
  EXPECT_TRUE(router_->originates(0));
}

TEST_F(RouterTest, WithdrawOriginSendsWithdrawals) {
  make_router(0, {{1, net::Relationship::kPeer}});
  router_->originate(0);
  sent_.clear();
  router_->withdraw_origin(0);
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_TRUE(sent_[0].msg.is_withdrawal());
  EXPECT_FALSE(router_->best(0).has_value());
}

TEST_F(RouterTest, WithdrawWithoutAnnounceSendsNothing) {
  make_router(0, {{1, net::Relationship::kPeer}});
  router_->withdraw_origin(0);
  EXPECT_TRUE(sent_.empty());
}

TEST_F(RouterTest, DeliverInstallsRoute) {
  make_router(0, {{1, net::Relationship::kPeer}});
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  const auto best = router_->best(0);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->path.hops(), (std::vector<net::NodeId>{1}));
  EXPECT_EQ(best->local_pref, 100);  // assigned by import policy
  EXPECT_EQ(router_->best_slot(0), 0);
}

TEST_F(RouterTest, DeliverFromNonPeerThrows) {
  make_router(0, {{1, net::Relationship::kPeer}});
  EXPECT_THROW(
      router_->deliver(9, UpdateMessage::announce(0, Route{paths_.origin(9), 0})),
      std::logic_error);
}

TEST_F(RouterTest, LoopedAnnouncementActsAsWithdrawal) {
  make_router(0, {{1, net::Relationship::kPeer}});
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(2), 0}));
  ASSERT_TRUE(router_->best(0).has_value());
  // Now peer 1 announces a path that contains us: implicit withdrawal.
  router_->deliver(
      1, UpdateMessage::announce(0, Route{paths_.from_hops({1, 0, 2}), 0}));
  EXPECT_FALSE(router_->best(0).has_value());
  EXPECT_FALSE(router_->rib_in_route(0, 0).has_value());
}

TEST_F(RouterTest, PicksShorterPathAcrossPeers) {
  make_router(0, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  router_->deliver(
      1, UpdateMessage::announce(0, Route{paths_.from_hops({1, 8, 9}), 0}));
  router_->deliver(2, UpdateMessage::announce(0, Route{paths_.from_hops({2, 9}), 0}));
  EXPECT_EQ(router_->best_slot(0), 1);  // via peer 2, shorter
}

TEST_F(RouterTest, FallsBackWhenBestWithdrawn) {
  make_router(0, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.from_hops({1, 9}), 0}));
  router_->deliver(
      2, UpdateMessage::announce(0, Route{paths_.from_hops({2, 8, 9}), 0}));
  EXPECT_EQ(router_->best_slot(0), 0);
  router_->deliver(1, UpdateMessage::withdraw(0));
  EXPECT_EQ(router_->best_slot(0), 1);  // explored the alternate path
  ASSERT_TRUE(router_->best(0).has_value());
  EXPECT_EQ(router_->best(0)->path.length(), 3u);
}

TEST_F(RouterTest, PropagatesBestChangeWithPrependedPath) {
  make_router(5, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  const auto msgs = to_peer(2);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].route->path.hops(), (std::vector<net::NodeId>{5, 1}));
}

TEST_F(RouterTest, AdvertisesBackToSenderByDefault) {
  make_router(5, {{1, net::Relationship::kPeer}});
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  // Default config advertises the best path to everyone, including the peer
  // it was learned from (receiver-side loop detection discards it).
  EXPECT_EQ(to_peer(1).size(), 1u);
}

TEST_F(RouterTest, NoAdvertiseToSenderWhenDisabled) {
  cfg_.advertise_to_sender = false;
  make_router(5, {{1, net::Relationship::kPeer}});
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  EXPECT_TRUE(to_peer(1).empty());
}

TEST_F(RouterTest, DuplicateBestIsNotReannounced) {
  make_router(5, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  const auto count_before = to_peer(2).size();
  // Same route again: no new announcement anywhere.
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  EXPECT_EQ(to_peer(2).size(), count_before);
}

TEST_F(RouterTest, MraiDelaysSecondAnnouncement) {
  cfg_.mrai_s = 30.0;
  make_router(5, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  // First announcement goes out immediately.
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  ASSERT_EQ(to_peer(2).size(), 1u);
  // An alternate route arrives and the best one is withdrawn: the resulting
  // change is held back by MRAI...
  router_->deliver(
      2, UpdateMessage::announce(0, Route{paths_.from_hops({2, 9}), 0}));
  router_->deliver(1, UpdateMessage::withdraw(0));
  EXPECT_EQ(to_peer(2).size(), 1u);
  // ...and flushed when the timer expires.
  engine_.run();
  ASSERT_EQ(to_peer(2).size(), 2u);
  EXPECT_GE(engine_.now(), sim::SimTime::from_seconds(30.0));
}

TEST_F(RouterTest, WithdrawalBypassesMrai) {
  cfg_.mrai_s = 30.0;
  make_router(5, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  ASSERT_EQ(to_peer(2).size(), 1u);
  router_->deliver(1, UpdateMessage::withdraw(0));
  // The withdrawal is not rate-limited: it goes out at t = 0.
  const auto msgs = to_peer(2);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_TRUE(msgs[1].is_withdrawal());
  EXPECT_EQ(engine_.now(), sim::SimTime::zero());
}

TEST_F(RouterTest, MraiCollapsesTransientChange) {
  cfg_.mrai_s = 30.0;
  make_router(5, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  ASSERT_EQ(to_peer(2).size(), 1u);
  // Change away and back within the MRAI window: pending update collapses.
  router_->deliver(
      1, UpdateMessage::announce(0, Route{paths_.from_hops({1, 9}), 0}));
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  engine_.run();
  EXPECT_EQ(to_peer(2).size(), 1u);  // nothing new ever sent
}

TEST_F(RouterTest, ZeroMraiSendsImmediately) {
  cfg_.mrai_s = 0.0;
  make_router(5, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  router_->deliver(
      1, UpdateMessage::announce(0, Route{paths_.from_hops({1, 9}), 0}));
  EXPECT_EQ(to_peer(2).size(), 2u);
  EXPECT_EQ(engine_.now(), sim::SimTime::zero());
}

TEST_F(RouterTest, DampingHookSeesUpdatesWithPreviousRoute) {
  make_router(0, {{1, net::Relationship::kPeer}});
  FakeDamper damper;
  router_->set_damping(&damper);
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  EXPECT_EQ(damper.updates_seen, 1);
  EXPECT_FALSE(damper.last_prev.has_value());
  router_->deliver(1, UpdateMessage::withdraw(0));
  EXPECT_EQ(damper.updates_seen, 2);
  ASSERT_TRUE(damper.last_prev.has_value());
  EXPECT_EQ(damper.last_kind, UpdateKind::kWithdrawal);
}

TEST_F(RouterTest, DampingHookSeesLoopDeniedFlag) {
  make_router(0, {{1, net::Relationship::kPeer}});
  FakeDamper damper;
  router_->set_damping(&damper);
  router_->deliver(
      1, UpdateMessage::announce(0, Route{paths_.from_hops({1, 0, 2}), 0}));
  EXPECT_TRUE(damper.last_loop_denied);
  EXPECT_EQ(damper.last_kind, UpdateKind::kWithdrawal);
}

TEST_F(RouterTest, SuppressedEntryExcludedFromSelection) {
  make_router(0, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  FakeDamper damper;
  router_->set_damping(&damper);
  damper.sup.insert({0, 0});  // suppress peer 1's entry
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  EXPECT_FALSE(router_->best(0).has_value());
  router_->deliver(
      2, UpdateMessage::announce(0, Route{paths_.from_hops({2, 9}), 0}));
  EXPECT_EQ(router_->best_slot(0), 1);  // longer but usable
}

TEST_F(RouterTest, ReuseMakesEntryAvailableAndReportsNoisy) {
  make_router(0, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  FakeDamper damper;
  router_->set_damping(&damper);
  damper.sup.insert({0, 0});
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  router_->deliver(
      2, UpdateMessage::announce(0, Route{paths_.from_hops({2, 9}), 0}));
  EXPECT_EQ(router_->best_slot(0), 1);
  damper.sup.clear();
  EXPECT_TRUE(router_->on_reuse(0, 0));   // noisy: best switches to peer 1
  EXPECT_EQ(router_->best_slot(0), 0);
  EXPECT_FALSE(router_->on_reuse(1, 0));  // silent: nothing changes
}

TEST_F(RouterTest, SilentReuseWhenRouteWithdrawn) {
  make_router(0, {{1, net::Relationship::kPeer}});
  FakeDamper damper;
  router_->set_damping(&damper);
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  damper.sup.insert({0, 0});
  router_->deliver(1, UpdateMessage::withdraw(0));  // arrives while suppressed
  damper.sup.clear();
  EXPECT_FALSE(router_->on_reuse(0, 0));  // muffled: nothing to reuse
}

TEST_F(RouterTest, RootCauseCopiedIntoTriggeredUpdates) {
  make_router(5, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  const rcn::RootCause rc{7, 8, false, 42};
  router_->deliver(1,
                   UpdateMessage::announce(0, Route{paths_.origin(1), 0}, rc));
  const auto msgs = to_peer(2);
  ASSERT_EQ(msgs.size(), 1u);
  ASSERT_TRUE(msgs[0].rc.has_value());
  EXPECT_EQ(*msgs[0].rc, rc);
}

TEST_F(RouterTest, ReuseCarriesStoredRootCause) {
  make_router(5, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  FakeDamper damper;
  router_->set_damping(&damper);
  damper.sup.insert({0, 0});
  const rcn::RootCause rc{7, 8, true, 43};
  router_->deliver(1,
                   UpdateMessage::announce(0, Route{paths_.origin(1), 0}, rc));
  EXPECT_TRUE(to_peer(2).empty());  // suppressed, nothing propagated
  damper.sup.clear();
  EXPECT_TRUE(router_->on_reuse(0, 0));
  const auto msgs = to_peer(2);
  ASSERT_EQ(msgs.size(), 1u);
  ASSERT_TRUE(msgs[0].rc.has_value());
  EXPECT_EQ(*msgs[0].rc, rc);  // §6.2: reuse announcement carries seen RC
}

TEST_F(RouterTest, NoValleyExportFiltering) {
  NoValleyPolicy policy;
  cfg_.mrai_jitter_min = 1.0;
  cfg_.mrai_jitter_max = 1.0;
  // Node 0 with a provider (1), a peer (2) and a customer (3).
  const std::vector<BgpRouter::PeerInfo> peers = {
      {1, net::Relationship::kProvider},
      {2, net::Relationship::kPeer},
      {3, net::Relationship::kCustomer}};
  BgpRouter router(0, peers, cfg_, policy, engine_, rng_, paths_,
                   [this, &peers](int slot, const UpdateMessage& m) {
                     sent_.push_back(
                         SentMsg{0, peers[slot].id, m, engine_.now()});
                   });
  // A provider route: export only to the customer.
  router.deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  EXPECT_TRUE(to_peer(2).empty());
  EXPECT_EQ(to_peer(3).size(), 1u);
  sent_.clear();
  // A customer route: better (higher pref) and exported everywhere.
  router.deliver(3, UpdateMessage::announce(0, Route{paths_.origin(3), 0}));
  EXPECT_EQ(router.best_slot(0), 2);
  EXPECT_EQ(to_peer(1).size(), 1u);
  EXPECT_EQ(to_peer(2).size(), 1u);
}

TEST_F(RouterTest, ExportFlipRequiresWithdrawal) {
  NoValleyPolicy policy;
  cfg_.mrai_jitter_min = 1.0;
  cfg_.mrai_jitter_max = 1.0;
  const std::vector<BgpRouter::PeerInfo> peers = {
      {1, net::Relationship::kCustomer}, {2, net::Relationship::kPeer}};
  BgpRouter router(0, peers, cfg_, policy, engine_, rng_, paths_,
                   [this, &peers](int slot, const UpdateMessage& m) {
                     sent_.push_back(
                         SentMsg{0, peers[slot].id, m, engine_.now()});
                   });
  // Customer route: announced to the peer.
  router.deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  ASSERT_EQ(to_peer(2).size(), 1u);
  // Customer withdraws; the only remaining route comes from the peer
  // itself... nothing. Best is gone: peer must receive a withdrawal.
  router.deliver(1, UpdateMessage::withdraw(0));
  const auto msgs = to_peer(2);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_TRUE(msgs[1].is_withdrawal());
}

TEST_F(RouterTest, SenderSideLoopCheckSkipsLoopingPaths) {
  cfg_.sender_side_loop_check = true;
  make_router(5, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  // Best learned from 1: exported path [5, 1, ...] contains 1 -> withheld
  // from peer 1 even though advertise_to_sender is on.
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  EXPECT_TRUE(to_peer(1).empty());
  EXPECT_EQ(to_peer(2).size(), 1u);
}

TEST_F(RouterTest, SenderSideLoopCheckWithdrawsWhenBestSwitches) {
  cfg_.sender_side_loop_check = true;
  cfg_.mrai_s = 0.0;
  make_router(5, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  // Best via 2 first: announced to 1.
  router_->deliver(
      2, UpdateMessage::announce(0, Route{paths_.from_hops({2, 9}), 0}));
  ASSERT_EQ(to_peer(1).size(), 1u);
  // An equal-length route via 1 wins the tie-break: the new export to 1
  // would loop, so peer 1 gets an explicit withdrawal instead.
  router_->deliver(
      1, UpdateMessage::announce(0, Route{paths_.from_hops({1, 9}), 0}));
  const auto msgs = to_peer(1);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_TRUE(msgs[1].is_withdrawal());
}

TEST_F(RouterTest, SentCountTracksWire) {
  make_router(0, {{1, net::Relationship::kPeer}, {2, net::Relationship::kPeer}});
  router_->originate(0);
  EXPECT_EQ(router_->sent_count(), 2u);
  router_->withdraw_origin(0);
  EXPECT_EQ(router_->sent_count(), 4u);
}

}  // namespace
}  // namespace rfdnet::bgp
