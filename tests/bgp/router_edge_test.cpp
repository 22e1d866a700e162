// Router edge cases: multiple prefixes, observer emission, interleaved
// originations, and RIB introspection.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/router.hpp"

namespace rfdnet::bgp {
namespace {

class EdgeObserver final : public Observer {
 public:
  struct Event {
    char kind;  // 's'end, 'b'est-change, 'p'ending
    net::NodeId node;
    Prefix prefix = 0;
  };
  void on_send(net::NodeId from, net::NodeId, const UpdateMessage& m,
               sim::SimTime) override {
    events.push_back(Event{'s', from, m.prefix});
  }
  void on_best_change(net::NodeId node, Prefix p, const std::optional<Route>&,
                      sim::SimTime) override {
    events.push_back(Event{'b', node, p});
  }
  void on_pending_change(net::NodeId node, int delta, sim::SimTime) override {
    events.push_back(Event{'p', node, static_cast<Prefix>(delta + 1)});
    pending += delta;
  }
  std::vector<Event> events;
  int pending = 0;
};

class RouterEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.mrai_jitter_min = 1.0;
    cfg_.mrai_jitter_max = 1.0;
    router_ = std::make_unique<BgpRouter>(
        0,
        std::vector<BgpRouter::PeerInfo>{{1, net::Relationship::kPeer},
                                         {2, net::Relationship::kPeer}},
        cfg_, policy_, engine_, rng_, paths_,
        [this](int, const UpdateMessage&) { ++wire_; },
        &observer_);
  }

  TimingConfig cfg_;
  ShortestPathPolicy policy_;
  PathTable paths_;
  sim::Engine engine_;
  sim::Rng rng_{1};
  EdgeObserver observer_;
  int wire_ = 0;
  std::unique_ptr<BgpRouter> router_;
};

TEST_F(RouterEdgeTest, MultiplePrefixesIndependentState) {
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  router_->deliver(2, UpdateMessage::announce(7, Route{paths_.origin(2), 0}));
  EXPECT_TRUE(router_->best(0).has_value());
  EXPECT_TRUE(router_->best(7).has_value());
  EXPECT_EQ(router_->best_slot(0), 0);
  EXPECT_EQ(router_->best_slot(7), 1);
  router_->deliver(1, UpdateMessage::withdraw(0));
  EXPECT_FALSE(router_->best(0).has_value());
  EXPECT_TRUE(router_->best(7).has_value());
}

TEST_F(RouterEdgeTest, UnknownPrefixQueriesAreEmpty) {
  EXPECT_FALSE(router_->best(99).has_value());
  EXPECT_EQ(router_->best_slot(99), -2);
  EXPECT_FALSE(router_->rib_in_route(0, 99).has_value());
}

TEST_F(RouterEdgeTest, BestChangeEmittedOncePerActualChange) {
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  int best_changes = 0;
  for (const auto& e : observer_.events) best_changes += e.kind == 'b';
  EXPECT_EQ(best_changes, 1);
  // Duplicate announcement: no further best-change.
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  best_changes = 0;
  for (const auto& e : observer_.events) best_changes += e.kind == 'b';
  EXPECT_EQ(best_changes, 1);
}

TEST_F(RouterEdgeTest, PendingBalancesToZeroWhenIdle) {
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  router_->deliver(
      1, UpdateMessage::announce(0, Route{paths_.from_hops({1, 9}), 0}));
  router_->deliver(1, UpdateMessage::withdraw(0));
  engine_.run();
  EXPECT_EQ(observer_.pending, 0);
}

TEST_F(RouterEdgeTest, ReoriginatingSamePrefixIsIdempotentOnWire) {
  router_->originate(0);
  const int after_first = wire_;
  router_->originate(0);  // already originated: no change, nothing sent
  EXPECT_EQ(wire_, after_first);
  EXPECT_TRUE(router_->originates(0));
}

TEST_F(RouterEdgeTest, OriginBeatsLearnedRoute) {
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  EXPECT_EQ(router_->best_slot(0), 0);
  router_->originate(0);
  EXPECT_EQ(router_->best_slot(0), -1);  // self
  ASSERT_TRUE(router_->best(0).has_value());
  EXPECT_EQ(router_->best(0)->path.length(), 1u);
  // Withdrawing the origination falls back to the learned route.
  router_->withdraw_origin(0);
  EXPECT_EQ(router_->best_slot(0), 0);
}

TEST_F(RouterEdgeTest, RibInIntrospection) {
  router_->deliver(
      1, UpdateMessage::announce(0, Route{paths_.from_hops({1, 9}), 0}));
  const auto r = router_->rib_in_route(0, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->path.length(), 2u);
  EXPECT_FALSE(router_->rib_in_route(1, 0).has_value());
}

TEST_F(RouterEdgeTest, SessionDownOnlyAffectsOneSlot) {
  router_->deliver(1, UpdateMessage::announce(0, Route{paths_.origin(1), 0}));
  router_->deliver(
      2, UpdateMessage::announce(0, Route{paths_.from_hops({2, 9}), 0}));
  router_->session_down(0);  // peer 1 gone
  EXPECT_FALSE(router_->rib_in_route(0, 0).has_value());
  ASSERT_TRUE(router_->rib_in_route(1, 0).has_value());
  EXPECT_EQ(router_->best_slot(0), 1);
}

TEST_F(RouterEdgeTest, SessionDownWithNothingLearnedIsQuiet) {
  const auto events_before = observer_.events.size();
  router_->session_down(0);
  router_->session_up(0);
  EXPECT_EQ(observer_.events.size(), events_before);
}

TEST_F(RouterEdgeTest, SessionBadSlotThrows) {
  EXPECT_THROW(router_->session_down(-1), std::invalid_argument);
  EXPECT_THROW(router_->session_down(7), std::invalid_argument);
  EXPECT_THROW(router_->session_up(7), std::invalid_argument);
}

TEST_F(RouterEdgeTest, SessionUpAdvertisesEveryPrefix) {
  router_->originate(3);
  router_->originate(4);
  router_->deliver(1, UpdateMessage::announce(5, Route{paths_.origin(1), 0}));
  wire_ = 0;
  router_->session_down(1);
  wire_ = 0;
  router_->session_up(1);
  // Peer 2 gets all three prefixes afresh (two originated, one learned).
  EXPECT_EQ(wire_, 3);
}

}  // namespace
}  // namespace rfdnet::bgp
