// Regression tests for per-prefix RIB state reclamation: a prefix that has
// been fully withdrawn used to keep its RIB-IN / Loc-RIB / RIB-OUT rows
// forever, so a full-table churn workload grew resident state without bound.
// Rows must be reclaimed once everything about the prefix is inert — and the
// deferred path (row still carrying a live MRAI rate limit) must neither
// forget the pacing nor schedule engine events (`Engine::pending()` is
// asserted drained by the MRAI lifecycle tests).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/rib_backend.hpp"
#include "bgp/router.hpp"

namespace rfdnet::bgp {
namespace {

class RibReclaimTest : public ::testing::TestWithParam<RibBackendKind> {
 protected:
  void make(double mrai_s) {
    cfg_.mrai_s = mrai_s;
    cfg_.mrai_jitter_min = 1.0;
    cfg_.mrai_jitter_max = 1.0;
    cfg_.advertise_to_sender = false;
    router_ = std::make_unique<BgpRouter>(
        5,
        std::vector<BgpRouter::PeerInfo>{{1, net::Relationship::kPeer},
                                         {2, net::Relationship::kPeer}},
        cfg_, policy_, engine_, rng_, paths_,
        [this](int, const UpdateMessage&) { ++sent_; },
        nullptr, GetParam());
  }

  void advance(double seconds) {
    engine_.schedule_after(sim::Duration::seconds(seconds), [] {});
    engine_.run();
  }

  Route path1(net::NodeId a) { return Route{paths_.origin(a), 0}; }

  TimingConfig cfg_;
  ShortestPathPolicy policy_;
  PathTable paths_;
  sim::Engine engine_;
  sim::Rng rng_{1};
  std::size_t sent_ = 0;
  std::unique_ptr<BgpRouter> router_;
};

TEST_P(RibReclaimTest, AnnounceWithdrawReturnsToBaseline) {
  make(0.0);  // no MRAI: withdrawal leaves nothing to pace
  constexpr Prefix kN = 200;
  for (Prefix p = 0; p < kN; ++p) {
    router_->deliver(1, UpdateMessage::announce(p, path1(1)));
  }
  EXPECT_EQ(router_->resident_rows(), kN);
  for (Prefix p = 0; p < kN; ++p) {
    router_->deliver(1, UpdateMessage::withdraw(p));
  }
  // Every row is inert again: the full announce/withdraw cycle must not
  // leave resident per-prefix state behind.
  EXPECT_EQ(router_->resident_rows(), 0u);
  router_->check_invariants();
}

TEST_P(RibReclaimTest, DuplicateWithdrawalDoesNotAccrete) {
  make(0.0);
  // A withdrawal for a prefix nobody ever announced allocates a RIB-IN row
  // on delivery; the no-op decision must reclaim it on the way out.
  for (Prefix p = 0; p < 50; ++p) {
    router_->deliver(1, UpdateMessage::withdraw(p));
  }
  EXPECT_EQ(router_->resident_rows(), 0u);
}

TEST_P(RibReclaimTest, MraiPacingDefersReclamationWithoutEngineEvents) {
  make(30.0);
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  router_->deliver(1, UpdateMessage::withdraw(0));
  // The withdrawal bypassed MRAI and went out, but the peer-2 out-entry
  // still carries mrai_ready = t+30: erasing now would forget the rate
  // limit, so the row is parked instead — with no engine event backing it.
  EXPECT_GT(router_->resident_rows(), 0u);
  EXPECT_EQ(engine_.pending(), 0u);

  // Re-announcement inside the window must still be paced (the bug the
  // parking protects against).
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  EXPECT_EQ(router_->pending_depth(), 1);
  router_->deliver(1, UpdateMessage::withdraw(0));
  EXPECT_EQ(router_->pending_depth(), 0);

  // Past the horizon, the next external poke sweeps the parked rows.
  // `session_up` on an already-open session is a pure poke: it creates no
  // state of its own.
  advance(40.0);
  router_->session_up(0);
  EXPECT_EQ(router_->resident_rows(), 0u);
  router_->check_invariants();
}

TEST_P(RibReclaimTest, ParkedPrefixComingAliveAgainIsKept) {
  make(30.0);
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  router_->deliver(1, UpdateMessage::withdraw(0));
  EXPECT_GT(router_->resident_rows(), 0u);
  // The prefix comes back before the horizon: the sweep must notice the row
  // is live again and keep it.
  router_->deliver(1, UpdateMessage::announce(0, path1(1)));
  advance(120.0);
  router_->session_up(0);
  EXPECT_TRUE(router_->best(0).has_value());
  EXPECT_GT(router_->resident_rows(), 0u);
  router_->check_invariants();
}

TEST_P(RibReclaimTest, ConstReadsDoNotCreateRows) {
  make(30.0);
  const BgpRouter& r = *router_;
  EXPECT_FALSE(r.best(99).has_value());
  EXPECT_LT(r.best_slot(99), 0);
  EXPECT_FALSE(r.rib_in_route(0, 99).has_value());
  EXPECT_EQ(r.resident_rows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, RibReclaimTest,
                         ::testing::Values(RibBackendKind::kHashMap),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// The null backend retains nothing by construction; it only has to survive
// the same traffic without tripping invariants.
TEST(RibReclaimNullTest, NullBackendRetainsNothing) {
  TimingConfig cfg;
  cfg.mrai_s = 0.0;
  cfg.mrai_jitter_min = 1.0;
  cfg.mrai_jitter_max = 1.0;
  ShortestPathPolicy policy;
  PathTable paths;
  sim::Engine engine;
  sim::Rng rng{1};
  BgpRouter router(
      5,
      std::vector<BgpRouter::PeerInfo>{{1, net::Relationship::kPeer},
                                       {2, net::Relationship::kPeer}},
      cfg, policy, engine, rng, paths, [](int, const UpdateMessage&) {},
      nullptr, RibBackendKind::kNull);
  for (Prefix p = 0; p < 20; ++p) {
    router.deliver(1, UpdateMessage::announce(p, Route{paths.origin(1), 0}));
    router.deliver(1, UpdateMessage::withdraw(p));
  }
  EXPECT_EQ(router.resident_rows(), 0u);
  router.check_invariants();
}

}  // namespace
}  // namespace rfdnet::bgp
