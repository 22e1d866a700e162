// Regression tests for DampingModule::reset racing pending reuse timers
// (fault paths: router restarts flush damping state mid-run). A reset must
// neither strand a suppressed entry (reuse timer cancelled but entry kept)
// nor double-fire (stale timer firing into rebuilt state).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bgp/network.hpp"
#include "bgp/path_table.hpp"
#include "bgp/policy.hpp"
#include "fault/injector.hpp"
#include "net/topology.hpp"
#include "rfd/damping.hpp"

namespace rfdnet::rfd {
namespace {

using bgp::Route;
using bgp::UpdateMessage;

constexpr bgp::Prefix kP = 0;

class ResetRaceTest : public ::testing::Test {
 protected:
  void make() {
    module_ = std::make_unique<DampingModule>(
        /*self=*/0, std::vector<net::NodeId>{10}, DampingParams::cisco(),
        engine_, [this](int slot, bgp::Prefix p) {
          reuse_calls_.emplace_back(slot, p);
          return true;
        });
  }

  /// Charges slot 0 past the cut-off: three withdrawals of an announced
  /// route are 3000 > 2000 with Cisco parameters (suppression needs the
  /// penalty strictly above the cut-off).
  void suppress_entry() {
    module_->on_update(0, UpdateMessage::announce(kP, route(1)), {}, false);
    module_->on_update(0, UpdateMessage::withdraw(kP, {}), route(1), false);
    module_->on_update(0, UpdateMessage::announce(kP, route(1)), {}, false);
    module_->on_update(0, UpdateMessage::withdraw(kP, {}), route(1), false);
    module_->on_update(0, UpdateMessage::announce(kP, route(1)), {}, false);
    module_->on_update(0, UpdateMessage::withdraw(kP, {}), route(1), false);
    ASSERT_TRUE(module_->suppressed(0, kP));
    ASSERT_TRUE(module_->reuse_time(0, kP).has_value());
  }

  Route route(net::NodeId origin) {
    return Route{paths_.origin(origin), 100};
  }

  bgp::PathTable paths_;
  sim::Engine engine_;
  std::unique_ptr<DampingModule> module_;
  std::vector<std::pair<int, bgp::Prefix>> reuse_calls_;
};

TEST_F(ResetRaceTest, ResetCancelsPendingReuseTimer) {
  make();
  suppress_entry();
  module_->reset();
  EXPECT_EQ(module_->suppressed_count(), 0);
  EXPECT_EQ(module_->tracked_entries(), 0u);
  module_->check_invariants();

  engine_.run();  // the cancelled timer must not fire into the empty state
  EXPECT_TRUE(reuse_calls_.empty());
  EXPECT_EQ(engine_.pending(), 0u);
  module_->check_invariants();
}

TEST_F(ResetRaceTest, SuppressionAfterResetFiresExactlyOnce) {
  make();
  suppress_entry();
  module_->reset();
  // Rebuild suppression state after the reset: the new entry's reuse timer
  // must be the only one alive — a stale timer from before the reset firing
  // as well would reuse the entry twice.
  suppress_entry();
  module_->check_invariants();
  engine_.run();
  EXPECT_EQ(reuse_calls_.size(), 1u);
  EXPECT_FALSE(module_->suppressed(0, kP));
  module_->check_invariants();
}

TEST_F(ResetRaceTest, RepeatedResetIsIdempotent) {
  make();
  suppress_entry();
  module_->reset();
  module_->reset();
  engine_.run();
  EXPECT_TRUE(reuse_calls_.empty());
  module_->check_invariants();
}

// End-to-end variant: a fault-injected router restart (which calls
// DampingHook::reset) landing while the restarted router holds suppressed
// entries with live reuse timers. After the storm plays out every layer
// must still pass its invariant audit and the network must reconverge.
TEST(ResetRaceEndToEnd, RestartWhileSuppressedLeavesConsistentState) {
  net::Graph graph = net::make_ring(4);
  bgp::TimingConfig timing;
  bgp::ShortestPathPolicy policy;
  sim::Engine engine;
  sim::Rng rng{3};
  bgp::BgpNetwork network(graph, timing, policy, engine, rng, nullptr);

  std::vector<std::unique_ptr<DampingModule>> dampers;
  for (net::NodeId u = 0; u < graph.node_count(); ++u) {
    bgp::BgpRouter& r = network.router(u);
    std::vector<net::NodeId> peer_ids;
    for (int s = 0; s < r.peer_count(); ++s) peer_ids.push_back(r.peer(s).id);
    auto mod = std::make_unique<DampingModule>(
        u, std::move(peer_ids), DampingParams::cisco(), engine,
        [&r](int slot, bgp::Prefix p) { return r.on_reuse(slot, p); });
    r.set_damping(mod.get());
    dampers.push_back(std::move(mod));
  }

  network.router(0).originate(kP);
  engine.run();
  ASSERT_TRUE(network.all_reachable(kP));

  // Flap link 2-3 enough to suppress entries around it, then restart router
  // 2 while its reuse timers are pending.
  fault::FaultInjector injector(network, engine, rng.split());
  injector.arm(fault::FaultSchedule::parse(
                   "@1 link-flap 2-3 for 5; @10 link-flap 2-3 for 5;"
                   "@20 link-flap 2-3 for 5; @40 restart 2 for 10"),
               engine.now());
  engine.run();  // drain everything: releases, reuse timers, re-advertisements

  EXPECT_EQ(injector.held_links(), 0);
  EXPECT_TRUE(network.all_reachable(kP));
  injector.check_invariants();
  for (const auto& d : dampers) d->check_invariants();
  for (net::NodeId u = 0; u < graph.node_count(); ++u) {
    network.router(u).check_invariants();
  }
  EXPECT_EQ(engine.pending(), 0u);
}

}  // namespace
}  // namespace rfdnet::rfd
