#include "rfd/damping.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "bgp/path_table.hpp"

namespace rfdnet::rfd {
namespace {

using bgp::Route;
using bgp::UpdateMessage;
using sim::Duration;
using sim::SimTime;

constexpr bgp::Prefix kP = 0;

class DampingModuleTest : public ::testing::Test {
 protected:
  void make(DampingParams params = DampingParams::cisco(),
            bgp::RibBackendKind backend = bgp::RibBackendKind::kHashMap) {
    module_ = std::make_unique<DampingModule>(
        /*self=*/0, std::vector<net::NodeId>{10, 11}, params, engine_,
        [this](int slot, bgp::Prefix p) {
          reuse_calls_.emplace_back(slot, p);
          return reuse_noisy_;
        },
        nullptr, backend);
  }

  /// Delivers an announcement to slot 0, tracking previous-route state.
  void announce(const Route& r, double t_s, int slot = 0) {
    at(t_s);
    module_->on_update(slot, UpdateMessage::announce(kP, r), prev_[slot], false);
    prev_[slot] = r;
  }
  void withdraw(double t_s, int slot = 0,
                std::optional<rcn::RootCause> rc = {}) {
    at(t_s);
    module_->on_update(slot, UpdateMessage::withdraw(kP, rc), prev_[slot],
                       false);
    prev_[slot].reset();
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
  std::optional<Route> prev_[2];
  std::vector<std::pair<int, bgp::Prefix>> reuse_calls_;
  bool reuse_noisy_ = true;
};

TEST_F(DampingModuleTest, InitialAnnouncementIsFree) {
  make();
  announce(route(1), 0.0);
  EXPECT_DOUBLE_EQ(module_->penalty(0, kP), 0.0);
  EXPECT_FALSE(module_->suppressed(0, kP));
}

TEST_F(DampingModuleTest, WithdrawalCosts1000) {
  make();
  announce(route(1), 0.0);
  withdraw(1.0);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
}

TEST_F(DampingModuleTest, DuplicateWithdrawalIsFree) {
  make();
  announce(route(1), 0.0);
  withdraw(1.0);
  withdraw(2.0);  // no route to withdraw: free
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
}

TEST_F(DampingModuleTest, CiscoReannouncementIsFree) {
  make();
  announce(route(1), 0.0);
  withdraw(1.0);
  announce(route(1), 2.0);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
}

TEST_F(DampingModuleTest, JuniperReannouncementCosts1000) {
  make(DampingParams::juniper());
  announce(route(1), 0.0);
  withdraw(1.0);
  announce(route(1), 2.0);
  EXPECT_NEAR(module_->penalty(0, kP), 2000.0, 1.0);
}

TEST_F(DampingModuleTest, ReannouncementAfterResetStillCharged) {
  // Regression: after reset() the module has no memory, but the RIB-IN
  // still holds a route; a withdrawal of that route followed by an
  // announcement is a re-announcement, not an initial announcement.
  make(DampingParams::juniper());
  announce(route(1), 0.0);
  module_->reset();
  withdraw(60.0);           // prev route exists: proves prior announcement
  announce(route(1), 120.0);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0 * std::exp(-DampingParams::juniper().lambda() * 60.0) + 1000.0, 1.0);
}

TEST_F(DampingModuleTest, AttributeChangeCosts500) {
  make();
  announce(route(1), 0.0);
  announce(route(2), 1.0);
  EXPECT_NEAR(module_->penalty(0, kP), 500.0, 1.0);
}

TEST_F(DampingModuleTest, DuplicateAnnouncementIsFree) {
  make();
  announce(route(1), 0.0);
  announce(route(1), 1.0);
  EXPECT_DOUBLE_EQ(module_->penalty(0, kP), 0.0);
}

TEST_F(DampingModuleTest, LoopDeniedIsFreeByDefault) {
  make();
  announce(route(1), 0.0);
  at(1.0);
  module_->on_update(0, UpdateMessage::withdraw(kP), prev_[0],
                     /*loop_denied=*/true);
  prev_[0].reset();
  EXPECT_DOUBLE_EQ(module_->penalty(0, kP), 0.0);
}

TEST_F(DampingModuleTest, LoopDeniedChargedWhenConfigured) {
  DampingParams p = DampingParams::cisco();
  p.charge_loop_denied = true;
  make(p);
  announce(route(1), 0.0);
  at(1.0);
  module_->on_update(0, UpdateMessage::withdraw(kP), prev_[0],
                     /*loop_denied=*/true);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
}

TEST_F(DampingModuleTest, EntriesAreIndependentPerPeer) {
  make();
  announce(route(1), 0.0, 0);
  announce(route(1), 0.0, 1);
  withdraw(1.0, 0);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
  EXPECT_DOUBLE_EQ(module_->penalty(1, kP), 0.0);
}

TEST_F(DampingModuleTest, SuppressionAtThirdPulseWithCiscoDefaults) {
  // The paper's §5.1 setup: W/A pulses 60 s apart. With Cisco parameters
  // suppression triggers exactly at the 3rd withdrawal.
  make();
  announce(route(1), 0.0);
  withdraw(60.0);
  announce(route(1), 120.0);
  EXPECT_FALSE(module_->suppressed(0, kP));
  withdraw(180.0);
  announce(route(1), 240.0);
  EXPECT_FALSE(module_->suppressed(0, kP));  // ~1912 < 2000
  withdraw(300.0);
  EXPECT_TRUE(module_->suppressed(0, kP));  // ~2744 > 2000
}

TEST_F(DampingModuleTest, ReuseFiresWhenPenaltyDecaysToThreshold) {
  make();
  announce(route(1), 0.0);
  withdraw(10.0);
  announce(route(2), 11.0);
  announce(route(3), 12.0);
  withdraw(13.0);  // ~1000+500+500+1000 = ~3000 > cutoff
  ASSERT_TRUE(module_->suppressed(0, kP));
  const auto when = module_->reuse_time(0, kP);
  ASSERT_TRUE(when.has_value());
  const DampingParams params = DampingParams::cisco();
  const double expect_s =
      13.0 + std::log(module_->penalty(0, kP) / params.reuse) / params.lambda();
  EXPECT_NEAR(when->as_seconds(), expect_s, 0.1);

  engine_.run();
  EXPECT_FALSE(module_->suppressed(0, kP));
  ASSERT_EQ(reuse_calls_.size(), 1u);
  EXPECT_EQ(reuse_calls_[0], (std::pair<int, bgp::Prefix>{0, kP}));
  EXPECT_NEAR(engine_.now().as_seconds(), expect_s, 0.1);
}

TEST_F(DampingModuleTest, FurtherUpdatesPostponeReuse) {
  make();
  announce(route(1), 0.0);
  withdraw(10.0);
  announce(route(2), 11.0);
  announce(route(3), 12.0);
  withdraw(13.0);
  ASSERT_TRUE(module_->suppressed(0, kP));
  const auto first = module_->reuse_time(0, kP);
  // Another withdrawal arrives while suppressed: timer pushed out.
  announce(route(1), 20.0);
  withdraw(21.0);
  const auto second = module_->reuse_time(0, kP);
  ASSERT_TRUE(first && second);
  EXPECT_GT(*second, *first);
}

TEST_F(DampingModuleTest, SuppressedCountTracksEntries) {
  make();
  EXPECT_EQ(module_->suppressed_count(), 0);
  for (int slot = 0; slot < 2; ++slot) {
    announce(route(1), 0.0, slot);
    withdraw(10.0, slot);
    announce(route(2), 11.0, slot);
    announce(route(3), 12.0, slot);
    withdraw(13.0, slot);
  }
  EXPECT_EQ(module_->suppressed_count(), 2);
  engine_.run();
  EXPECT_EQ(module_->suppressed_count(), 0);
}

TEST_F(DampingModuleTest, PenaltyCeilingBoundsSuppression) {
  make();
  announce(route(1), 0.0);
  // Hammer the entry far past the ceiling.
  for (int i = 1; i <= 100; ++i) {
    withdraw(i * 2.0);
    announce(route(1), i * 2.0 + 1.0);
  }
  const DampingParams params = DampingParams::cisco();
  EXPECT_LE(module_->penalty(0, kP), params.ceiling() + 1e-6);
  const auto when = module_->reuse_time(0, kP);
  ASSERT_TRUE(when.has_value());
  // Max hold-down: reuse at most max_suppress_s after the last charge.
  EXPECT_LE(when->as_seconds(),
            engine_.now().as_seconds() + params.max_suppress_s + 1.0);
}

TEST_F(DampingModuleTest, PurgeBelowHalfReuse) {
  make();
  announce(route(1), 0.0);
  announce(route(2), 1.0);  // +500
  // Wait until it decays below reuse/2 = 375, then charge again: the old
  // remnant is forgotten, so the result is exactly the new increment.
  const double wait =
      std::log(500.0 / 300.0) / DampingParams::cisco().lambda();
  announce(route(3), 1.0 + wait + 1.0);
  EXPECT_NEAR(module_->penalty(0, kP), 500.0, 1.0);
}

TEST_F(DampingModuleTest, ResetClearsStateAndCancelsTimers) {
  make();
  announce(route(1), 0.0);
  withdraw(10.0);
  announce(route(2), 11.0);
  announce(route(3), 12.0);
  withdraw(13.0);
  ASSERT_TRUE(module_->suppressed(0, kP));
  module_->reset();
  EXPECT_FALSE(module_->suppressed(0, kP));
  EXPECT_DOUBLE_EQ(module_->penalty(0, kP), 0.0);
  EXPECT_EQ(module_->suppressed_count(), 0);
  engine_.run();
  EXPECT_TRUE(reuse_calls_.empty());  // cancelled timer never fired
}

TEST_F(DampingModuleTest, ChargeDeadlineFreezesPenalties) {
  make();
  module_->set_charge_deadline(SimTime::from_seconds(5.0));
  announce(route(1), 0.0);
  withdraw(1.0);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
  announce(route(1), 10.0);
  withdraw(11.0);  // after the deadline: ignored
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 10.0);
}

TEST_F(DampingModuleTest, RcnFiltersRepeatedRootCause) {
  make();
  module_->enable_rcn();
  announce(route(1), 0.0);
  const rcn::RootCause rc{100, 0, false, 1};
  withdraw(10.0, 0, rc);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
  // Same root cause again (another exploration aftershock): free.
  at(11.0);
  module_->on_update(0, UpdateMessage::withdraw(kP, rc), route(9), false);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
}

TEST_F(DampingModuleTest, RcnChargesByRootCauseStatus) {
  // §7: the penalty applies to the flap itself — a down flap costs the
  // withdrawal penalty even if perceived as an attribute change.
  make();
  module_->enable_rcn();
  announce(route(1), 0.0);
  at(1.0);
  const rcn::RootCause down{100, 0, false, 1};
  module_->on_update(0, UpdateMessage::announce(kP, route(2), down), prev_[0],
                     false);
  prev_[0] = route(2);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);  // not 500
  // The matching up flap costs the (Cisco: zero) re-announcement penalty.
  at(2.0);
  const rcn::RootCause up{100, 0, true, 2};
  module_->on_update(0, UpdateMessage::announce(kP, route(3), up), prev_[0],
                     false);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
}

TEST_F(DampingModuleTest, RcnHistoriesArePerPeer) {
  make();
  module_->enable_rcn();
  announce(route(1), 0.0, 0);
  announce(route(1), 0.0, 1);
  const rcn::RootCause rc{100, 0, false, 1};
  withdraw(10.0, 0, rc);
  withdraw(10.0, 1, rc);  // first sighting on the *other* session: charged
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
  EXPECT_NEAR(module_->penalty(1, kP), 1000.0, 1.0);
}

TEST_F(DampingModuleTest, UpdatesWithoutRcFallThroughToNormalDamping) {
  make();
  module_->enable_rcn();
  announce(route(1), 0.0);
  withdraw(10.0);  // no RC attached
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
}

TEST_F(DampingModuleTest, ReuseGranularityQuantizesUpward) {
  DampingParams p = DampingParams::cisco();
  p.reuse_granularity_s = 10.0;
  make(p);
  announce(route(1), 0.0);
  withdraw(10.0);
  announce(route(2), 11.0);
  announce(route(3), 12.0);
  withdraw(13.0);
  ASSERT_TRUE(module_->suppressed(0, kP));
  const auto when = module_->reuse_time(0, kP);
  ASSERT_TRUE(when.has_value());
  const auto offset_us = (*when - SimTime::from_seconds(13.0)).as_micros();
  EXPECT_EQ(offset_us % 10'000'000, 0);  // multiple of 10 s after the charge
}

TEST_F(DampingModuleTest, RejectsBadConstruction) {
  EXPECT_THROW(DampingModule(0, {1}, DampingParams::cisco(), engine_, nullptr),
               std::invalid_argument);
  DampingParams bad;
  bad.reuse = 5000;
  EXPECT_THROW(DampingModule(
                   0, {1}, bad, engine_, [](int, bgp::Prefix) { return false; }),
               std::invalid_argument);
}

TEST_F(DampingModuleTest, QueriesDoNotAllocateEntries) {
  // Regression: read paths used to route through the mutating entry()
  // accessor, so probing a never-charged (slot, prefix) allocated a full
  // per-peer entry vector. The guarantee must hold on every storage backend.
  for (const bgp::RibBackendKind backend : bgp::kAllRibBackends) {
    make(DampingParams::cisco(), backend);
    ASSERT_EQ(module_->rib_backend(), backend);
    EXPECT_EQ(module_->tracked_entries(), 0u);
    EXPECT_FALSE(module_->suppressed(0, 7));
    EXPECT_DOUBLE_EQ(module_->penalty(1, 9), 0.0);
    EXPECT_FALSE(module_->reuse_time(0, 7).has_value());
    EXPECT_EQ(module_->tracked_entries(), 0u)
        << "reads grew the " << to_string(backend) << " entry store";
  }
}

TEST_F(DampingModuleTest, NoOpWithdrawalDoesNotAllocate) {
  // A withdrawal with no previous route for an untracked prefix changes no
  // damping state; it must not grow entries_ either — on any backend.
  for (const bgp::RibBackendKind backend : bgp::kAllRibBackends) {
    make(DampingParams::cisco(), backend);
    module_->on_update(0, UpdateMessage::withdraw(kP), std::nullopt, false);
    EXPECT_EQ(module_->tracked_entries(), 0u)
        << "no-op withdrawal grew the " << to_string(backend) << " store";
  }
  // But a real announcement still creates trackable state (retaining
  // backends only; the null store never retains by design).
  make();
  announce(route(1), 0.0);
  EXPECT_EQ(module_->tracked_entries(), 1u);
  withdraw(1.0);
  announce(route(1), 2.0);  // re-announcement must still be charged
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
}

TEST_F(DampingModuleTest, NullBackendClassifiesButNeverCharges) {
  make(DampingParams::cisco(), bgp::RibBackendKind::kNull);
  EXPECT_FALSE(module_->rib_backend() == bgp::RibBackendKind::kHashMap);
  // A flap pattern that suppresses on retaining backends is a no-op here:
  // no entries, no penalty, no suppression, no reuse timers to leak.
  for (int i = 0; i < 4; ++i) {
    announce(route(1), 2.0 * i);
    withdraw(2.0 * i + 1.0);
  }
  EXPECT_EQ(module_->tracked_entries(), 0u);
  EXPECT_EQ(module_->suppressed_count(), 0);
  EXPECT_FALSE(module_->suppressed(0, kP));
  EXPECT_DOUBLE_EQ(module_->penalty(0, kP), 0.0);
  EXPECT_EQ(engine_.pending(), 0u);
  module_->check_invariants();
}

TEST_F(DampingModuleTest, MemoryLimitPruneForgetsTimerFreight) {
  // Regression for the memory-limit prune: it used to reset only the penalty
  // value, leaving the previous suppression episode's reuse timestamp (and,
  // had one survived, its wakeup) on the entry. The prune must scrub the
  // whole episode so a pruned entry can never report a stale reuse time or
  // fire a stale wakeup into the next episode.
  make();  // Cisco: cutoff 2000, reuse 750, half-life 900 s

  // Flap into suppression: three withdrawals at ~2 s spacing cross 2000.
  announce(route(1), 0.0);
  withdraw(1.0);
  announce(route(1), 2.0);
  withdraw(3.0);
  announce(route(1), 4.0);
  withdraw(5.0);  // penalty ~2995 > cutoff
  ASSERT_TRUE(module_->suppressed(0, kP));
  ASSERT_TRUE(module_->reuse_time(0, kP).has_value());

  // Let the reuse timer fire (~t=1802 s) and decay below reuse/2 = 375.
  at(3000.0);
  ASSERT_EQ(reuse_calls_.size(), 1u);
  ASSERT_FALSE(module_->suppressed(0, kP));
  ASSERT_LT(module_->penalty(0, kP), 375.0);

  // The next charged update triggers the prune: history is forgotten, the
  // charge starts from zero, and no reuse state survives from episode one.
  announce(route(1), 3000.0);  // re-announcement: free under Cisco
  withdraw(3001.0);
  EXPECT_NEAR(module_->penalty(0, kP), 1000.0, 1.0);
  EXPECT_FALSE(module_->suppressed(0, kP));
  EXPECT_FALSE(module_->reuse_time(0, kP).has_value());
  EXPECT_NO_THROW(module_->check_invariants());

  // Re-suppress: the new episode must schedule its own reuse crossing, not
  // echo the stale one (~t=1802) from before the prune.
  announce(route(1), 3002.0);
  withdraw(3003.0);
  announce(route(1), 3004.0);
  withdraw(3005.0);
  ASSERT_TRUE(module_->suppressed(0, kP));
  const auto reuse_at = module_->reuse_time(0, kP);
  ASSERT_TRUE(reuse_at.has_value());
  EXPECT_GT(*reuse_at, SimTime::from_seconds(4000.0));

  // Exactly one further reuse fires — a stale wakeup would add a second.
  at(6000.0);
  EXPECT_EQ(reuse_calls_.size(), 2u);
  EXPECT_FALSE(module_->suppressed(0, kP));
  EXPECT_NO_THROW(module_->check_invariants());
}

// The live-entry counter against the walk it replaces. Each prefix gets one
// withdrawal of an announced route (one charge of P_W) at `t_s`.
class LiveEntriesTest : public DampingModuleTest {
 protected:
  void charge(bgp::Prefix p, double t_s) {
    at(t_s);
    module_->on_update(0, UpdateMessage::announce(p, route(1)), {}, false);
    module_->on_update(0, UpdateMessage::withdraw(p), route(1), false);
  }
  /// `active_entries` at `t_s`, checked against the walk.
  std::size_t active(double t_s) {
    const SimTime now = SimTime::from_seconds(t_s);
    const std::size_t walk = module_->active_entries_walk(now);
    EXPECT_EQ(module_->active_entries(now), walk) << "at t=" << t_s;
    return walk;
  }
  /// Half-life 1 s puts the 0.0 crossing about 1075 s after a charge.
  static DampingParams fast_decay() {
    DampingParams p;
    p.half_life_s = 1.0;
    p.max_suppress_s = 4.0;  // ceiling 12000, as with Cisco
    return p;
  }
};

TEST_F(LiveEntriesTest, CountFollowsChargesPrunesAndReset) {
  make();
  EXPECT_EQ(active(0.0), 0u);
  charge(1, 0.0);
  charge(2, 10.0);
  charge(2, 20.0);  // a second charge of a live entry adds nothing
  EXPECT_EQ(active(20.0), 2u);
  // Prefix 1 decays below reuse / 2 by t = 2000; its next charge prunes it
  // and starts again from zero, so the count stays at two.
  charge(1, 2000.0);
  EXPECT_EQ(active(2000.0), 2u);
  module_->check_invariants();
  module_->reset();
  EXPECT_EQ(active(2000.0), 0u);
  charge(3, 2001.0);
  EXPECT_EQ(active(2001.0), 1u);
  module_->check_invariants();
}

TEST_F(LiveEntriesTest, PenaltiesThatReachZeroLeaveTheCount) {
  make(fast_decay());
  charge(1, 0.0);
  charge(2, 500.0);
  EXPECT_EQ(active(1000.0), 2u);  // inside the horizon: the counter
  // Past 1075 s prefix 1 reads exactly 0.0 but is still stored nonzero.
  at(1100.0);
  EXPECT_EQ(module_->penalty(0, 1), 0.0);
  EXPECT_EQ(active(1100.0), 1u);
  EXPECT_EQ(active(1600.0), 0u);
  // The prune of prefix 1 and a fresh charge keep the two paths equal.
  charge(1, 1600.0);
  EXPECT_EQ(active(1600.0), 1u);
  EXPECT_EQ(active(2000.0), 1u);
  module_->check_invariants();
}

TEST_F(LiveEntriesTest, LargeChargesGetNoLongerHorizon) {
  // A charge above 1 does not postpone the 0.0 crossing: e^(-lambda t)
  // itself underflows at lambda t ~ 745.1 (t ~ 1075 s here), whatever the
  // stored value. A horizon credited with ln(12000) would reach 1076.7 s.
  DampingParams p = fast_decay();
  p.withdrawal_penalty = 20000.0;  // clamped to the 12000 ceiling
  p.attr_change_penalty = 0.0;
  make(p);
  charge(1, 0.0);
  at(1076.0);  // the reuse fired long ago
  EXPECT_EQ(module_->penalty(0, 1), 0.0);
  EXPECT_EQ(active(1076.0), 0u);
  module_->check_invariants();
}

TEST_F(LiveEntriesTest, ForcedPenaltiesAreCountedByTheWalk) {
  make();
  module_->debug_set_penalty(0, 1, -5.0);  // stored nonzero, reads negative
  EXPECT_EQ(active(0.0), 0u);
  module_->reset();
  charge(1, 1.0);
  EXPECT_EQ(active(1.0), 1u);
}

TEST_F(LiveEntriesTest, ReuseWithoutATracerClosesNothingButClearsTheSpan) {
  make();
  obs::SpanTracer tracer;
  tracer.push_active(tracer.root("flap", 0.0, 0, 0, 0));
  module_->set_span_tracer(&tracer);
  announce(route(1), 0.0);
  withdraw(1.0);
  announce(route(1), 2.0);
  withdraw(3.0);
  announce(route(1), 4.0);
  withdraw(5.0);
  ASSERT_TRUE(module_->suppressed(0, kP));
  // Detached before the reuse: the entry must still drop its span, or a
  // later reset would have to walk unsuppressed entries to close it.
  module_->set_span_tracer(nullptr);
  engine_.run();
  ASSERT_EQ(reuse_calls_.size(), 1u);
  EXPECT_NO_THROW(module_->check_invariants());
}

TEST(UpdateClassNames, ToString) {
  EXPECT_EQ(to_string(UpdateClass::kInitial), "initial");
  EXPECT_EQ(to_string(UpdateClass::kWithdrawal), "withdrawal");
  EXPECT_EQ(to_string(UpdateClass::kReannouncement), "reannouncement");
  EXPECT_EQ(to_string(UpdateClass::kAttrChange), "attr-change");
  EXPECT_EQ(to_string(UpdateClass::kDuplicate), "duplicate");
}

}  // namespace
}  // namespace rfdnet::rfd
