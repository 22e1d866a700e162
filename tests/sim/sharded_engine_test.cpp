// Unit tests for the conservative-window sharded engine: round/window
// mechanics, cross-shard message admission, the lookahead-violation hard
// error, worker exception propagation, and shard-count-invariant execution.

#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace rfdnet::sim {
namespace {

TEST(ShardedEngine, RejectsNonPositiveShardCount) {
  EXPECT_THROW(ShardedEngine(0), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(-3), std::invalid_argument);
}

TEST(ShardedEngine, SerialFallbackRunsWithoutLookahead) {
  ShardedEngine e(1);  // lookahead deliberately left at zero
  std::vector<int> order;
  e.shard(0).schedule_at(SimTime::from_seconds(2.0),
                         [&] { order.push_back(2); });
  e.shard(0).schedule_at(SimTime::from_seconds(1.0),
                         [&] { order.push_back(1); });
  EXPECT_EQ(e.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), SimTime::from_seconds(2.0));
  EXPECT_EQ(e.pending(), 0u);
}

TEST(ShardedEngine, SerialFallbackDrainsOwnInbox) {
  ShardedEngine e(1);
  bool ran = false;
  e.post(0, SimTime::from_seconds(1.0), 1, kNoContext,
         [&] { ran = true; });
  EXPECT_EQ(e.run(), 1u);
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.stats().cross_admitted, 1u);
}

TEST(ShardedEngine, MultiShardRequiresPositiveLookahead) {
  ShardedEngine e(2);
  e.shard(0).schedule_at(SimTime::from_seconds(1.0), [] {});
  EXPECT_THROW(e.run(), std::logic_error);
}

TEST(ShardedEngine, CrossShardMessagesArriveAtTheirTimestamp) {
  ShardedEngine e(2);
  e.set_lookahead(Duration::seconds(0.5));
  std::atomic<int> hits{0};
  SimTime seen;
  // Shard 0 fires at t=1 and posts work for shard 1 at t=1.6 (>= lookahead
  // away, as the transport contract requires).
  e.shard(0).schedule_at(SimTime::from_seconds(1.0), [&] {
    e.post(1, SimTime::from_seconds(1.6), 7, kNoContext, [&] {
      seen = e.shard(1).now();
      hits.fetch_add(1);
    });
  });
  EXPECT_EQ(e.run(), 2u);
  EXPECT_EQ(hits.load(), 1);
  EXPECT_EQ(seen, SimTime::from_seconds(1.6));
  EXPECT_EQ(e.stats().cross_posted, 1u);
  EXPECT_EQ(e.stats().cross_admitted, 1u);
  EXPECT_GE(e.stats().rounds, 1u);
}

TEST(ShardedEngine, AdmissionIntoThePastIsAHardError) {
  // The configured lookahead (10 s) vastly overstates the real message
  // latency: shard 1 runs to t=4 inside round one, the round closes at the
  // barrier, and only then (round two) does shard 0 post a message stamped
  // t=1 — behind shard 1's committed clock. Whether the post is scanned in
  // round two or round three, shard 1 is already past it, so the engine
  // must refuse to time-travel and surface the lookahead violation. (The
  // barrier between the rounds is what makes this deterministic: posting in
  // the same round shard 1 advances would race with its inbox scan.)
  ShardedEngine e(2);
  e.set_lookahead(Duration::seconds(10.0));
  e.shard(1).schedule_at(SimTime::from_seconds(0.1), [] {});
  e.shard(1).schedule_at(SimTime::from_seconds(4.0), [] {});
  e.shard(0).schedule_at(SimTime::from_seconds(20.0), [&] {
    e.post(1, SimTime::from_seconds(1.0), 9, kNoContext, [] {});
  });
  EXPECT_THROW(e.run(), std::logic_error);
}

TEST(ShardedEngine, WorkerExceptionsPropagateToCaller) {
  ShardedEngine e(3);
  e.set_lookahead(Duration::seconds(1.0));
  for (int s = 0; s < 3; ++s) {
    e.shard(s).schedule_at(SimTime::from_seconds(1.0), [] {});
  }
  e.shard(2).schedule_at(SimTime::from_seconds(2.0),
                         [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(ShardedEngine, HorizonLeavesLaterEventsPending) {
  ShardedEngine e(2);
  e.set_lookahead(Duration::seconds(1.0));
  int ran = 0;
  e.shard(0).schedule_at(SimTime::from_seconds(1.0), [&] { ++ran; });
  e.shard(1).schedule_at(SimTime::from_seconds(5.0), [&] { ++ran; });
  EXPECT_EQ(e.run(SimTime::from_seconds(2.0)), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(ran, 2);
}

/// The same logically-keyed workload must execute in the same order at every
/// shard count. A chain of events ping-pongs between two contexts; each
/// event appends to a per-context log, and the logs must match the k=1 run.
TEST(ShardedEngine, KeyedWorkloadIsShardCountInvariant) {
  const auto run_with = [](int k) {
    ShardedEngine e(k);
    e.set_lookahead(Duration::seconds(0.25));
    // One log per destination shard index (max 2), mutexed for k=2.
    std::mutex mu;
    std::vector<std::uint64_t> log;
    for (int i = 0; i < 40; ++i) {
      const int dest = i % 2 < k ? i % 2 : 0;
      const auto key = static_cast<std::uint64_t>(i);
      e.shard(dest).schedule_keyed(
          SimTime::from_seconds(1.0 + 0.25 * i), key,
          [&mu, &log, key] {
            const std::lock_guard<std::mutex> lk(mu);
            log.push_back(key);
          },
          EventKind::kGeneric);
    }
    e.run();
    return log;
  };
  // Events are strictly time-separated, so even the cross-thread log order
  // is deterministic: windows execute in global time order.
  EXPECT_EQ(run_with(1), run_with(2));
}

}  // namespace
}  // namespace rfdnet::sim
