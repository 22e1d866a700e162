#include "bgp/path_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/message.hpp"
#include "bgp/network.hpp"
#include "bgp/policy.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace rfdnet::bgp {
namespace {

TEST(PathTable, HashConsingReturnsOneNodePerSequence) {
  PathTable table;
  const AsPath a = table.from_hops({3, 2, 1});
  const AsPath b = table.from_hops({3, 2, 1});
  const AsPath c = table.from_hops({1, 2, 3});
  EXPECT_EQ(a.ref(), b.ref());
  EXPECT_NE(a.ref(), c.ref());
  EXPECT_EQ(a.hops(), (std::vector<net::NodeId>{3, 2, 1}));
  // One cell per suffix: [1], [2 1], [3 2 1], then [3], [2 3], [1 2 3].
  EXPECT_EQ(table.stats().node_builds, 6u);
  EXPECT_EQ(table.stats().intern_requests, 3u);
}

TEST(PathTable, EmptyPathNeedsNoTable) {
  PathTable table;
  EXPECT_EQ(AsPath().ref(), nullptr);
  EXPECT_TRUE(table.from_hops({}).empty());
  EXPECT_EQ(table.from_hops({}), AsPath());
  EXPECT_EQ(table.stats().node_builds, 0u);
  // A prepend onto the empty path is the origin path.
  EXPECT_EQ(table.prepend(AsPath(), 4).ref(), table.origin(4).ref());
}

TEST(PathTable, OriginIsMemoized) {
  PathTable table;
  const AsPath a = table.origin(42);
  const auto builds = table.stats().node_builds;
  const AsPath b = table.origin(42);
  EXPECT_EQ(a.ref(), b.ref());
  EXPECT_EQ(table.stats().node_builds, builds);  // memo hit, no new cell
  EXPECT_EQ(table.stats().prepend_hits, 1u);
}

TEST(PathTable, PrependMemoizesAndSharesTheTail) {
  PathTable table;
  const AsPath tail = table.from_hops({5, 9});
  const AsPath a = table.prepend(tail, 7);
  const auto builds = table.stats().node_builds;
  const AsPath b = table.prepend(tail, 7);
  EXPECT_EQ(a.ref(), b.ref());  // identical cell, served from the index
  EXPECT_EQ(table.stats().node_builds, builds);
  EXPECT_EQ(a.hops(), (std::vector<net::NodeId>{7, 5, 9}));
  EXPECT_EQ(a.ref()->tail, tail.ref());  // the tail is shared, not copied

  // A different head on the same tail is a different cell; the tail itself
  // is never duplicated.
  const AsPath c = table.prepend(tail, 8);
  EXPECT_NE(c.ref(), a.ref());
  EXPECT_EQ(table.prepend(c, 7).length(), 4u);
}

TEST(PathTable, RejectsATailFromAnotherTable) {
  PathTable mine;
  PathTable other;
  EXPECT_THROW(mine.prepend(other.origin(1), 2), std::invalid_argument);
}

TEST(PathTable, BloomBitsCoverEveryHop) {
  PathTable table;
  const AsPath p = table.from_hops({1, 17, 900001});
  for (const net::NodeId as : p.hops()) {
    EXPECT_NE(p.ref()->bloom & AsPath::bloom_bit(as), 0u);
  }
}

TEST(PathTable, CrossTableEqualityComparesHops) {
  // Paths made by different tables (two networks, or two shards) never
  // share cells, but value equality must still hold.
  PathTable one;
  PathTable two;
  const AsPath a = one.prepend(one.origin(5), 7);
  const AsPath b = two.prepend(two.origin(5), 7);
  EXPECT_TRUE(a == b);
  EXPECT_NE(a.ref(), b.ref());
  EXPECT_FALSE(a == two.prepend(two.origin(5), 8));
  EXPECT_FALSE(a == two.origin(7));
}

TEST(UpdateMessagePool, RecycledSlotIsScrubbed) {
  PathTable paths;
  UpdateMessagePool pool;
  const std::uint32_t idx = pool.acquire();
  UpdateMessagePool::Slot& slot = pool.at(idx);
  slot.msg = UpdateMessage::announce(
      7, Route{paths.origin(3), 100},
      rcn::RootCause{/*u=*/3, /*v=*/4, /*up=*/true, /*seq=*/1});
  slot.msg.rel_pref = RelPref::kWorse;
  slot.msg.span = obs::SpanContext{1, 2, 3};
  slot.wire = 5;
  slot.epoch = 9;
  pool.release(idx);

  // The freelist hands the same slot back — pristine: no span, root cause,
  // rel-pref or wire freight resurrected from the previous message.
  const std::uint32_t again = pool.acquire();
  ASSERT_EQ(again, idx);
  const UpdateMessagePool::Slot& s = pool.at(again);
  EXPECT_FALSE(s.msg.route.has_value());
  EXPECT_FALSE(s.msg.rc.has_value());
  EXPECT_FALSE(s.msg.rel_pref.has_value());
  EXPECT_FALSE(s.msg.span.valid());
  EXPECT_EQ(s.wire, UpdateMessagePool::kNoWire);
  EXPECT_EQ(s.epoch, 0u);

  const UpdateMessagePool::Stats& st = pool.stats();
  EXPECT_EQ(st.acquired, 2u);
  EXPECT_EQ(st.reused, 1u);
  EXPECT_EQ(st.outstanding, 1u);
  EXPECT_EQ(st.high_water, 1u);
}

TEST(ExportHoist, StarFanOutPrependsOncePerDecision) {
  // Regression for the per-peer export rebuild: the hub of a star must
  // intern the exported path once per decision, not once per peer. With K
  // leaves and leaf 1 originating, the whole propagation costs exactly
  //   1   (leaf 1's decision: its origin path)
  // + 1   (hub's decision: ONE prepend shared by the whole fan-out)
  // + K-1 (each other leaf's decision: its own export prepend)
  // + 1   (leaf 1 re-running its decision after loop-denying the hub's
  //        echo — `advertise_to_sender` is on by default)
  // = K+2 intern requests; the old per-peer code paid the hub prepend once
  // per peer, ~2K+1 in total.
  constexpr int kLeaves = 12;
  const net::Graph g = net::make_star(kLeaves + 1);
  TimingConfig cfg;
  cfg.mrai_s = 0.0;  // pacing is irrelevant to the count; keep the run short
  const ShortestPathPolicy policy;
  sim::Engine engine;
  sim::Rng rng(1);
  BgpNetwork network(g, cfg, policy, engine, rng);

  network.router(1).originate(0);
  engine.run();
  EXPECT_EQ(network.paths().stats().intern_requests,
            static_cast<std::uint64_t>(kLeaves) + 2);

  // Every non-originating leaf heard the same fan-out copy: value-equal and
  // — one network, one table, hash-consed — literally the same cell.
  const auto hub_best = network.router(0).best(0);
  ASSERT_TRUE(hub_best.has_value());
  for (net::NodeId leaf = 2; leaf <= kLeaves; ++leaf) {
    const auto best = network.router(leaf).best(0);
    ASSERT_TRUE(best.has_value());
    EXPECT_TRUE(best->path == network.router(2).best(0)->path);
    EXPECT_EQ(best->path.ref(), network.router(2).best(0)->path.ref());
    EXPECT_EQ(best->path.hops(),
              (std::vector<net::NodeId>{0, 1}));  // hub prepended once
  }
}

}  // namespace
}  // namespace rfdnet::bgp
