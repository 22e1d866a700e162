#include "bgp/path_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
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
  const auto base_builds = table.stats().node_builds;  // ctor interns {}
  const PathTable::Node* a = table.intern({3, 2, 1});
  const PathTable::Node* b = table.intern({3, 2, 1});
  const PathTable::Node* c = table.intern({1, 2, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(*a->hops, (std::vector<net::NodeId>{3, 2, 1}));
  // Empty path, {3,2,1}, {1,2,3}: three live nodes, two built here.
  EXPECT_EQ(table.stats().unique_paths, 3u);
  EXPECT_EQ(table.stats().node_builds, base_builds + 2);
}

TEST(PathTable, EmptyPathIsPreInterned) {
  PathTable table;
  EXPECT_NE(table.empty_path(), nullptr);
  EXPECT_TRUE(table.empty_path()->hops->empty());
  EXPECT_EQ(table.intern({}), table.empty_path());
}

TEST(PathTable, OriginIsMemoized) {
  PathTable table;
  const PathTable::Node* a = table.origin(42);
  const auto builds = table.stats().node_builds;
  const PathTable::Node* b = table.origin(42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.stats().node_builds, builds);  // memo hit, no new node
  EXPECT_GT(table.stats().prepend_hits, 0u);
}

TEST(PathTable, PrependMemoizesAndSharesTheTail) {
  PathTable table;
  const PathTable::Node* tail = table.intern({5, 9});
  const PathTable::Node* a = table.prepend(tail, 7);
  const auto builds = table.stats().node_builds;
  const PathTable::Node* b = table.prepend(tail, 7);
  EXPECT_EQ(a, b);  // identical node, served from the tail's memo
  EXPECT_EQ(table.stats().node_builds, builds);
  EXPECT_EQ(*a->hops, (std::vector<net::NodeId>{7, 5, 9}));

  // A different head on the same tail is a different node; the tail itself
  // is never duplicated.
  const PathTable::Node* c = table.prepend(tail, 8);
  EXPECT_NE(c, a);
  EXPECT_EQ(table.prepend(c, 7)->hops->size(), 4u);
}

TEST(PathTable, BloomBitsCoverEveryHop) {
  PathTable table;
  const PathTable::Node* n = table.intern({1, 17, 900001});
  for (const net::NodeId as : *n->hops) {
    EXPECT_NE(n->bloom & PathTable::bloom_bit(as), 0u);
  }
  EXPECT_EQ(table.empty_path()->bloom, 0u);
}

TEST(PathTable, InternIdsAreDeterministicAcrossThreads) {
  // Two workers run the same canonical intern sequence against their own
  // fresh thread-local tables; hash-consing plus intern-order ids must give
  // identical ids on both. This is what keeps `--jobs` sweeps equivalent to
  // serial runs: a trial sees the same ids no matter which worker it lands
  // on (ids never reach artifacts, but determinism here keeps any use of
  // them — ordering, debugging — reproducible).
  auto run_sequence = [] {
    std::vector<std::uint32_t> ids;
    const AsPath a = AsPath::origin(5);
    const AsPath b = a.prepended(7);
    const AsPath c = b.prepended(9);
    const AsPath d = a.prepended(7);  // memo hit: same id as b
    ids.push_back(a.intern_id());
    ids.push_back(b.intern_id());
    ids.push_back(c.intern_id());
    ids.push_back(d.intern_id());
    return ids;
  };
  std::vector<std::uint32_t> first, second;
  std::thread t1([&] { first = run_sequence(); });
  std::thread t2([&] { second = run_sequence(); });
  t1.join();
  t2.join();
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first[1], first[3]);  // the memo hit reused b's node
}

TEST(PathTable, CrossThreadEqualityComparesHops) {
  // Paths interned by different tables can't share nodes, but value equality
  // must still hold. Compared *inside* the worker while both tables are
  // alive: a handle only outlives its own thread's table, never another's.
  const AsPath local = AsPath::origin(5).prepended(7);
  bool equal = false;
  bool same_node = true;
  std::thread t([&] {
    const AsPath mine = AsPath::origin(5).prepended(7);
    equal = (mine == local);
    same_node = (mine.ref() == local.ref());
  });
  t.join();
  EXPECT_TRUE(equal);
  EXPECT_FALSE(same_node);
}

TEST(UpdateMessagePool, RecycledSlotIsScrubbed) {
  UpdateMessagePool pool;
  const std::uint32_t idx = pool.acquire();
  UpdateMessagePool::Slot& slot = pool.at(idx);
  slot.msg = UpdateMessage::announce(
      7, Route{AsPath::origin(3), 100},
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

  const PathTable::Stats before = PathTable::local().stats();
  network.router(1).originate(0);
  engine.run();
  const PathTable::Stats after = PathTable::local().stats();
  EXPECT_EQ(after.intern_requests - before.intern_requests,
            static_cast<std::uint64_t>(kLeaves) + 2);

  // Every non-originating leaf heard the same fan-out copy: value-equal and
  // — same thread, hash-consed — literally the same interned node.
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
