#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/path_table.hpp"
#include "sim/random.hpp"

namespace rfdnet::bgp {
namespace {

/// Property: `AsPath::contains` (bloom-pruned walk) agrees with a plain
/// walk for every (path, probe) pair. The bloom filter is only allowed to
/// prove *absence*; any bit collision must fall through to the walk, never
/// flip an answer. 10k random trials over a small AS universe so both
/// present and absent probes (and colliding bloom bits) are common.
TEST(AsPathBloomProperty, ContainsAgreesWithPlainScan) {
  sim::Rng rng(20260806);
  constexpr int kTrials = 10000;
  constexpr net::NodeId kUniverse = 300;  // small: forces bit collisions
  PathTable table;

  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t len = rng.uniform_index(12);  // 0..11 hops
    std::vector<net::NodeId> hops;
    hops.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      hops.push_back(static_cast<net::NodeId>(rng.uniform_index(kUniverse)));
    }

    // Build the path through the public prepend API (back to front), so the
    // test also exercises the exact cells the router hot path creates. The
    // first tail is a default `AsPath`, which no table made.
    AsPath path;
    for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
      path = table.prepend(path, *it);
    }
    ASSERT_EQ(path.hops(), hops);

    const net::NodeId probe =
        static_cast<net::NodeId>(rng.uniform_index(kUniverse));
    const bool expect =
        std::find(hops.begin(), hops.end(), probe) != hops.end();
    EXPECT_EQ(path.contains(probe), expect)
        << "trial " << trial << " probe " << probe << " path "
        << path.to_string();
    EXPECT_EQ(path.contains_scan(probe), expect);

    // Every hop must be found — the bloom bits may never reject a member.
    for (const net::NodeId as : hops) {
      ASSERT_TRUE(path.contains(as)) << "false negative for " << as;
    }
  }
}

/// Oracle: two tables driven by random `origin`, `prepend` and `from_hops`
/// calls, each result checked against the `std::vector` it should hold.
/// Within one table two handles are the same cell exactly when their hops
/// are equal; across tables `==` compares values. The AS universe is small
/// and paths are short, so equal hop sequences recur in both tables and
/// bloom bits collide.
TEST(AsPathBloomProperty, TablesAgreeWithAVectorOracle) {
  sim::Rng rng(20261020);
  constexpr net::NodeId kUniverse = 12;
  constexpr int kSteps = 6000;

  PathTable tables[2];
  std::uint64_t calls[2] = {0, 0};
  // Per table: every path made so far, and the first handle per sequence.
  std::vector<std::vector<net::NodeId>> made[2];
  std::vector<AsPath> handles[2];
  std::map<std::vector<net::NodeId>, AsPath> first[2];
  std::set<const PathCell*> cells[2];  // the first handles' cells

  const auto random_as = [&] {
    return static_cast<net::NodeId>(rng.uniform_index(kUniverse));
  };

  for (int step = 0; step < kSteps; ++step) {
    const int t = static_cast<int>(rng.uniform_index(2));
    PathTable& table = tables[t];
    std::vector<net::NodeId> want;
    AsPath got;
    switch (rng.uniform_index(3)) {
      case 0: {
        const net::NodeId as = random_as();
        got = table.origin(as);
        want = {as};
        break;
      }
      case 1: {
        // Onto an earlier path of this table, or onto the empty path.
        AsPath tail;
        std::vector<net::NodeId> tail_hops;
        if (!handles[t].empty() && rng.bernoulli(0.9)) {
          const std::size_t i = rng.uniform_index(handles[t].size());
          if (made[t][i].size() < 6) {  // keep paths short
            tail = handles[t][i];
            tail_hops = made[t][i];
          }
        }
        const net::NodeId as = random_as();
        got = table.prepend(tail, as);
        want = {as};
        want.insert(want.end(), tail_hops.begin(), tail_hops.end());
        break;
      }
      default: {
        want.resize(rng.uniform_index(5));  // 0..4 hops
        for (net::NodeId& as : want) as = random_as();
        got = table.from_hops(want);
        break;
      }
    }
    ++calls[t];
    ASSERT_EQ(table.stats().intern_requests, calls[t]) << "step " << step;

    ASSERT_EQ(got.hops(), want) << "step " << step;
    ASSERT_EQ(got.length(), want.size());
    ASSERT_EQ(got.empty(), want.empty());
    if (!want.empty()) {
      ASSERT_EQ(got.front(), want.front());
    }
    for (net::NodeId as = 0; as < kUniverse + 2; ++as) {
      const bool member =
          std::find(want.begin(), want.end(), as) != want.end();
      ASSERT_EQ(got.contains(as), member) << "step " << step << " as " << as;
      ASSERT_EQ(got.contains_scan(as), member);
    }
    for (const net::NodeId as : want) {
      ASSERT_NE(got.ref()->bloom & AsPath::bloom_bit(as), 0u);
    }

    // Same table: identical cell exactly when the hops are equal.
    const auto [seen, fresh] = first[t].try_emplace(want, got);
    ASSERT_EQ(got.ref(), seen->second.ref()) << "step " << step;
    if (fresh) {
      ASSERT_TRUE(cells[t].insert(got.ref()).second);
    }
    // Across tables: value equality, never shared cells.
    const int o = 1 - t;
    if (const auto twin = first[o].find(want); twin != first[o].end()) {
      ASSERT_TRUE(got == twin->second) << "step " << step;
      if (!want.empty()) {
        ASSERT_NE(got.ref(), twin->second.ref());
      }
    }
    if (!handles[o].empty()) {
      const std::size_t i = rng.uniform_index(handles[o].size());
      ASSERT_EQ(got == handles[o][i], want == made[o][i]) << "step " << step;
    }
    if (!handles[t].empty()) {
      const std::size_t i = rng.uniform_index(handles[t].size());
      ASSERT_EQ(got == handles[t][i], want == made[t][i]) << "step " << step;
    }

    made[t].push_back(want);
    handles[t].push_back(got);
  }
}

}  // namespace
}  // namespace rfdnet::bgp
