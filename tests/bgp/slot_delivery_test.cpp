// Slot-indexed delivery: every update a transport delivers must land on the
// receiver's peer slot for its sender, in the serial and the sharded
// transport alike. Internet-like graphs make the check bite: adjacency
// order differs between the two ends of most links, so a wire that carried
// its sender's slot instead of the receiver's slot for the sender would
// file routes under the wrong peer. Runs under the TSan leg of
// scripts/check.sh (the sharded case crosses shard threads).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "bgp/config.hpp"
#include "bgp/network.hpp"
#include "bgp/policy.hpp"
#include "bgp/sharded_network.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"

namespace rfdnet::bgp {
namespace {

constexpr Prefix kPrefix = 1;
constexpr int kNodes = 300;

/// Counts (from, to, kind) over sends and over deliveries. One per shard in
/// the sharded transport, so each is written by one thread only.
class WireAudit final : public Observer {
 public:
  using Key = std::tuple<net::NodeId, net::NodeId, UpdateKind>;

  void on_send(net::NodeId from, net::NodeId to, const UpdateMessage& m,
               sim::SimTime) override {
    ++sent[{from, to, m.kind}];
  }
  void on_deliver(net::NodeId from, net::NodeId to, const UpdateMessage& m,
                  sim::SimTime) override {
    ++delivered[{from, to, m.kind}];
  }

  std::map<Key, std::uint64_t> sent;
  std::map<Key, std::uint64_t> delivered;
};

/// Long links keep the sharded run's lookahead wide, so it needs few
/// barrier rounds (the TSan leg runs this); slots do not depend on delays.
net::Graph internet_graph(std::uint64_t seed) {
  sim::Rng rng(seed);
  net::InternetOptions opt;
  opt.delay_s = 0.5;
  return net::make_internet_like(kNodes, rng, opt);
}

/// Links whose two ends list each other at different adjacency positions.
int asymmetric_links(const net::Graph& g) {
  int n = 0;
  for (net::NodeId u = 0; u < g.node_count(); ++u) {
    const auto adj = g.neighbors(u);
    for (std::size_t s = 0; s < adj.size(); ++s) {
      const net::NodeId v = adj[s].neighbor;
      if (v < u) continue;
      const auto back = g.neighbors(v);
      for (std::size_t t = 0; t < back.size(); ++t) {
        if (back[t].neighbor == u && t != s) ++n;
      }
    }
  }
  return n;
}

/// Every RIB-IN route held on slot `s` was announced by that slot's peer:
/// its AS path starts with `peer(s).id`.
template <typename Network>
void expect_routes_on_sender_slots(const Network& net, const char* phase) {
  int routes = 0;
  for (net::NodeId u = 0; u < net.size(); ++u) {
    const BgpRouter& r = net.router(u);
    for (int s = 0; s < r.peer_count(); ++s) {
      const std::optional<Route> route = r.rib_in_route(s, kPrefix);
      if (!route) continue;
      ++routes;
      ASSERT_FALSE(route->path.empty());
      ASSERT_EQ(route->path.front(), r.peer(s).id)
          << phase << ": router " << u << " holds " << route->path.to_string()
          << " on the slot of peer " << r.peer(s).id;
    }
  }
  EXPECT_GT(routes, 0) << phase;
}

std::map<WireAudit::Key, std::uint64_t> merged(
    const std::vector<WireAudit>& audits,
    std::map<WireAudit::Key, std::uint64_t> WireAudit::*field) {
  std::map<WireAudit::Key, std::uint64_t> all;
  for (const WireAudit& a : audits) {
    for (const auto& [key, count] : a.*field) all[key] += count;
  }
  return all;
}

const std::uint64_t kSeeds[] = {3, 11, 29};

TEST(SlotDelivery, SerialTransportFilesUpdatesUnderTheirSender) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const net::Graph g = internet_graph(seed);
    ASSERT_GT(asymmetric_links(g), 0);
    TimingConfig cfg;
    const ShortestPathPolicy policy;
    sim::Engine engine;
    sim::Rng rng(seed);
    std::vector<WireAudit> audit(1);
    BgpNetwork net(g, cfg, policy, engine, rng, &audit[0]);

    // Warm-up, then one flap of the origin: withdraw, re-announce.
    BgpRouter& origin = net.router(0);
    origin.originate(kPrefix);
    engine.run();
    expect_routes_on_sender_slots(net, "warm-up");
    origin.withdraw_origin(kPrefix);
    engine.run();
    EXPECT_TRUE(net.none_reachable(kPrefix));
    origin.originate(kPrefix);
    engine.run();
    EXPECT_TRUE(net.all_reachable(kPrefix));
    expect_routes_on_sender_slots(net, "flap");

    EXPECT_EQ(net.dropped_count(), 0u);
    EXPECT_EQ(merged(audit, &WireAudit::sent),
              merged(audit, &WireAudit::delivered));
  }
}

TEST(SlotDelivery, ShardedTransportFilesUpdatesUnderTheirSender) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const net::Graph g = internet_graph(seed);
    ASSERT_GT(asymmetric_links(g), 0);
    const net::Partition part = net::partition_graph(g, 2);
    ASSERT_TRUE(part.has_cut());
    TimingConfig cfg;
    const ShortestPathPolicy policy;
    sim::ShardedEngine engine(part.shards);
    std::vector<WireAudit> audit(static_cast<std::size_t>(part.shards));
    std::vector<Observer*> observers;
    for (WireAudit& a : audit) observers.push_back(&a);
    ShardedBgpNetwork net(g, part, cfg, policy, engine, seed, observers);
    engine.set_lookahead(net.conservative_lookahead());

    BgpRouter* origin = &net.router(0);
    sim::Engine& home = engine.shard(net.shard_of(0));
    // Each phase starts a second after the previous one drained, on the
    // global clock (the max over shards).
    std::uint64_t key = 1ULL << 62;
    const auto phase = [&](bool announce) {
      const sim::SimTime t = engine.now() + sim::Duration::seconds(1.0);
      home.schedule_keyed(
          t, key++,
          [origin, announce] {
            if (announce) {
              origin->originate(kPrefix);
            } else {
              origin->withdraw_origin(kPrefix);
            }
          },
          sim::EventKind::kFlap, 0);
      engine.run();
    };

    phase(true);
    expect_routes_on_sender_slots(net, "warm-up");
    phase(false);
    EXPECT_TRUE(net.none_reachable(kPrefix));
    phase(true);
    EXPECT_TRUE(net.all_reachable(kPrefix));
    expect_routes_on_sender_slots(net, "flap");

    EXPECT_GT(engine.stats().cross_posted, 0u);
    EXPECT_EQ(merged(audit, &WireAudit::sent),
              merged(audit, &WireAudit::delivered));
  }
}

}  // namespace
}  // namespace rfdnet::bgp
