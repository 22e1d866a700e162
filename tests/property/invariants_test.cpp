// Parameterized property suites: protocol invariants that must hold across
// topologies, seeds and configurations.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>

#include "bgp/network.hpp"
#include "bgp/policy.hpp"
#include "core/experiment.hpp"
#include "net/topology.hpp"
#include "stats/recorder.hpp"

namespace rfdnet {
namespace {

using core::ExperimentConfig;
using core::TopologySpec;

// ---------------------------------------------------------------------------
// Convergence invariants across topology kinds and seeds.

struct TopoCase {
  TopologySpec::Kind kind;
  int a = 0, b = 0;  // dims or node count
  const char* name;
};

// Prints a case by its shape. gtest's fallback would dump the raw bytes,
// padding and the address of `name` included, so the ctest names discovered
// from them changed from run to run.
void PrintTo(const TopoCase& c, std::ostream* os) {
  *os << c.name << " a=" << c.a << " b=" << c.b;
}

class ConvergenceProperty
    : public ::testing::TestWithParam<std::tuple<TopoCase, std::uint64_t>> {};

net::Graph build(const TopoCase& tc, sim::Rng& rng) {
  switch (tc.kind) {
    case TopologySpec::Kind::kMeshTorus:
      return net::make_mesh_torus(tc.a, tc.b);
    case TopologySpec::Kind::kLine:
      return net::make_line(tc.a);
    case TopologySpec::Kind::kRing:
      return net::make_ring(tc.a);
    case TopologySpec::Kind::kClique:
      return net::make_clique(tc.a);
    case TopologySpec::Kind::kRandom:
      return net::make_random(tc.a, 0.1, rng);
    case TopologySpec::Kind::kInternetLike:
      return net::make_internet_like(tc.a, rng);
  }
  throw std::logic_error("bad kind");
}

TEST_P(ConvergenceProperty, EveryNodeLearnsShortestPathAndStaysLoopFree) {
  const auto& [tc, seed] = GetParam();
  sim::Rng topo_rng(seed);
  const net::Graph g = build(tc, topo_rng);
  bgp::ShortestPathPolicy policy;
  bgp::TimingConfig cfg;
  sim::Engine engine;
  sim::Rng rng(seed + 1);
  bgp::BgpNetwork network(g, cfg, policy, engine, rng);
  const net::NodeId origin =
      static_cast<net::NodeId>(seed % g.node_count());
  network.router(origin).originate(0);
  engine.run();

  ASSERT_TRUE(network.all_reachable(0));
  const auto dist = net::bfs_distances(g, origin);
  for (net::NodeId u = 0; u < g.node_count(); ++u) {
    const auto best = network.router(u).best(0);
    ASSERT_TRUE(best.has_value());
    if (u == origin) continue;
    // Shortest path: the AS path includes the origin but not the holder, so
    // its length equals the BFS distance.
    EXPECT_EQ(best->path.length(), dist[u]) << "node " << u;
    // Loop freedom.
    std::set<net::NodeId> seen;
    for (const auto hop : best->path.hops()) {
      EXPECT_TRUE(seen.insert(hop).second);
    }
    EXPECT_FALSE(best->path.contains(u));
    // Path realizability: consecutive hops are graph links.
    const auto& hops = best->path.hops();
    EXPECT_TRUE(g.has_link(u, hops.front()));
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      EXPECT_TRUE(g.has_link(hops[i], hops[i + 1]));
    }
    EXPECT_EQ(hops.back(), origin);
  }

  // Withdrawal leaves no routes anywhere.
  network.router(origin).withdraw_origin(0);
  engine.run();
  EXPECT_TRUE(network.none_reachable(0));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ConvergenceProperty,
    ::testing::Combine(
        ::testing::Values(TopoCase{TopologySpec::Kind::kMeshTorus, 5, 5, "mesh"},
                          TopoCase{TopologySpec::Kind::kLine, 12, 0, "line"},
                          TopoCase{TopologySpec::Kind::kRing, 9, 0, "ring"},
                          TopoCase{TopologySpec::Kind::kClique, 8, 0, "clique"},
                          TopoCase{TopologySpec::Kind::kRandom, 25, 0, "random"},
                          TopoCase{TopologySpec::Kind::kInternetLike, 40, 0,
                                   "internet"}),
        ::testing::Values(1u, 7u, 42u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// End-to-end experiment invariants across pulse counts and damping configs.

enum class Variant { kNoDamping, kCisco, kJuniper, kCiscoRcn };

class ExperimentProperty
    : public ::testing::TestWithParam<std::tuple<int, Variant>> {};

TEST_P(ExperimentProperty, ResultInvariantsHold) {
  const auto& [pulses, variant] = GetParam();
  ExperimentConfig cfg;
  cfg.topology.kind = TopologySpec::Kind::kMeshTorus;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.pulses = pulses;
  cfg.seed = 11;
  switch (variant) {
    case Variant::kNoDamping:
      cfg.damping.reset();
      break;
    case Variant::kCisco:
      break;
    case Variant::kJuniper:
      cfg.damping = rfd::DampingParams::juniper();
      break;
    case Variant::kCiscoRcn:
      cfg.rcn = true;
      break;
  }
  cfg.record_update_log = true;
  const auto res = core::run_experiment(cfg);

  EXPECT_FALSE(res.hit_horizon);
  // Message accounting is consistent.
  EXPECT_EQ(res.update_log.size(), res.message_count);
  EXPECT_EQ(res.update_series.total(), res.message_count);
  // Suppress/reuse events balance: every suppression is eventually reused
  // (silent or noisy) because runs end converged.
  EXPECT_EQ(res.suppress_events, res.noisy_reuses + res.silent_reuses);
  EXPECT_EQ(res.damped_links.final_value(), 0);
  EXPECT_GE(res.damped_links.max_value(), 0);
  // Penalties never exceed the ceiling.
  if (cfg.damping) {
    EXPECT_LE(res.max_penalty, cfg.damping->ceiling() + 1e-6);
  } else {
    EXPECT_EQ(res.suppress_events, 0u);
  }
  // Times are ordered.
  EXPECT_GE(res.convergence_time_s, 0.0);
  EXPECT_GE(res.last_activity_s, 0.0);
  if (pulses > 0) {
    EXPECT_DOUBLE_EQ(res.stop_time_s, (2.0 * pulses - 1.0) * 60.0);
  }
  // Phase decomposition covers [0, last activity] without overlaps.
  for (std::size_t i = 0; i + 1 < res.phases.size(); ++i) {
    EXPECT_LE(res.phases[i].t0_s, res.phases[i].t1_s);
    EXPECT_NEAR(res.phases[i].t1_s, res.phases[i + 1].t0_s, 1e-6);
  }
  // Per-link FIFO delivery (TCP semantics).
  std::map<std::pair<net::NodeId, net::NodeId>, double> last;
  for (const auto& u : res.update_log) {
    auto& t = last[{u.from, u.to}];
    EXPECT_GE(u.t_s, t - 1e-9);
    t = u.t_s;
  }
}

std::string variant_name(
    const ::testing::TestParamInfo<std::tuple<int, Variant>>& info) {
  std::string name;
  switch (std::get<1>(info.param)) {
    case Variant::kNoDamping:
      name = "nodamp";
      break;
    case Variant::kCisco:
      name = "cisco";
      break;
    case Variant::kJuniper:
      name = "juniper";
      break;
    case Variant::kCiscoRcn:
      name = "rcn";
      break;
  }
  return "p" + std::to_string(std::get<0>(info.param)) + "_" + name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExperimentProperty,
    ::testing::Combine(::testing::Values(0, 1, 3, 6),
                       ::testing::Values(Variant::kNoDamping, Variant::kCisco,
                                         Variant::kJuniper,
                                         Variant::kCiscoRcn)),
    variant_name);

// ---------------------------------------------------------------------------
// Determinism: identical configs give bit-identical outcomes, across kinds.

class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperty, RunsAreReproducible) {
  ExperimentConfig cfg;
  cfg.topology.kind = TopologySpec::Kind::kInternetLike;
  cfg.topology.nodes = 30;
  cfg.pulses = 2;
  cfg.seed = GetParam();
  const auto a = core::run_experiment(cfg);
  const auto b = core::run_experiment(cfg);
  EXPECT_EQ(a.message_count, b.message_count);
  EXPECT_DOUBLE_EQ(a.convergence_time_s, b.convergence_time_s);
  EXPECT_EQ(a.suppress_events, b.suppress_events);
  EXPECT_EQ(a.noisy_reuses, b.noisy_reuses);
  EXPECT_DOUBLE_EQ(a.max_penalty, b.max_penalty);
  EXPECT_EQ(a.isp, b.isp);
  EXPECT_EQ(a.probe, b.probe);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace rfdnet
