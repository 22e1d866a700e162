// Microbenchmark for the sharded simulation engine: updates/s on a
// 10,000-node Internet-like graph at 1/2/4/8 shards. The workload floods the
// graph from 4 origins spread across it (one prefix each, warm-up plus one
// withdraw/re-announce cycle per origin), so every shard owns real work and
// the measurement captures partitioning quality, conservative-window round
// overhead and barrier wait — not just raw event dispatch. Timing is manual
// and covers only the engine runs; building the 10k-router network is the
// same serial cost at every shard count and would otherwise dilute the
// speedup being measured. `--shards 1` (Arg(1)) is the serial-fallback
// baseline the speedups are read against.
//
// Interpreting the numbers: speedup is bounded by the physical core count
// (the google-benchmark context header prints it). On a single-core host
// the expected wall ratio is ~1.0x — what the bench then measures is the
// protocol's overhead (rounds, cross-shard messaging, barrier waits, all
// exported as counters); any wall win on one core comes from the smaller
// per-shard working set. The per-shard degree balance that multi-core
// speedup depends on is asserted by the partition unit tests, not here.
//
// Nothing gates its timings against a baseline: read them as a comparison
// across shard counts within one run, on the host that ran it.
//
// Second mode: `micro_shard --scorecard` runs the sharded experiment driver
// on the §7 208-node Internet graph at 1/2/4 shards and exits non-zero
// unless all three scorecards are byte-identical — the determinism contract,
// checkable from the bench harness without the test suite.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bgp/config.hpp"
#include "bgp/policy.hpp"
#include "bgp/sharded_network.hpp"
#include "core/fnv1a.hpp"
#include "core/sharded.hpp"
#include "net/graph.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/time.hpp"

namespace {

using namespace rfdnet;

const net::Graph& big_graph() {
  static const net::Graph& g = *new net::Graph([] {
    sim::Rng topo_rng(42);
    // 100 ms links: the conservative window is bounded by the cut-link
    // delay, so wider links mean fewer, fatter barrier rounds — the regime
    // sharding is for. (WAN-scale delays; the default 10 ms is a LAN.)
    net::InternetOptions opt;
    opt.delay_s = 0.1;
    return net::make_internet_like(10000, topo_rng, opt);
  }());
  return g;
}

struct FloodResult {
  std::uint64_t delivered = 0;
  double run_s = 0.0;  ///< wall time inside engine.run() only
  sim::ShardedEngine::Stats stats;
};

/// 4 prefixes originated at evenly spaced routers, run to convergence, then
/// one withdraw + re-announce cycle per origin, run to quiescence. MRAI is
/// shortened to 5 s: the workload is about event throughput, not damping
/// timescales, and the classic 30 s MRAI just multiplies the simulated span
/// (and therefore the bare-run wall time) without changing what is measured.
FloodResult shard_flood(const net::Graph& g, int shards) {
  constexpr int kPrefixes = 4;
  bgp::TimingConfig cfg;
  cfg.mrai_s = 5.0;
  const bgp::ShortestPathPolicy policy;
  const net::Partition part = net::partition_graph(g, shards);
  sim::ShardedEngine engine(part.shards);
  bgp::ShardedBgpNetwork network(g, part, cfg, policy, engine, 1);
  engine.set_lookahead(network.conservative_lookahead());

  const auto n = g.node_count();
  // Driver keys (bit 62) slot between router timers and deliveries; see
  // core/sharded.cpp.
  std::uint64_t key = 1ULL << 62;
  std::vector<net::NodeId> origins;
  origins.reserve(kPrefixes);
  for (int p = 0; p < kPrefixes; ++p) {
    const auto u = static_cast<net::NodeId>((n * static_cast<std::size_t>(p)) /
                                            kPrefixes);
    origins.push_back(u);
    bgp::BgpRouter* r = &network.router(u);
    engine.shard(network.shard_of(u))
        .schedule_keyed(
            sim::SimTime::zero(), key++,
            [r, p] { r->originate(static_cast<bgp::Prefix>(p)); },
            sim::EventKind::kFlap, u);
  }

  FloodResult out;
  const auto w0 = std::chrono::steady_clock::now();
  engine.run();

  const sim::SimTime t0 = engine.now();
  for (int p = 0; p < kPrefixes; ++p) {
    const net::NodeId u = origins[static_cast<std::size_t>(p)];
    bgp::BgpRouter* r = &network.router(u);
    sim::Engine& e = engine.shard(network.shard_of(u));
    e.schedule_keyed(
        t0 + sim::Duration::seconds(1.0), key++,
        [r, p] { r->withdraw_origin(static_cast<bgp::Prefix>(p)); },
        sim::EventKind::kFlap, u);
    e.schedule_keyed(
        t0 + sim::Duration::seconds(21.0), key++,
        [r, p] { r->originate(static_cast<bgp::Prefix>(p)); },
        sim::EventKind::kFlap, u);
  }
  engine.run();
  out.run_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            w0)
                  .count();
  out.delivered = network.delivered_count();
  out.stats = engine.stats();
  return out;
}

void BM_ShardFlood(benchmark::State& state) {
  const net::Graph& g = big_graph();
  const int shards = static_cast<int>(state.range(0));
  FloodResult r;
  for (auto _ : state) {
    r = shard_flood(g, shards);
    state.SetIterationTime(r.run_s);
    benchmark::DoNotOptimize(r.delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(r.delivered));
  state.counters["delivered"] = static_cast<double>(r.delivered);
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["rounds"] = static_cast<double>(r.stats.rounds);
  state.counters["cross_msgs"] = static_cast<double>(r.stats.cross_posted);
  state.counters["wait_s"] =
      static_cast<double>(r.stats.barrier_wait_ns) * 1e-9;
  state.counters["close_s"] =
      static_cast<double>(r.stats.close_wait_ns) * 1e-9;
  state.counters["busy_s"] = static_cast<double>(r.stats.busy_ns) * 1e-9;
}
BENCHMARK(BM_ShardFlood)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// `--scorecard`: serial-vs-sharded byte-identity on the 208-node Internet
/// experiment. Exits 0 and prints a one-line JSON on success.
int scorecard_mode() {
  core::ExperimentConfig cfg;
  cfg.topology.kind = core::TopologySpec::Kind::kInternetLike;
  cfg.topology.nodes = 208;
  cfg.pulses = 2;
  cfg.seed = 7;
  cfg.record_all_penalties = true;
  cfg.record_update_log = true;
  std::string first;
  for (const int shards : {1, 2, 4}) {
    const core::ShardedExperimentResult r =
        core::run_sharded_experiment(cfg, shards);
    const std::string card = r.scorecard();
    if (first.empty()) {
      first = card;
    } else if (card != first) {
      std::fprintf(stderr,
                   "micro_shard --scorecard: shards=%d scorecard DIVERGED "
                   "from shards=1 (%zu vs %zu bytes)\n",
                   shards, card.size(), first.size());
      return 1;
    }
  }
  std::printf(
      "{\"scorecard_identical\":true,\"bytes\":%zu,\"fnv1a\":\"%016llx\"}\n",
      first.size(),
      static_cast<unsigned long long>(core::fnv1a(first)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--scorecard") return scorecard_mode();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
