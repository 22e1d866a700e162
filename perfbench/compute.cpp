// The three in-process workloads: the paper's scorecard, one flap experiment
// on Internet-like graphs, and full-table churn. Each times repeated units of
// the public `rfdnet_core` drivers after untimed warm-up; see README.md for
// why each exists.

#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/export.hpp"
#include "core/full_table.hpp"
#include "core/sharded.hpp"
#include "core/validation.hpp"
#include "net/partition.hpp"

namespace perfbench {
namespace {

using namespace rfdnet;

/// Validation seeds per `paper_sweep` run; units cycle through them.
constexpr std::size_t kSweepSeeds = 8;
/// Internet-like graphs per run; units cycle through them.
constexpr std::size_t kGraphs = 6;
constexpr int kInternetNodes = 3000;
constexpr int kInternetPulses = 3;
constexpr int kShards = 2;

/// Independent 64-bit stream `salt` of the workload seed (SplitMix64 step).
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Remembers the first result bytes of each input; every later unit on the
/// same input must reproduce them exactly.
class RepeatCheck {
 public:
  explicit RepeatCheck(std::size_t inputs) : first_(inputs) {}

  bool same(std::size_t input, std::string bytes) {
    std::optional<std::string>& first = first_.at(input);
    if (!first) {
      first = std::move(bytes);
      return true;
    }
    return *first == bytes;
  }

  /// The first bytes seen for `input`, or nullptr before any.
  const std::string* first(std::size_t input) const {
    const std::optional<std::string>& f = first_.at(input);
    return f ? &*f : nullptr;
  }

 private:
  std::vector<std::optional<std::string>> first_;
};

/// Closed loop: unit `i` starts when unit `i - 1` has returned, until
/// `seconds` have passed (at least one unit). `unit` runs one unit, stores
/// the wall time of the library call alone in `took` and returns whether its
/// checks passed; timings of failed units are dropped. A reference sample
/// runs between every two units, so each unit is scaled by the samples
/// right before and after it.
UnitTimes closed_loop(double seconds, Outcome& out,
                      const std::function<bool(std::size_t, double&)>& unit) {
  UnitTimes t;
  double before = reference_sample();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i == 0 || seconds_since(t0) < seconds; ++i) {
    ++out.attempted;
    double took = 0.0;
    bool ok = false;
    try {
      ok = unit(i, took);
      if (!ok) out.fail("unit " + std::to_string(i) + ": result differs");
    } catch (const std::exception& e) {
      out.fail("unit " + std::to_string(i) + " threw: " + e.what());
    }
    const double after = reference_sample();
    if (ok) {
      t.units.add(took, reference_scale(before, after));
      t.busy_s += took * t.units.scale.back();
      ++t.done;
    }
    before = after;
  }
  return t;
}

/// Time rows of one profiled unit. `core.other_s` is the unit's wall time
/// minus the handler rows reported here, so the rows add up to `wall_s`
/// exactly: it holds queue operations, network build, result collection and
/// the small flap/generic handler rows.
void profile_layers(const sim::EngineProfile& p, double wall_s,
                    Outcome& out) {
  const auto row = [&p](sim::EventKind k) { return p.row(k); };
  const auto delivery = row(sim::EventKind::kDelivery);
  const auto mrai = row(sim::EventKind::kMraiFlush);
  const auto reuse = row(sim::EventKind::kReuseTimer);
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const double delivery_s = static_cast<double>(delivery.wall_ns) * 1e-9;
  const double mrai_s = static_cast<double>(mrai.wall_ns) * 1e-9;
  const double reuse_s = static_cast<double>(reuse.wall_ns) * 1e-9;
  out.metric("trace.unit_s", wall_s, "s");
  out.metric("bgp.delivery_s", delivery_s, "s");
  out.metric("bgp.delivery_n", static_cast<double>(delivery.fired), "count");
  out.metric("bgp.mrai_flush_s", mrai_s, "s");
  out.metric("bgp.mrai_flush_n", static_cast<double>(mrai.fired), "count");
  out.metric("bgp.mrai_flush_cancel_ratio",
             ratio(mrai.cancelled, mrai.scheduled), "ratio");
  out.metric("rfd.reuse_timer_s", reuse_s, "s");
  out.metric("rfd.reuse_timer_n", static_cast<double>(reuse.fired), "count");
  out.metric("rfd.reuse_timer_cancel_ratio",
             ratio(reuse.cancelled, reuse.scheduled), "ratio");
  out.metric("sim.events", static_cast<double>(p.total_fired()), "count");
  out.metric("core.other_s", wall_s - delivery_s - mrai_s - reuse_s, "s");
  if (wall_s < delivery_s + mrai_s + reuse_s) {
    out.fail("profile rows exceed the unit wall time");
  }
}

// ---------------------------------------------------------------- scorecard

std::string report_bytes(const core::ValidationReport& r) {
  std::string s;
  for (const core::ClaimCheck& c : r.checks) {
    s += (c.pass ? "PASS " : "FAIL ") + c.id + " | " + c.measured + "\n";
  }
  return s;
}

}  // namespace

void run_paper_sweep(const Args& args, Outcome& out) {
  // Units cycle through kSweepSeeds validation seeds: the first is the
  // workload seed, the others derive from it. Work per scorecard differs by
  // up to a tenth between validation seeds, so a run that used one seed
  // would measure its seed as much as the program. Seed 1 is the paper's
  // setup, where every claim must reproduce; other seeds may legitimately
  // fail a claim (seed 7 misses fig8.critical-point), so there each unit
  // must only match the first report of its validation seed.
  constexpr int kWarmups = 2;
  const int setups = args.trace ? 1 : 5;
  std::vector<core::ValidationOptions> opts(kSweepSeeds);
  for (std::size_t k = 0; k < kSweepSeeds; ++k) {
    opts[k].seed = k == 0 ? args.seed : derive(args.seed, k);
  }
  const std::string profile_flag =
      "--profile=" + args.tmp_dir + "/profile.json";

  RepeatCheck repeat(kSweepSeeds);
  const auto check = [&](std::size_t k, const core::ValidationReport& r) {
    if (opts[k].seed == 1 && !r.all_passed()) {
      out.note(report_bytes(r));
      return false;
    }
    return repeat.same(k, report_bytes(r));
  };
  // One scorecard at validation seed `k`; with `profile`, under an ObsScope
  // collecting the dispatch profile of its experiments.
  const auto unit = [&](std::size_t k, double& took,
                        sim::EngineProfile* profile) {
    if (profile == nullptr) {
      const auto t0 = Clock::now();
      const core::ValidationReport r = core::validate_reproduction(opts[k]);
      took = seconds_since(t0);
      return check(k, r);
    }
    const char* argv[] = {"perfbench", profile_flag.c_str()};
    const core::ObsScope scope(2, argv);
    const auto t0 = Clock::now();
    const core::ValidationReport r = core::validate_reproduction(opts[k]);
    took = seconds_since(t0);
    *profile = scope.profile_snapshot();
    return check(k, r);
  };

  UnitTimes times;
  std::vector<double> plain, traced;
  std::vector<sim::EngineProfile> profiles;
  const Timings setup = repeated_setup(
      setups,
      [&] {
        for (int w = 0; w < kWarmups; ++w) {
          double took = 0.0;
          if (!unit(w % kSweepSeeds, took, nullptr)) {
            out.fail("warm-up scorecard differs");
          }
        }
      },
      [&] {
        times = closed_loop(
            args.seconds, out, [&](std::size_t i, double& took) {
          // Traced runs alternate plain and profiled units on each seed.
          const std::size_t k = (args.trace ? i / 2 : i) % kSweepSeeds;
          if (!args.trace || i % 2 == 0) {
            if (!unit(k, took, nullptr)) return false;
            plain.push_back(took);
          } else {
            sim::EngineProfile p;
            if (!unit(k, took, &p)) return false;
            profiles.push_back(p);
            traced.push_back(took);
          }
          return true;
        });
      });

  if (const std::string* report = repeat.first(0)) out.note(*report);
  if (!args.trace) {
    report_end_to_end(setup, times, self_peak_rss_mb(), out);
    return;
  }
  report_overhead(plain, traced, out);
  const std::size_t m = median_index(traced);
  profile_layers(profiles.at(m), traced[m], out);
}

// ------------------------------------------------------- Internet-like flap

namespace {

struct InternetInputs {
  std::vector<core::ExperimentConfig> cfgs;
  std::vector<double> build_s;  ///< `TopologySpec::build` wall time per graph
};

/// kGraphs Internet-like graphs and their 3-pulse experiments, all drawn
/// from the workload seed. The flapping origin hangs off the best-connected
/// AS of each graph: with a random attachment point the work per unit swings
/// by a fifth between seeds, with the hub it stays within a few percent.
InternetInputs internet_inputs(std::uint64_t seed) {
  InternetInputs in;
  for (std::size_t g = 0; g < kGraphs; ++g) {
    core::ExperimentConfig cfg;
    cfg.topology.kind = core::TopologySpec::Kind::kInternetLike;
    cfg.topology.nodes = kInternetNodes;
    cfg.pulses = kInternetPulses;
    cfg.seed = derive(seed, 2 * g);
    sim::Rng rng(derive(seed, 2 * g + 1));
    const auto t0 = Clock::now();
    const net::Graph graph = cfg.topology.build(rng);
    in.build_s.push_back(seconds_since(t0));
    net::NodeId hub = 0;
    for (net::NodeId v = 0; v < graph.node_count(); ++v) {
      if (graph.degree(v) > graph.degree(hub)) hub = v;
    }
    cfg.isp = hub;
    cfg.topology_graph = graph;
    in.cfgs.push_back(std::move(cfg));
  }
  return in;
}

}  // namespace

void run_internet_flap(const Args& args, Outcome& out) {
  const int setups = args.trace ? 1 : 3;
  InternetInputs in;
  std::vector<core::ExperimentConfig> profiled;
  RepeatCheck repeat(kGraphs), sharded_repeat(kGraphs);
  const auto serial_unit = [&](std::size_t g, bool profile, double& took,
                               core::ExperimentResult& res) {
    const auto t0 = Clock::now();
    res = core::run_experiment(profile ? profiled[g] : in.cfgs[g]);
    took = seconds_since(t0);
    return repeat.same(g, core::result_json(res));
  };
  const auto sharded_unit = [&](std::size_t g, double& took,
                                core::ShardedExperimentResult& res) {
    // Two shard threads need two CPUs.
    run_unpinned([&] {
      const auto t0 = Clock::now();
      res = core::run_sharded_experiment(in.cfgs[g], kShards);
      took = seconds_since(t0);
    });
    return sharded_repeat.same(g, res.scorecard());
  };

  UnitTimes times;
  std::vector<double> plain, traced, sharded;
  std::vector<core::ExperimentResult> traced_results;
  std::vector<core::ShardedExperimentResult> sharded_results;
  const Timings setup = repeated_setup(
      setups,
      [&] {
        in = internet_inputs(args.seed);
        profiled = in.cfgs;
        for (core::ExperimentConfig& c : profiled) c.profile = true;
        for (std::size_t g = 0; g < kGraphs; ++g) {
          double took = 0.0;
          core::ExperimentResult res;
          if (!serial_unit(g, false, took, res)) {
            out.fail("warm-up result differs");
          }
        }
      },
      [&] {
        times = closed_loop(
            args.seconds, out, [&](std::size_t i, double& took) {
          // Traced runs cycle (plain, profiled, sharded) units per graph.
          // The sharded driver rejects the profile; its unit keeps the
          // engine statistics it always collects.
          const std::size_t phase = args.trace ? i % 3 : 0;
          const std::size_t g = (args.trace ? i / 3 : i) % kGraphs;
          if (phase == 2) {
            core::ShardedExperimentResult res;
            if (!sharded_unit(g, took, res)) return false;
            sharded.push_back(took);
            sharded_results.push_back(std::move(res));
            return true;
          }
          core::ExperimentResult res;
          if (!serial_unit(g, phase == 1, took, res)) return false;
          if (phase == 1) {
            traced.push_back(took);
            traced_results.push_back(std::move(res));
          } else {
            plain.push_back(took);
          }
          return true;
        });
      });

  if (!args.trace) {
    report_end_to_end(setup, times, self_peak_rss_mb(), out);
    return;
  }
  report_overhead(plain, traced, out);
  const std::size_t m = median_index(traced);
  const core::ExperimentResult& r = traced_results.at(m);
  profile_layers(r.profile, traced[m], out);
  const sim::EngineProfile::Alloc& a = r.profile.alloc;
  out.metric("bgp.path.intern_requests",
             static_cast<double>(a.intern_requests), "count");
  out.metric("bgp.path.node_builds", static_cast<double>(a.node_builds),
             "count");
  out.metric("bgp.pool.reuse_ratio",
             a.pool_acquired == 0 ? 0.0
                                  : static_cast<double>(a.pool_reused) /
                                        static_cast<double>(a.pool_acquired),
             "ratio");
  out.metric("bgp.pool.high_water", static_cast<double>(a.pool_high_water),
             "count");
  out.metric("bgp.updates", static_cast<double>(r.message_count), "count");
  out.metric("rfd.suppressions", static_cast<double>(r.suppress_events),
             "count");
  out.metric("net.topology_s", median(in.build_s), "s");

  // Sharded units: per-shard mean times, which add up to the sharded unit's
  // wall time together with `sim.shard.other_s` (partitioning, network
  // build, merge).
  if (sharded.empty()) throw std::runtime_error("no sharded unit ran");
  const std::size_t ms = median_index(sharded);
  const core::ShardedExperimentResult& sr = sharded_results.at(ms);
  const sim::ShardedEngine::Stats& st = sr.engine_stats;
  const double k = static_cast<double>(sr.partition.shards);
  const double busy = static_cast<double>(st.busy_ns) * 1e-9 / k;
  const double barrier = static_cast<double>(st.barrier_wait_ns) * 1e-9 / k;
  const double close = static_cast<double>(st.close_wait_ns) * 1e-9 / k;
  out.metric("sim.shard.unit_s", sharded[ms], "s");
  out.metric("sim.shard.busy_s", busy, "s");
  out.metric("sim.shard.barrier_wait_s", barrier, "s");
  out.metric("sim.shard.close_wait_s", close, "s");
  out.metric("sim.shard.other_s", sharded[ms] - busy - barrier - close, "s");
  out.metric("sim.shard.busy_share", busy / (busy + barrier + close), "ratio");
  out.metric("sim.shard.rounds", static_cast<double>(st.rounds), "count");
  out.metric("sim.shard.cross_posted", static_cast<double>(st.cross_posted),
             "count");
  out.metric("sim.shard.overhead", median(sharded) / median(plain) - 1.0,
             "ratio");
  out.metric("net.cut_links", static_cast<double>(sr.partition.cut_links),
             "count");

  std::vector<double> partition_s;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    const net::Partition p =
        net::partition_graph(*in.cfgs[0].topology_graph, kShards);
    partition_s.push_back(seconds_since(t0));
    if (p.shards != kShards) out.fail("partition lost a shard");
  }
  out.metric("net.partition_s", median(partition_s), "s");

  // One answer at every shard count: k = 1 must reproduce the k = 2 bytes.
  for (std::size_t g = 0; g < kGraphs; ++g) {
    const std::string* k2 = sharded_repeat.first(g);
    if (k2 == nullptr) continue;
    ++out.attempted;
    if (core::run_sharded_experiment(in.cfgs[g], 1).scorecard() != *k2) {
      out.fail("graph " + std::to_string(g) +
               ": k=1 and k=2 scorecards differ");
    }
  }
}

// ---------------------------------------------------------------- full table

void run_full_table_churn(const Args& args, Outcome& out) {
  const int setups = args.trace ? 1 : 3;
  core::FullTableConfig cfg;
  cfg.prefixes = 120000;
  cfg.events = 60000;
  cfg.routers = 4;
  cfg.seed = derive(args.seed, 0);
  core::FullTableConfig radix = cfg;
  radix.rib_backend = bgp::RibBackendKind::kRadix;

  RepeatCheck repeat(1);
  struct Split {
    double call_s = 0.0;
    core::FullTableResult res;
  };
  const auto unit = [&](const core::FullTableConfig& c, Split& s) {
    const auto t0 = Clock::now();
    s.res = core::run_full_table(c);
    s.call_s = seconds_since(t0);
    return repeat.same(0, s.res.scorecard());
  };

  UnitTimes times;
  std::vector<double> plain, traced_s;
  std::vector<Split> traced, radix_units;
  const Timings setup = repeated_setup(
      setups,
      [&] {
        Split s;
        if (!unit(cfg, s)) out.fail("warm-up scorecard differs");
      },
      [&] {
        times = closed_loop(
            args.seconds, out, [&](std::size_t i, double& took) {
          // Traced runs cycle (plain, traced, radix): the run_full_table
          // driver has no profile hook, so a traced unit keeps its split
          // timings and counters; the radix unit must give the same bytes.
          const std::size_t phase = args.trace ? i % 3 : 0;
          Split s;
          if (!unit(phase == 2 ? radix : cfg, s)) return false;
          took = s.call_s;
          if (phase == 0) {
            plain.push_back(took);
          } else if (phase == 1) {
            traced_s.push_back(took);
            traced.push_back(std::move(s));
          } else {
            radix_units.push_back(std::move(s));
          }
          return true;
        });
      });

  if (!args.trace) {
    report_end_to_end(setup, times, self_peak_rss_mb(), out);
    return;
  }
  if (radix_units.empty()) throw std::runtime_error("no radix unit ran");
  report_overhead(plain, traced_s, out);
  const std::size_t m = median_index(traced_s);
  const Split& s = traced.at(m);
  out.metric("trace.unit_s", s.call_s, "s");
  out.metric("bgp.rib.warmup_s", s.call_s - s.res.wall_s, "s");
  out.metric("bgp.rib.churn_s", s.res.wall_s, "s");
  out.metric("bgp.rib.updates_per_s", s.res.updates_per_core_sec, "1/s");
  out.metric("bgp.rib.peak_rows", static_cast<double>(s.res.peak_rib_resident),
             "count");
  out.metric("bgp.rib.final_rows",
             static_cast<double>(s.res.final_rib_resident), "count");
  out.metric("rfd.entries.peak_active",
             static_cast<double>(s.res.peak_damping_active), "count");
  out.metric("rfd.entries.peak_tracked",
             static_cast<double>(s.res.peak_damping_tracked), "count");
  obs::Registry metrics = s.res.metrics;
  out.metric("rfd.charges",
             static_cast<double>(metrics.counter("rfd.charges").value()),
             "count");
  out.metric("rfd.suppressions",
             static_cast<double>(metrics.counter("rfd.suppressions").value()),
             "count");
  out.metric("bgp.updates", static_cast<double>(s.res.updates_delivered),
             "count");

  std::vector<double> radix_warmup, radix_churn;
  for (const Split& r : radix_units) {
    radix_warmup.push_back(r.call_s - r.res.wall_s);
    radix_churn.push_back(r.res.wall_s);
  }
  out.metric("bgp.rib.radix.warmup_s", median(radix_warmup), "s");
  out.metric("bgp.rib.radix.churn_s", median(radix_churn), "s");
}

}  // namespace perfbench
