// Observability overhead gate: the --stability record path (a
// StabilityTracker fed by a StabilityProbe on the send path) and the
// --telemetry record path (logical RouterMetrics on every router plus a
// TelemetrySampler advanced on a 1 s grid through `run_sampled`) must stay
// cheap next to a plain run of the same flap workload. Two graphs bracket
// the paper's range: the §5.1 10x10 torus under shortest-path and the §7
// 208-node Internet-like graph (topology seed 7) under no-valley, each run
// as warm-up plus two withdraw/re-announce pulses on the serial transport.
//
// The measurement is paired: every round times all three variants back to
// back, in an order rotated each round, on the calling thread's CPU clock
// (wall time also counts the time the scheduler gives to other processes
// on this CPU). The gate is the median over rounds of each variant's time
// over the plain time of its round. Optimized builds only: a Debug or
// sanitizer build's ratios say nothing about the shipped one.

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bgp/config.hpp"
#include "bgp/network.hpp"
#include "bgp/policy.hpp"
#include "net/graph.hpp"
#include "net/topology.hpp"
#include "obs/invariant.hpp"
#include "obs/metrics.hpp"
#include "obs/stability.hpp"
#include "obs/telemetry.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "stats/stability_probe.hpp"

namespace rfdnet {
namespace {

constexpr int kPulses = 2;
constexpr int kRounds = 15;
/// Each variant runs the workload often enough per round to take this much
/// CPU time, well above the clock's resolution and a context switch.
constexpr double kMinRoundS = 0.04;
/// Median slowdown allowed for each record path.
constexpr double kLimit = 1.20;

enum Variant { kPlain, kStability, kTelemetry, kVariants };
constexpr const char* kVariantName[] = {"plain", "stability", "telemetry"};

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Workload {
  const char* name;
  net::Graph graph;
  const bgp::Policy& policy;
};

/// CPU seconds of one run of `variant` on `w`; `*delivered` gets its
/// delivered update count. The tracker, registry and sampler are built
/// before the clock starts and finalized after it stops: an experiment pays
/// for them once, not per update. All three are built for every variant, so
/// the variants differ only in what the timed region runs.
double run_variant(const Workload& w, Variant variant,
                   std::uint64_t* delivered) {
  const sim::Duration period = sim::Duration::seconds(1.0);
  obs::StabilityTracker tracker;
  stats::StabilityProbe probe(&tracker);
  obs::Registry registry;
  obs::RouterMetrics rm = obs::RouterMetrics::bind_logical(registry);
  obs::TelemetrySampler sampler(period.as_micros(), period.as_micros());
  sampler.add_counter("bgp.sends", rm.sends);
  sampler.add_counter("bgp.withdrawals", rm.withdrawals);
  sampler.add_counter("bgp.mrai_deferrals", rm.mrai_deferrals);
  sampler.reserve(4096);

  const bgp::TimingConfig timing;  // the routers keep a reference to it

  const double start = thread_cpu_s();
  {
    sim::Engine engine;
    sim::Rng rng(1);
    bgp::BgpNetwork network(w.graph, timing, w.policy, engine, rng,
                            variant == kStability ? &probe : nullptr);
    if (variant == kTelemetry) {
      for (net::NodeId u = 0; u < w.graph.node_count(); ++u) {
        network.router(u).set_metrics(&rm);
      }
    }
    sim::SimTime cursor = engine.now() + period;
    // `run_sampled` drains the heap and stops at the last event, so the far
    // horizon is never reached and no trailing idle grid is walked.
    const sim::SimTime far = engine.now() + sim::Duration::seconds(1e9);
    const auto on_sample = [&](sim::SimTime t) {
      sampler.sample(t.as_micros());
      cursor = t + period;
    };
    const auto drain = [&] {
      if (variant == kTelemetry) {
        engine.run_sampled(far, cursor, period, on_sample);
      } else {
        engine.run();
      }
    };
    network.router(0).originate(0);
    drain();
    for (int k = 0; k < kPulses; ++k) {
      network.router(0).withdraw_origin(0);
      drain();
      network.router(0).originate(0);
      drain();
    }
    *delivered = network.delivered_count();
  }
  const double cpu = thread_cpu_s() - start;
  tracker.finalize();
  sampler.finalize();
  return cpu;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Turns the obs invariants off for the timed loops (the shared test main
/// turns them on; the shipped binaries run without them) and restores the
/// previous setting on every exit path.
class InvariantsOff {
 public:
  InvariantsOff() : was_(obs::invariants_enabled()) {
    obs::set_invariants_enabled(false);
  }
  ~InvariantsOff() { obs::set_invariants_enabled(was_); }
  InvariantsOff(const InvariantsOff&) = delete;
  InvariantsOff& operator=(const InvariantsOff&) = delete;

 private:
  bool was_;
};

TEST(ObsOverhead, RecordPathsWithinGate) {
#ifndef NDEBUG
  GTEST_SKIP() << "timing gate runs in optimized (NDEBUG) builds only";
#endif
  const bgp::ShortestPathPolicy shortest_path;
  const bgp::NoValleyPolicy no_valley;
  sim::Rng topo_rng(7);
  const Workload workloads[] = {
      {"mesh100", net::make_mesh_torus(10, 10), shortest_path},
      {"internet208", net::make_internet_like(208, topo_rng), no_valley},
  };
  const InvariantsOff invariants_off;
  for (const Workload& w : workloads) {
    std::uint64_t plain_delivered = 0;
    const double once = run_variant(w, kPlain, &plain_delivered);
    const int reps =
        std::max(1, static_cast<int>(std::ceil(kMinRoundS / once)));
    std::vector<double> ratios[kVariants];
    for (int r = 0; r < kRounds; ++r) {
      double cpu[kVariants] = {};
      for (int i = 0; i < kVariants; ++i) {
        const auto v = static_cast<Variant>((r + i) % kVariants);
        for (int k = 0; k < reps; ++k) {
          std::uint64_t delivered = 0;
          cpu[v] += run_variant(w, v, &delivered);
          ASSERT_EQ(delivered, plain_delivered)
              << w.name << " " << kVariantName[v] << " round " << r;
        }
      }
      for (const Variant v : {kStability, kTelemetry}) {
        ratios[v].push_back(cpu[v] / cpu[kPlain]);
      }
    }
    for (const Variant v : {kStability, kTelemetry}) {
      const double m = median(ratios[v]);
      std::cout << w.name << " " << kVariantName[v] << ": median " << m
                << "x plain CPU time over " << kRounds << " rounds of " << reps
                << " run(s), " << plain_delivered << " updates per run\n";
      EXPECT_LE(m, kLimit) << w.name << " " << kVariantName[v];
    }
  }
}

}  // namespace
}  // namespace rfdnet
