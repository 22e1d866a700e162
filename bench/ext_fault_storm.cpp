// Extension — fault storms (src/fault): random link flaps, session resets,
// router restarts and message perturbation layered over the paper's flap
// workload.
//
// The paper studies a single well-behaved instability source. Real
// networks misbehave everywhere at once; this sweep drives the simulator
// with Poisson fault storms of increasing arrival rate and watches the
// damping layer's response:
//
//  - convergence time (from the last fault release) grows with fault rate
//    once suppression engages — reuse timers, not propagation, dominate;
//  - message count grows roughly linearly with the number of faults;
//  - the suppressed share of sessions rises with rate: storms push damping
//    from "muffler at the edge" toward network-wide suppression.
//
// Usage:
//   ext_fault_storm [--rates R1,R2,...] [--seeds N] [--seed S]
//                   [--fault-mean-down S] [--fault-drop P] [--fault-delay S]
//                   [--fault-horizon S] [--fault-schedule "SCRIPT"]
//                   [--jobs N] [--metrics] [--trace PATH]
//                   [--stability] [--stability-gap S]
//
// With --fault-schedule the given scripted schedule (see
// fault::FaultSchedule::parse for the grammar) runs once instead of the
// rate sweep. Output is byte-identical for any --jobs value. A rejected
// option or schedule exits 2 with its message before anything runs.

#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"

namespace {

/// The comma-separated rates, each parsed strictly; throws on a bad one.
std::vector<double> parse_rates(const std::string& csv) {
  std::vector<double> rates;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const std::optional<double> rate = rfdnet::core::parse_double_token(item);
    if (!rate) {
      throw std::invalid_argument("invalid rate '" + item + "' in --rates");
    }
    rates.push_back(*rate);
  }
  if (rates.empty()) throw std::invalid_argument("--rates names no rate");
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  rfdnet::core::ParallelRunner::configure_from_args(argc, argv);
  using namespace rfdnet;

  core::ArgParser args({"metrics", "stability"},
                       {"rates", "seeds", "seed", "fault-mean-down",
                        "fault-drop", "fault-delay", "fault-horizon",
                        "fault-schedule", "jobs", "j", "trace",
                        "stability-gap"});
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n";
    return 2;
  }

  core::ExperimentConfig base;
  base.topology.kind = core::TopologySpec::Kind::kMeshTorus;
  base.topology.width = 10;
  base.topology.height = 10;
  base.seed = args.get_u64("seed", 1);
  base.isp = 0;
  // Route --trace through the sweep's per-trial naming (".f<rate>.s<seed>")
  // rather than ObsScope's completion-ordered run numbers, so the produced
  // file set is identical for any --jobs value.
  if (args.has("trace") && args.get("trace") != "-") {
    base.trace_path = args.get("trace");
  }
  // Faults are the only instability source: no origin flap pulses, so the
  // sweep isolates the storm's own convergence/suppression response.
  base.pulses = 0;
  base.collect_stability = args.has("stability");
  if (args.has("stability-gap")) {
    base.stability_gap_s = args.get_double("stability-gap", 30.0);
  }

  fault::StormOptions storm;
  storm.mean_down_s = args.get_double("fault-mean-down", 30.0);
  storm.drop_prob = args.get_double("fault-drop", 0.05);
  storm.extra_delay_s = args.get_double("fault-delay", 0.05);
  storm.horizon_s = args.get_double("fault-horizon", 600.0);
  const int seeds = args.get_int("seeds", 3);
  std::vector<double> rates;
  // Rejected once, like a bad flag, before any run or the scope opens.
  try {
    fault::FaultPlan plan;
    if (args.has("fault-schedule")) {
      plan.script = args.get("fault-schedule");
      fault::FaultSchedule::parse(*plan.script);  // parses and validates
    } else {
      rates = parse_rates(args.get("rates", "0.005,0.01,0.02,0.05"));
      if (seeds < 1) throw std::invalid_argument("--seeds must be >= 1");
      for (const double rate : rates) {
        fault::StormOptions trial = storm;
        trial.rate_per_s = rate;
        trial.validate();
      }
      plan.storm = storm;
    }
    base.faults = plan;
    base.validate();
  } catch (const std::invalid_argument& e) {
    std::cerr << "ext_fault_storm: " << e.what() << "\n";
    return 2;
  }
  const core::ObsScope obs(argc, argv);

  if (args.has("fault-schedule")) {
    std::cout << "Extension: scripted fault schedule (100-node mesh)\n\n";
    const auto r = core::run_experiment(base);
    core::TextTable t({"faults", "convergence (s)", "messages", "dropped",
                       "suppressions", "noisy reuses"});
    t.add_row({core::TextTable::num(r.faults_injected),
               core::TextTable::num(r.convergence_time_s, 0),
               core::TextTable::num(r.message_count),
               core::TextTable::num(r.dropped_count),
               core::TextTable::num(r.suppress_events),
               core::TextTable::num(r.noisy_reuses)});
    t.print(std::cout);
    if (r.stability) {
      std::cout << "\nstability: " << r.stability->summary_line() << "\n";
    }
    return 0;
  }

  std::cout << "Extension: fault storms (100-node mesh, " << seeds
            << " seed(s)/rate, horizon " << storm.horizon_s << " s)\n\n";

  const auto sweep = core::run_fault_storm_sweep(base, rates, seeds);

  core::TextTable t({"rate (/s)", "faults", "convergence (s)", "messages",
                     "dropped", "suppressed share", "horizon"});
  for (const auto& pt : sweep.points) {
    t.add_row({core::TextTable::num(pt.rate_per_s, 3),
               core::TextTable::num(pt.faults),
               core::TextTable::num(pt.convergence_s, 0),
               core::TextTable::num(pt.messages),
               core::TextTable::num(pt.dropped),
               core::TextTable::num(pt.suppression_share, 3),
               pt.hit_horizon ? "HIT" : "ok"});
  }
  t.print(std::cout);

  if (base.collect_stability) {
    // Per-trial stability bundles, merged in the sweep's canonical (rate,
    // seed) order — byte-identical for any --jobs value.
    std::cout << "\nstability metrics (merged over all trials)\n";
    sweep.metrics.write_summary(std::cout);
  }

  std::cout
      << "\nobservations: higher fault rates charge more entries past the "
         "cut-off, so the\nsuppressed share of sessions grows with the storm "
         "and convergence (measured from\nthe last fault release) stays "
         "pinned to reuse-timer scale rather than update\npropagation "
         "scale — the paper's timer-interaction story, but driven by "
         "ambient\nfaults instead of one flapping origin.\n";
  return 0;
}
