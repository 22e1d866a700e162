#pragma once

#include <vector>

#include "core/experiment.hpp"
#include "core/intended.hpp"
#include "core/parallel.hpp"

namespace rfdnet::core {

/// One row of the Fig. 8/9/13/14 sweeps.
struct SweepPoint {
  int pulses = 0;
  double convergence_s = 0.0;
  std::uint64_t messages = 0;
  /// §3 calculation with t_up taken from this run's warm-up.
  double intended_convergence_s = 0.0;
  bool isp_suppressed = false;
  bool hit_horizon = false;
};

struct SweepResult {
  std::vector<SweepPoint> points;
  /// Union of the per-trial obs metrics, merged in canonical (point, seed)
  /// order regardless of worker completion order; empty unless the base
  /// config set `collect_metrics`.
  obs::Registry metrics;
  /// Sum of the per-trial engine dispatch profiles (integer counts —
  /// commutative merge); all-zero unless the base config set `profile`.
  sim::EngineProfile profile;
};

/// Runs `base` for pulses = 1..max_pulses across `seeds` seeds (base.seed,
/// base.seed+1, ...; same topology per point) and pairs each point with the
/// intended-behavior calculation. Each point reports the per-seed median of
/// convergence time, message count and the intended calculation, which
/// smooths the run-to-run jitter of a single seed; `seeds` = 1 is the plain
/// single-seed sweep. When `base.damping` is unset the intended column falls
/// back to the measured warm-up t_up (no-damping convergence).
///
/// Trials are fully independent — one `Engine` and one `Rng` per trial —
/// and all seeds × pulses go through `runner` (default:
/// `ParallelRunner::shared()`) as one flat batch. Merge order is canonical
/// `(point, seed)` regardless of completion order, so the result is
/// identical to a serial run of the same config.
SweepResult run_pulse_sweep_median(const ExperimentConfig& base,
                                   int max_pulses, int seeds,
                                   ParallelRunner* runner = nullptr);

/// One row of the fault-storm sweep (`bench/ext_fault_storm`): per-seed
/// medians at one fault arrival rate.
struct FaultSweepPoint {
  double rate_per_s = 0.0;
  double convergence_s = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t faults = 0;
  std::uint64_t dropped = 0;  ///< link + perturbation losses
  /// Suppress events per BGP session (2 directed RIB-IN entries per link):
  /// how much of the network the storm pushed into damping.
  double suppression_share = 0.0;
  bool hit_horizon = false;
};

struct FaultSweepResult {
  std::vector<FaultSweepPoint> points;
  /// Union of per-trial metrics, merged in canonical (rate, seed) order.
  obs::Registry metrics;
  /// Sum of per-trial engine dispatch profiles; all-zero unless the base
  /// config set `profile`.
  sim::EngineProfile profile;
};

/// Runs `base` (which must carry a storm-based `faults` plan) at each fault
/// arrival rate in `rates`, `seeds` trials per rate (base.seed, base.seed+1,
/// ...), reporting per-point medians. Trials dispatch through `runner` as
/// one flat batch; points and metrics are merged in canonical (rate, seed)
/// order, and per-trial traces get a ".f<rate-index>.s<seed>" suffix — the
/// result is byte-identical to a serial run of the same config.
FaultSweepResult run_fault_storm_sweep(const ExperimentConfig& base,
                                       const std::vector<double>& rates,
                                       int seeds,
                                       ParallelRunner* runner = nullptr);

}  // namespace rfdnet::core
