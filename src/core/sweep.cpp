#include "core/sweep.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace rfdnet::core {

namespace {

template <typename T>
T median(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One trial = one fully independent `run_experiment` (its own Engine + Rng,
/// seeded from the config), writing into a pre-sized result slot. Per-trial
/// metrics land in `*metrics_out` (when non-null) for the caller to merge in
/// canonical order; a configured trace path gets a per-trial suffix so
/// concurrent trials never share a file.
SweepPoint run_trial(const ExperimentConfig& base, std::uint64_t seed,
                     int pulses, obs::Registry* metrics_out = nullptr,
                     sim::EngineProfile* profile_out = nullptr) {
  ExperimentConfig cfg = base;
  cfg.seed = seed;
  cfg.pulses = pulses;
  if (base.trace_path) {
    cfg.trace_path = *base.trace_path + ".p" + std::to_string(pulses) + ".s" +
                     std::to_string(seed);
  }
  ExperimentResult res = run_experiment(cfg);
  if (metrics_out) *metrics_out = std::move(res.metrics);
  if (profile_out) *profile_out = res.profile;

  SweepPoint pt;
  pt.pulses = pulses;
  pt.convergence_s = res.convergence_time_s;
  pt.messages = res.message_count;
  pt.isp_suppressed = res.isp_suppressed;
  pt.hit_horizon = res.hit_horizon;
  if (base.damping) {
    const IntendedBehaviorModel model(*base.damping);
    pt.intended_convergence_s = model.intended_convergence_s(
        FlapPattern{pulses, base.flap_interval_s}, res.warmup_tup_s);
  } else {
    pt.intended_convergence_s = res.warmup_tup_s;
  }
  return pt;
}

}  // namespace

SweepResult run_pulse_sweep_median(const ExperimentConfig& base,
                                   int max_pulses, int seeds,
                                   ParallelRunner* runner) {
  if (seeds < 1) throw std::invalid_argument("sweep: seeds < 1");
  const auto n_pulses = static_cast<std::size_t>(std::max(0, max_pulses));
  const auto n_seeds = static_cast<std::size_t>(seeds);

  // One flat batch over the (seed, pulse) grid: the longest trials (high
  // pulse counts) spread across workers instead of serializing per seed.
  std::vector<SweepResult> runs(n_seeds);
  for (auto& run : runs) run.points.resize(n_pulses);
  std::vector<obs::Registry> trial_metrics(n_seeds * n_pulses);
  std::vector<sim::EngineProfile> trial_profiles(n_seeds * n_pulses);
  ParallelRunner& pool = runner ? *runner : ParallelRunner::shared();
  pool.for_each(n_seeds * n_pulses, [&](std::size_t t) {
    const std::size_t s = t / n_pulses;
    const std::size_t i = t % n_pulses;
    runs[s].points[i] = run_trial(
        base, base.seed + static_cast<std::uint64_t>(s),
        static_cast<int>(i) + 1,
        base.collect_metrics || base.collect_stability ? &trial_metrics[t]
                                                       : nullptr,
        base.profile ? &trial_profiles[t] : nullptr);
  });

  SweepResult out;
  // Canonical (point, seed) merge order regardless of completion order.
  for (std::size_t i = 0; i < n_pulses; ++i) {
    for (std::size_t s = 0; s < n_seeds; ++s) {
      out.metrics.merge(trial_metrics[s * n_pulses + i]);
      out.profile.merge(trial_profiles[s * n_pulses + i]);
    }
  }
  for (int n = 1; n <= max_pulses; ++n) {
    const std::size_t i = static_cast<std::size_t>(n - 1);
    std::vector<double> conv, intended;
    std::vector<std::uint64_t> msgs;
    int suppressed_votes = 0;
    bool horizon = false;
    for (const auto& run : runs) {
      conv.push_back(run.points[i].convergence_s);
      intended.push_back(run.points[i].intended_convergence_s);
      msgs.push_back(run.points[i].messages);
      suppressed_votes += run.points[i].isp_suppressed ? 1 : 0;
      horizon |= run.points[i].hit_horizon;
    }
    SweepPoint pt;
    pt.pulses = n;
    pt.convergence_s = median(conv);
    pt.messages = median(msgs);
    pt.intended_convergence_s = median(intended);
    pt.isp_suppressed = suppressed_votes * 2 > seeds;
    pt.hit_horizon = horizon;
    out.points.push_back(pt);
  }
  return out;
}

FaultSweepResult run_fault_storm_sweep(const ExperimentConfig& base,
                                       const std::vector<double>& rates,
                                       int seeds, ParallelRunner* runner) {
  if (seeds < 1) throw std::invalid_argument("fault sweep: seeds < 1");
  if (rates.empty()) throw std::invalid_argument("fault sweep: no rates");
  if (!base.faults || !base.faults->storm) {
    throw std::invalid_argument("fault sweep: base config needs a storm plan");
  }
  const std::size_t n_rates = rates.size();
  const auto n_seeds = static_cast<std::size_t>(seeds);

  struct Trial {
    ExperimentResult res;
    obs::Registry metrics;
    sim::EngineProfile profile;
  };
  std::vector<Trial> trials(n_rates * n_seeds);
  ParallelRunner& pool = runner ? *runner : ParallelRunner::shared();
  pool.for_each(trials.size(), [&](std::size_t t) {
    const std::size_t i = t / n_seeds;
    const std::size_t s = t % n_seeds;
    ExperimentConfig cfg = base;
    cfg.faults->storm->rate_per_s = rates[i];
    cfg.seed = base.seed + static_cast<std::uint64_t>(s);
    if (base.trace_path) {
      cfg.trace_path = *base.trace_path + ".f" + std::to_string(i) + ".s" +
                       std::to_string(cfg.seed);
    }
    trials[t].res = run_experiment(cfg);
    if (base.collect_metrics || base.collect_stability) {
      trials[t].metrics = std::move(trials[t].res.metrics);
    }
    if (base.profile) trials[t].profile = trials[t].res.profile;
  });

  FaultSweepResult out;
  // Canonical (rate, seed) merge order regardless of completion order.
  for (const auto& t : trials) {
    out.metrics.merge(t.metrics);
    out.profile.merge(t.profile);
  }
  for (std::size_t i = 0; i < n_rates; ++i) {
    std::vector<double> conv, share;
    std::vector<std::uint64_t> msgs, faults, dropped;
    bool horizon = false;
    for (std::size_t s = 0; s < n_seeds; ++s) {
      const ExperimentResult& r = trials[i * n_seeds + s].res;
      conv.push_back(r.convergence_time_s);
      msgs.push_back(r.message_count);
      faults.push_back(r.faults_injected);
      dropped.push_back(r.dropped_count);
      const double sessions = 2.0 * static_cast<double>(r.link_count);
      share.push_back(sessions > 0
                          ? static_cast<double>(r.suppress_events) / sessions
                          : 0.0);
      horizon |= r.hit_horizon;
    }
    FaultSweepPoint pt;
    pt.rate_per_s = rates[i];
    pt.convergence_s = median(conv);
    pt.messages = median(msgs);
    pt.faults = median(faults);
    pt.dropped = median(dropped);
    pt.suppression_share = median(share);
    pt.hit_horizon = horizon;
    out.points.push_back(pt);
  }
  return out;
}

}  // namespace rfdnet::core
