#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/intended.hpp"
#include "core/sharded.hpp"
#include "core/sweep.hpp"

namespace rfdnet::core {
namespace {

ExperimentConfig small_mesh(int pulses) {
  ExperimentConfig cfg;
  cfg.topology.kind = TopologySpec::Kind::kMeshTorus;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.pulses = pulses;
  cfg.seed = 1;
  return cfg;
}

TEST(TopologySpec, BuildsEveryKind) {
  sim::Rng rng(1);
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kMeshTorus;
  EXPECT_EQ(spec.build(rng).node_count(), 100u);
  spec.kind = TopologySpec::Kind::kLine;
  spec.nodes = 7;
  EXPECT_EQ(spec.build(rng).node_count(), 7u);
  spec.kind = TopologySpec::Kind::kRing;
  EXPECT_EQ(spec.build(rng).link_count(), 7u);
  spec.kind = TopologySpec::Kind::kClique;
  EXPECT_EQ(spec.build(rng).link_count(), 21u);
  spec.kind = TopologySpec::Kind::kRandom;
  EXPECT_TRUE(spec.build(rng).connected());
  spec.kind = TopologySpec::Kind::kInternetLike;
  spec.nodes = 30;
  EXPECT_TRUE(spec.build(rng).connected());
}

TEST(TopologySpec, ToStringNamesKind) {
  TopologySpec spec;
  EXPECT_NE(spec.to_string().find("mesh"), std::string::npos);
  spec.kind = TopologySpec::Kind::kInternetLike;
  EXPECT_NE(spec.to_string().find("internet"), std::string::npos);
}

TEST(Experiment, RejectsBadConfig) {
  ExperimentConfig cfg = small_mesh(1);
  cfg.pulses = -1;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg = small_mesh(1);
  cfg.flap_interval_s = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg = small_mesh(1);
  cfg.deployment = 1.5;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg = small_mesh(1);
  cfg.isp = 999;  // out of range
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(Experiment, ZeroPulsesIsQuiet) {
  const auto res = run_experiment(small_mesh(0));
  EXPECT_EQ(res.message_count, 0u);
  EXPECT_DOUBLE_EQ(res.convergence_time_s, 0.0);
  EXPECT_EQ(res.suppress_events, 0u);
}

TEST(Experiment, OriginAttachedToIsp) {
  ExperimentConfig cfg = small_mesh(1);
  cfg.isp = 3;
  const auto res = run_experiment(cfg);
  EXPECT_EQ(res.isp, 3u);
  EXPECT_EQ(res.origin, 25u);  // appended after the 25 mesh nodes
}

TEST(Experiment, ProbeDistanceRespected) {
  ExperimentConfig cfg = small_mesh(1);
  cfg.probe_distance = 3;
  const auto res = run_experiment(cfg);
  EXPECT_EQ(res.probe_hops, 3u);
}

TEST(Experiment, ProbeDistanceCappedAtEccentricity) {
  ExperimentConfig cfg = small_mesh(1);
  cfg.probe_distance = 99;  // 5x5 torus eccentricity from origin is 5
  const auto res = run_experiment(cfg);
  EXPECT_EQ(res.probe_hops, 5u);
}

TEST(Experiment, NoDampingConvergesFast) {
  ExperimentConfig cfg = small_mesh(1);
  cfg.damping.reset();
  const auto res = run_experiment(cfg);
  EXPECT_EQ(res.suppress_events, 0u);
  EXPECT_LT(res.convergence_time_s, 300.0);
  EXPECT_GT(res.message_count, 0u);
  EXPECT_FALSE(res.hit_horizon);
}

TEST(Experiment, DampingCausesFalseSuppressionOnSingleFlap) {
  // The paper's headline: one flap triggers suppression across the network
  // and convergence takes thousands of seconds instead of t_up.
  const auto res = run_experiment(small_mesh(1));
  EXPECT_GT(res.suppress_events, 10u);
  EXPECT_FALSE(res.isp_suppressed);  // a single flap never suppresses at isp
  EXPECT_GT(res.convergence_time_s, 1000.0);
  EXPECT_GT(res.silent_reuses + res.noisy_reuses, 0u);
}

TEST(Experiment, IspSuppressesAtThirdPulse) {
  EXPECT_FALSE(run_experiment(small_mesh(2)).isp_suppressed);
  const auto res = run_experiment(small_mesh(3));
  EXPECT_TRUE(res.isp_suppressed);
  ASSERT_TRUE(res.isp_reuse_s.has_value());
  // RT_h: suppressed at the 3rd withdrawal (t = 240), reused when the
  // penalty decays from ~2744 to 750.
  const IntendedBehaviorModel model(rfd::DampingParams::cisco());
  const auto pred = model.predict(FlapPattern{3, 60.0});
  const double expected =
      240.0 + std::log(pred.penalty_at_stop /
                       std::exp(-model.params().lambda() * 60.0) / 750.0) /
                  model.params().lambda();
  EXPECT_NEAR(*res.isp_reuse_s, expected, 30.0);
}

TEST(Experiment, MufflingMakesMostReusesSilent) {
  const auto res = run_experiment(small_mesh(6));
  EXPECT_GT(res.silent_reuses, 5 * res.noisy_reuses);
}

TEST(Experiment, LargePulseCountMatchesIntendedConvergence) {
  ExperimentConfig cfg = small_mesh(8);
  const auto res = run_experiment(cfg);
  const IntendedBehaviorModel model(*cfg.damping);
  const double intended = model.intended_convergence_s(
      FlapPattern{8, cfg.flap_interval_s}, res.warmup_tup_s);
  EXPECT_NEAR(res.convergence_time_s, intended, 0.3 * intended);
}

TEST(Experiment, RcnPreventsFalseSuppression) {
  ExperimentConfig cfg = small_mesh(1);
  cfg.rcn = true;
  const auto res = run_experiment(cfg);
  EXPECT_EQ(res.suppress_events, 0u);
  EXPECT_LT(res.convergence_time_s, 300.0);
}

TEST(Experiment, RcnMatchesIntendedAtThreePulses) {
  ExperimentConfig cfg = small_mesh(3);
  cfg.rcn = true;
  const auto res = run_experiment(cfg);
  EXPECT_TRUE(res.isp_suppressed);
  const IntendedBehaviorModel model(*cfg.damping);
  const double intended = model.intended_convergence_s(
      FlapPattern{3, cfg.flap_interval_s}, res.warmup_tup_s);
  EXPECT_NEAR(res.convergence_time_s, intended, 0.2 * intended + 30.0);
}

TEST(Experiment, MaxPenaltyStaysFarBelowCeiling) {
  // §5.2: path exploration cannot come close to the 12000 ceiling.
  const auto res = run_experiment(small_mesh(1));
  EXPECT_LT(res.max_penalty, 8000.0);
  EXPECT_GT(res.max_penalty, 2000.0);  // but it does cross the cutoff
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = run_experiment(small_mesh(2));
  const auto b = run_experiment(small_mesh(2));
  EXPECT_EQ(a.message_count, b.message_count);
  EXPECT_DOUBLE_EQ(a.convergence_time_s, b.convergence_time_s);
  EXPECT_EQ(a.suppress_events, b.suppress_events);
}

TEST(Experiment, DifferentSeedsDiffer) {
  ExperimentConfig cfg = small_mesh(1);
  const auto a = run_experiment(cfg);
  cfg.seed = 99;
  const auto b = run_experiment(cfg);
  EXPECT_NE(a.message_count, b.message_count);
}

TEST(Experiment, PhasesStartWithChargingEndWithConverged) {
  const auto res = run_experiment(small_mesh(1));
  ASSERT_GE(res.phases.size(), 2u);
  EXPECT_EQ(res.phases.front().kind, stats::PhaseKind::kCharging);
  EXPECT_EQ(res.phases.back().kind, stats::PhaseKind::kConverged);
}

TEST(Experiment, PenaltyTraceRecordedAtProbe) {
  const auto res = run_experiment(small_mesh(1));
  EXPECT_FALSE(res.penalty_trace.empty());
  for (const auto& [t, v] : res.penalty_trace) {
    EXPECT_GE(t, 0.0);
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 12000.0);
  }
}

TEST(Experiment, FreezeAblationShortensConvergence) {
  const auto full = run_experiment(small_mesh(1));
  ExperimentConfig cfg = small_mesh(1);
  cfg.freeze_penalties_after_s = full.phases.front().t1_s;
  const auto frozen = run_experiment(cfg);
  EXPECT_LT(frozen.convergence_time_s, full.convergence_time_s);
  EXPECT_GT(frozen.convergence_time_s, 500.0);  // exploration effect remains
}

TEST(Experiment, ZeroDeploymentEqualsNoDamping) {
  ExperimentConfig cfg = small_mesh(2);
  cfg.deployment = 0.0;
  const auto res = run_experiment(cfg);
  EXPECT_EQ(res.suppress_events, 0u);
  EXPECT_LT(res.convergence_time_s, 300.0);
}

TEST(Experiment, UpdateLogRecordedWhenRequested) {
  ExperimentConfig cfg = small_mesh(1);
  cfg.record_update_log = true;
  cfg.record_all_penalties = true;
  const auto res = run_experiment(cfg);
  EXPECT_EQ(res.update_log.size(), res.message_count);
  EXPECT_FALSE(res.penalty_events.empty());
  EXPECT_EQ(res.suppressions.size(), res.suppress_events);
  EXPECT_EQ(res.reuses.size(), res.noisy_reuses + res.silent_reuses);
}

TEST(Experiment, FlapScheduleRecorded) {
  const auto res = run_experiment(small_mesh(2));
  ASSERT_EQ(res.flap_schedule.size(), 4u);
  EXPECT_DOUBLE_EQ(res.flap_schedule[0].first, 0.0);
  EXPECT_TRUE(res.flap_schedule[0].second);   // withdrawal
  EXPECT_FALSE(res.flap_schedule[3].second);  // final announcement
  EXPECT_DOUBLE_EQ(res.flap_schedule[3].first, res.stop_time_s);
}

TEST(Experiment, FlapJitterPerturbsSchedule) {
  ExperimentConfig cfg = small_mesh(3);
  cfg.flap_jitter = 0.5;
  const auto res = run_experiment(cfg);
  ASSERT_EQ(res.flap_schedule.size(), 6u);
  bool any_off_grid = false;
  for (std::size_t i = 1; i < res.flap_schedule.size(); ++i) {
    const double gap =
        res.flap_schedule[i].first - res.flap_schedule[i - 1].first;
    EXPECT_GE(gap, 30.0 - 1e-9);
    EXPECT_LE(gap, 90.0 + 1e-9);
    any_off_grid |= std::abs(gap - 60.0) > 1.0;
  }
  EXPECT_TRUE(any_off_grid);
  EXPECT_FALSE(res.hit_horizon);
}

TEST(Experiment, FlapJitterValidation) {
  ExperimentConfig cfg = small_mesh(1);
  cfg.flap_jitter = 1.0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.flap_jitter = -0.1;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(Experiment, BadFlapValuesAreRejectedBeforeTheWarmUp) {
  // The warm-up cannot converge in 1 ms, so a driver that simulated before
  // validating would report the warm-up failure instead of the bad value.
  ExperimentConfig base;
  base.topology.kind = TopologySpec::Kind::kMeshTorus;
  base.max_sim_s = 0.001;
  ExperimentConfig bad_link = base;
  bad_link.flap_link = std::pair<net::NodeId, net::NodeId>{0, 55};
  ExperimentConfig bad_jitter = base;
  bad_jitter.flap_jitter = 1.5;
  for (const ExperimentConfig& cfg : {bad_link, bad_jitter}) {
    EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
    EXPECT_THROW(run_sharded_experiment(cfg, 1), std::invalid_argument);
    EXPECT_THROW(run_sharded_experiment(cfg, 2), std::invalid_argument);
  }
}

TEST(Experiment, NoValleyPolicyRuns) {
  ExperimentConfig cfg;
  cfg.topology.kind = TopologySpec::Kind::kInternetLike;
  cfg.topology.nodes = 40;
  cfg.policy = PolicyKind::kNoValley;
  cfg.pulses = 1;
  cfg.seed = 2;
  const auto res = run_experiment(cfg);
  EXPECT_GT(res.message_count, 0u);
  EXPECT_FALSE(res.hit_horizon);
}

TEST(PolicyKindNames, ToString) {
  EXPECT_EQ(to_string(PolicyKind::kShortestPath), "shortest-path");
  EXPECT_EQ(to_string(PolicyKind::kNoValley), "no-valley");
}

TEST(Sweep, ProducesPointPerPulse) {
  ExperimentConfig cfg = small_mesh(1);
  cfg.damping.reset();
  const auto sweep = run_pulse_sweep(cfg, 4);
  ASSERT_EQ(sweep.points.size(), 4u);
  for (int n = 1; n <= 4; ++n) {
    EXPECT_EQ(sweep.points[n - 1].pulses, n);
  }
  // No damping: message count grows with pulses.
  EXPECT_GT(sweep.points[3].messages, sweep.points[0].messages);
}

TEST(Sweep, IntendedColumnComesFromModel) {
  ExperimentConfig cfg = small_mesh(1);
  const auto sweep = run_pulse_sweep(cfg, 3);
  EXPECT_FALSE(sweep.points[0].isp_suppressed);
  EXPECT_TRUE(sweep.points[2].isp_suppressed);
  EXPECT_GT(sweep.points[2].intended_convergence_s,
            sweep.points[0].intended_convergence_s);
}

TEST(Sweep, MedianAcrossSeedsIsDeterministic) {
  ExperimentConfig cfg = small_mesh(1);
  cfg.damping.reset();
  const auto a = run_pulse_sweep_median(cfg, 2, 3);
  const auto b = run_pulse_sweep_median(cfg, 2, 3);
  ASSERT_EQ(a.points.size(), 2u);
  EXPECT_EQ(a.points[0].messages, b.points[0].messages);
  EXPECT_DOUBLE_EQ(a.points[1].convergence_s, b.points[1].convergence_s);
}

TEST(Sweep, RejectsBadSeedCount) {
  EXPECT_THROW(run_pulse_sweep_median(small_mesh(1), 2, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace rfdnet::core
