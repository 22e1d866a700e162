// Property tests for the observability layer under parallel sweeps: the
// merged metrics registry and every per-trial JSONL trace must come out
// identical whether the trials run serially or through the thread pool —
// metrics merge in canonical (point, seed) order, traces in per-trial files.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/parallel.hpp"
#include "core/sweep.hpp"

namespace rfdnet::core {
namespace {

ExperimentConfig obs_config(const std::string& trace_base) {
  ExperimentConfig cfg;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.seed = 7;
  cfg.collect_metrics = true;
  cfg.trace_path = trace_base;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing trace file: " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Per-trial trace file name as derived in sweep.cpp.
std::string trial_trace(const std::string& base, int pulses,
                        std::uint64_t seed) {
  return base + ".p" + std::to_string(pulses) + ".s" + std::to_string(seed);
}

bool same_points(const SweepResult& a, const SweepResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].pulses != b.points[i].pulses ||
        a.points[i].convergence_s != b.points[i].convergence_s ||
        a.points[i].messages != b.points[i].messages) {
      return false;
    }
  }
  return true;
}

TEST(ObsDeterminism, SerialRerunProducesIdenticalMetricsAndTraces) {
  const std::string base_a = ::testing::TempDir() + "obs_rerun_a";
  const std::string base_b = ::testing::TempDir() + "obs_rerun_b";
  ParallelRunner serial(1);
  const SweepResult a =
      run_pulse_sweep_median(obs_config(base_a), 2, 1, &serial);
  const SweepResult b =
      run_pulse_sweep_median(obs_config(base_b), 2, 1, &serial);
  EXPECT_FALSE(a.metrics.empty());
  EXPECT_EQ(a.metrics.json(), b.metrics.json());
  for (int p = 1; p <= 2; ++p) {
    EXPECT_EQ(slurp(trial_trace(base_a, p, 7)), slurp(trial_trace(base_b, p, 7)));
  }
}

TEST(ObsDeterminism, PoolMatchesSerialOnPulseSweep) {
  const std::string base_s = ::testing::TempDir() + "obs_sweep_serial";
  const std::string base_p = ::testing::TempDir() + "obs_sweep_pool";
  ParallelRunner serial(1);
  ParallelRunner pool(4);
  const SweepResult a =
      run_pulse_sweep_median(obs_config(base_s), 3, 1, &serial);
  const SweepResult b =
      run_pulse_sweep_median(obs_config(base_p), 3, 1, &pool);
  EXPECT_TRUE(same_points(a, b));
  EXPECT_FALSE(a.metrics.empty());
  EXPECT_EQ(a.metrics.json(), b.metrics.json());
  // Identical traces trial by trial (only the file names differ).
  for (int p = 1; p <= 3; ++p) {
    const std::string ta = slurp(trial_trace(base_s, p, 7));
    const std::string tb = slurp(trial_trace(base_p, p, 7));
    EXPECT_FALSE(ta.empty());
    EXPECT_EQ(ta, tb) << "trace mismatch at pulses=" << p;
  }
}

TEST(ObsDeterminism, PoolMatchesSerialOnMedianSweep) {
  const std::string base_s = ::testing::TempDir() + "obs_median_serial";
  const std::string base_p = ::testing::TempDir() + "obs_median_pool";
  ParallelRunner serial(1);
  ParallelRunner pool(4);
  const SweepResult a =
      run_pulse_sweep_median(obs_config(base_s), 2, 2, &serial);
  const SweepResult b = run_pulse_sweep_median(obs_config(base_p), 2, 2, &pool);
  EXPECT_TRUE(same_points(a, b));
  EXPECT_FALSE(a.metrics.empty());
  EXPECT_EQ(a.metrics.json(), b.metrics.json());
  for (int p = 1; p <= 2; ++p) {
    for (std::uint64_t s = 7; s <= 8; ++s) {
      EXPECT_EQ(slurp(trial_trace(base_s, p, s)),
                slurp(trial_trace(base_p, p, s)))
          << "trace mismatch at pulses=" << p << " seed=" << s;
    }
  }
}

TEST(ObsDeterminism, SpanAndPhaseRecordsAppearInJsonlTraces) {
  const std::string base = ::testing::TempDir() + "obs_span_jsonl";
  ParallelRunner serial(1);
  ExperimentConfig cfg = obs_config(base);
  run_pulse_sweep_median(cfg, 3, 1, &serial);
  const std::string t = slurp(trial_trace(base, 3, 7));
  // The causal tree and the phase timelines ride in the same event log.
  EXPECT_NE(t.find("\"type\":\"span\""), std::string::npos);
  EXPECT_NE(t.find("\"kind\":\"flap.withdraw\""), std::string::npos);
  EXPECT_NE(t.find("\"kind\":\"rfd.suppress\""), std::string::npos);
  EXPECT_NE(t.find("\"type\":\"phase\""), std::string::npos);
  EXPECT_NE(t.find("\"phase\":\"suppression\""), std::string::npos);
}

TEST(ObsDeterminism, PoolMatchesSerialOnChromeTraces) {
  const std::string base_s = ::testing::TempDir() + "obs_chrome_serial";
  const std::string base_p = ::testing::TempDir() + "obs_chrome_pool";
  ParallelRunner serial(1);
  ParallelRunner pool(4);
  ExperimentConfig cfg_s = obs_config(base_s);
  ExperimentConfig cfg_p = obs_config(base_p);
  cfg_s.trace_format = obs::TraceFormat::kChrome;
  cfg_p.trace_format = obs::TraceFormat::kChrome;
  run_pulse_sweep_median(cfg_s, 3, 1, &serial);
  run_pulse_sweep_median(cfg_p, 3, 1, &pool);
  for (int p = 1; p <= 3; ++p) {
    const std::string ta = slurp(trial_trace(base_s, p, 7));
    const std::string tb = slurp(trial_trace(base_p, p, 7));
    EXPECT_FALSE(ta.empty());
    EXPECT_EQ(ta, tb) << "chrome trace mismatch at pulses=" << p;
    EXPECT_EQ(ta.rfind("{\"displayTimeUnit\"", 0), 0u);
  }
}

TEST(ObsDeterminism, PoolMatchesSerialOnProfileCounts) {
  ParallelRunner serial(1);
  ParallelRunner pool(4);
  ExperimentConfig cfg;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.seed = 7;
  cfg.profile = true;
  const SweepResult a = run_pulse_sweep_median(cfg, 2, 2, &serial);
  const SweepResult b = run_pulse_sweep_median(cfg, 2, 2, &pool);
  EXPECT_FALSE(a.profile.empty());
  EXPECT_GT(a.profile.row(sim::EventKind::kDelivery).fired, 0u);
  EXPECT_GT(a.profile.row(sim::EventKind::kFlap).fired, 0u);
  // The deterministic artifact (counts, no wall time) is byte-identical.
  EXPECT_EQ(a.profile.json(), b.profile.json());
  // So are the interning counters: every run interns into a fresh table of
  // its own network, whichever worker runs it and whatever ran there before.
  EXPECT_GT(a.profile.alloc.node_builds, 0u);
  EXPECT_EQ(a.profile.alloc.intern_requests, b.profile.alloc.intern_requests);
  EXPECT_EQ(a.profile.alloc.node_builds, b.profile.alloc.node_builds);
  EXPECT_EQ(a.profile.alloc.prepend_hits, b.profile.alloc.prepend_hits);
  // Wall time is the one field allowed to differ; it never reaches the
  // artifact but must have been measured.
  EXPECT_GT(a.profile.row(sim::EventKind::kDelivery).wall_ns, 0u);
}

TEST(ObsDeterminism, ProfileOffLeavesProfileEmpty) {
  ParallelRunner serial(1);
  ExperimentConfig cfg;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.seed = 7;
  const SweepResult r = run_pulse_sweep_median(cfg, 1, 1, &serial);
  EXPECT_TRUE(r.profile.empty());
}

TEST(ObsDeterminism, MetricsOffLeavesRegistryEmpty) {
  ParallelRunner serial(1);
  ExperimentConfig cfg;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.seed = 7;
  const SweepResult r = run_pulse_sweep_median(cfg, 1, 1, &serial);
  EXPECT_TRUE(r.metrics.empty());
}

}  // namespace
}  // namespace rfdnet::core
