// ParallelRunner unit tests plus the cross-run determinism guarantee: the
// same ExperimentConfig produces byte-identical SweepResults run serially
// twice and through the thread pool — the one-Engine/one-Rng-per-trial
// invariant the sweeps rely on.

#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/sweep.hpp"

namespace rfdnet::core {
namespace {

TEST(ParallelRunner, RunsEveryTaskExactlyOnce) {
  ParallelRunner runner(4);
  EXPECT_EQ(runner.threads(), 4);
  std::vector<std::atomic<int>> hits(257);
  runner.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, SingleThreadRunsInline) {
  ParallelRunner runner(1);
  std::vector<std::size_t> order;
  runner.for_each(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunner, ZeroTasksIsNoOp) {
  ParallelRunner runner(2);
  runner.for_each(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelRunner, ReusableAcrossBatches) {
  ParallelRunner runner(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    runner.for_each(17, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 20 * 17);
}

TEST(ParallelRunner, PropagatesFirstException) {
  ParallelRunner runner(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(runner.for_each(64,
                               [&](std::size_t i) {
                                 if (i % 13 == 5) {
                                   throw std::runtime_error("trial failed");
                                 }
                                 ++completed;
                               }),
               std::runtime_error);
  // The batch drains fully before rethrowing: no task is abandoned.
  // Throwing tasks: i in {5, 18, 31, 44, 57}.
  EXPECT_EQ(completed.load(), 64 - 5);
}

TEST(ParallelRunner, ReentrantForEachRunsInline) {
  ParallelRunner runner(2);
  std::atomic<int> inner_total{0};
  runner.for_each(4, [&](std::size_t) {
    runner.for_each(8, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ParallelRunner, DefaultJobsOverride) {
  ParallelRunner::set_default_jobs(3);
  EXPECT_EQ(ParallelRunner::default_jobs(), 3);
  ParallelRunner runner;
  EXPECT_EQ(runner.threads(), 3);
  ParallelRunner::set_default_jobs(0);  // back to env/hardware resolution
  EXPECT_GE(ParallelRunner::default_jobs(), 1);
}

TEST(ParallelRunner, ConfigureFromArgs) {
  const char* argv[] = {"bench", "--jobs", "5"};
  ParallelRunner::configure_from_args(3, argv);
  EXPECT_EQ(ParallelRunner::default_jobs(), 5);
  const char* argv2[] = {"bench", "--jobs=7"};
  ParallelRunner::configure_from_args(2, argv2);
  EXPECT_EQ(ParallelRunner::default_jobs(), 7);
  ParallelRunner::set_default_jobs(0);
}

TEST(ParallelRunner, ConfigureFromArgsRejectsInvalid) {
  // Other tests in this binary leave pool threads alive; fork+exec style
  // keeps the death-test children clean.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // An explicit bad value must not silently fall back to hardware
  // concurrency — the caller asked for something specific and typo'd it.
  const char* garbage[] = {"bench", "--jobs", "abc"};
  EXPECT_EXIT(ParallelRunner::configure_from_args(3, garbage),
              testing::ExitedWithCode(2), "invalid value 'abc' for --jobs");
  const char* zero[] = {"bench", "--jobs", "0"};
  EXPECT_EXIT(ParallelRunner::configure_from_args(3, zero),
              testing::ExitedWithCode(2), "invalid value '0' for --jobs");
  const char* negative[] = {"bench", "--jobs=-2"};
  EXPECT_EXIT(ParallelRunner::configure_from_args(2, negative),
              testing::ExitedWithCode(2), "invalid value '-2' for --jobs");
  const char* missing[] = {"bench", "--jobs"};
  EXPECT_EXIT(ParallelRunner::configure_from_args(2, missing),
              testing::ExitedWithCode(2), "missing value for --jobs");
  const char* flaglike[] = {"bench", "--jobs", "--metrics"};
  EXPECT_EXIT(ParallelRunner::configure_from_args(3, flaglike),
              testing::ExitedWithCode(2), "missing value for --jobs");
}

TEST(ParallelRunner, GarbageEnvVarWarnsAndFallsBack) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Run in the death-test child so the setenv and the warn-once latch do
  // not leak into other tests in this process.
  EXPECT_EXIT(
      {
        setenv("RFDNET_JOBS", "lots", 1);
        ParallelRunner::set_default_jobs(0);
        const int jobs = ParallelRunner::default_jobs();
        ParallelRunner::default_jobs();  // second call: no second warning
        std::exit(jobs >= 1 ? 0 : 1);
      },
      testing::ExitedWithCode(0), "ignoring invalid RFDNET_JOBS='lots'");
}

bool identical(const SweepResult& a, const SweepResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const SweepPoint& x = a.points[i];
    const SweepPoint& y = b.points[i];
    // Exact comparison on the doubles: determinism means bit-identical.
    if (x.pulses != y.pulses || x.convergence_s != y.convergence_s ||
        x.messages != y.messages ||
        x.intended_convergence_s != y.intended_convergence_s ||
        x.isp_suppressed != y.isp_suppressed ||
        x.hit_horizon != y.hit_horizon) {
      return false;
    }
  }
  return true;
}

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.seed = 7;
  return cfg;
}

TEST(SweepDeterminism, SerialRerunIsIdentical) {
  ParallelRunner serial(1);
  const ExperimentConfig cfg = small_config();
  const SweepResult a = run_pulse_sweep_median(cfg, 3, 3, &serial);
  const SweepResult b = run_pulse_sweep_median(cfg, 3, 3, &serial);
  EXPECT_TRUE(identical(a, b));
}

TEST(SweepDeterminism, ParallelMatchesSerial) {
  ParallelRunner serial(1);
  ParallelRunner pool(4);
  const ExperimentConfig cfg = small_config();
  const SweepResult a = run_pulse_sweep_median(cfg, 3, 3, &serial);
  const SweepResult b = run_pulse_sweep_median(cfg, 3, 3, &pool);
  EXPECT_TRUE(identical(a, b));

  const SweepResult c = run_pulse_sweep_median(cfg, 3, 1, &serial);
  const SweepResult d = run_pulse_sweep_median(cfg, 3, 1, &pool);
  EXPECT_TRUE(identical(c, d));
}

}  // namespace
}  // namespace rfdnet::core
