#include "core/export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/sweep.hpp"

namespace rfdnet::core {
namespace {

ExperimentResult sample_result() {
  ExperimentConfig cfg;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.pulses = 1;
  cfg.seed = 1;
  return run_experiment(cfg);
}

std::size_t count_lines(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

TEST(Export, SummaryCsvHasHeaderAndOneRow) {
  const auto res = sample_result();
  const std::string csv = result_summary_csv(res);
  EXPECT_EQ(count_lines(csv), 2u);
  EXPECT_EQ(csv.find("convergence_s,"), 0u);
  // The row contains the message count verbatim.
  EXPECT_NE(csv.find("," + std::to_string(res.message_count) + ","),
            std::string::npos);
}

TEST(Export, UpdateSeriesCsvMatchesBins) {
  const auto res = sample_result();
  const std::string csv = update_series_csv(res);
  EXPECT_EQ(count_lines(csv), res.update_series.nonzero().size() + 1);
  EXPECT_EQ(csv.find("t_s,count\n"), 0u);
}

TEST(Export, DampedLinksCsvMatchesSteps) {
  const auto res = sample_result();
  const std::string csv = damped_links_csv(res);
  EXPECT_EQ(count_lines(csv), res.damped_links.steps().size() + 1);
}

TEST(Export, PenaltyTraceCsvMatchesTrace) {
  const auto res = sample_result();
  const std::string csv = penalty_trace_csv(res);
  EXPECT_EQ(count_lines(csv), res.penalty_trace.size() + 1);
}

TEST(Export, SweepCsv) {
  ExperimentConfig cfg;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.damping.reset();
  const auto sweep = run_pulse_sweep_median(cfg, 3, 1);
  const std::string csv = sweep_csv(sweep);
  EXPECT_EQ(count_lines(csv), 4u);
  EXPECT_EQ(csv.find("pulses,"), 0u);
}

TEST(Export, JsonIsStructurallySound) {
  const auto res = sample_result();
  const std::string json = result_json(res);
  // Balanced braces/brackets; key fields present.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"convergence_s\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"update_series\""), std::string::npos);
  EXPECT_NE(json.find("\"isp_suppressed\""), std::string::npos);
  // No trailing comma before a closing bracket (cheap sanity check).
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(",}"), std::string::npos);
}

TEST(Export, JsonStreamsIdenticalToString) {
  const auto res = sample_result();
  std::ostringstream os;
  write_result_json(os, res);
  EXPECT_EQ(os.str(), result_json(res));
}

}  // namespace
}  // namespace rfdnet::core
