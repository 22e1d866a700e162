// Analytic–simulation agreement: the §3 intended-behavior model and the
// full event-driven simulation must agree wherever the model's assumptions
// hold exactly — at ispAS, whose RIB-IN entry for the origin sees precisely
// the flap pattern (no path exploration can reach it).

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "core/experiment.hpp"
#include "core/intended.hpp"

namespace rfdnet::core {
namespace {

struct Case {
  const char* name;
  rfd::DampingParams params;
  int pulses;
  double interval_s;
};

// Prints a case by its flap pattern. gtest's fallback would dump Case's raw
// bytes, which start with the address of `name`; under ASLR that address
// changes from run to run, and so did the ctest names discovered from it.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "n=" << c.pulses << ", interval=" << c.interval_s << "s";
}

class AgreementProperty : public ::testing::TestWithParam<Case> {};

TEST_P(AgreementProperty, IspPenaltySequenceMatchesModel) {
  const Case& c = GetParam();

  ExperimentConfig cfg;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.damping = c.params;
  cfg.pulses = c.pulses;
  cfg.flap_interval_s = c.interval_s;
  cfg.seed = 7;
  cfg.record_all_penalties = true;
  const auto res = run_experiment(cfg);

  // The model's charged events: withdrawals always, announcements only when
  // the re-announcement penalty is nonzero (zero-increment updates emit no
  // penalty event in the simulation).
  const IntendedBehaviorModel model(c.params);
  const auto pred = model.predict(FlapPattern{c.pulses, c.interval_s});
  std::vector<std::pair<double, double>> expected;
  for (std::size_t i = 0; i < pred.penalty_events.size(); ++i) {
    const bool is_withdrawal = (i % 2 == 0);
    if (is_withdrawal || c.params.reannouncement_penalty > 0) {
      expected.push_back(pred.penalty_events[i]);
    }
  }

  std::vector<std::pair<double, double>> observed;
  for (const auto& e : res.penalty_events) {
    if (e.node == res.isp && e.peer == res.origin) {
      observed.emplace_back(e.t_s, e.value);
    }
  }

  ASSERT_EQ(observed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    // Updates reach ispAS one propagation+processing delay after the flap.
    EXPECT_NEAR(observed[i].first, expected[i].first, 1.0) << "event " << i;
    EXPECT_NEAR(observed[i].second, expected[i].second,
                0.005 * expected[i].second + 1.0)
        << "event " << i;
  }

  // Suppression verdicts agree.
  EXPECT_EQ(res.isp_suppressed, pred.ever_suppressed);
  if (pred.suppressed_at_stop) {
    ASSERT_TRUE(res.isp_reuse_s.has_value());
    const double expected_reuse = res.stop_time_s + pred.reuse_delay_s;
    EXPECT_NEAR(*res.isp_reuse_s, expected_reuse, 0.01 * expected_reuse + 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AgreementProperty,
    ::testing::Values(Case{"cisco_n1", rfd::DampingParams::cisco(), 1, 60.0},
                      Case{"cisco_n3", rfd::DampingParams::cisco(), 3, 60.0},
                      Case{"cisco_n5", rfd::DampingParams::cisco(), 5, 60.0},
                      Case{"cisco_n10", rfd::DampingParams::cisco(), 10, 60.0},
                      Case{"cisco_fast", rfd::DampingParams::cisco(), 5, 15.0},
                      Case{"cisco_slow", rfd::DampingParams::cisco(), 5, 300.0},
                      Case{"juniper_n2", rfd::DampingParams::juniper(), 2, 60.0},
                      Case{"juniper_n5", rfd::DampingParams::juniper(), 5, 60.0},
                      Case{"juniper_n10", rfd::DampingParams::juniper(), 10,
                           60.0}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace rfdnet::core
