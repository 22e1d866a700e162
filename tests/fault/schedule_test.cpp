#include "fault/schedule.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/topology.hpp"

namespace rfdnet::fault {
namespace {

TEST(FaultSchedule, ParsesEveryKind) {
  const auto s = FaultSchedule::parse(
      "@10 link-down 2-3; @20 link-up 2-3; @30 link-flap 4-5 for 15;"
      "@40 reset 0-1 for 2; @50 restart 7 for 10;"
      "@60 perturb for 30 drop=0.1 delay=0.05");
  ASSERT_EQ(s.size(), 6u);
  EXPECT_EQ(s.events[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(s.events[0].t_s, 10.0);
  EXPECT_EQ(s.events[0].u, 2u);
  EXPECT_EQ(s.events[0].v, 3u);
  EXPECT_EQ(s.events[1].kind, FaultKind::kLinkUp);
  EXPECT_EQ(s.events[2].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(s.events[2].duration_s, 15.0);
  EXPECT_EQ(s.events[3].kind, FaultKind::kSessionReset);
  EXPECT_EQ(s.events[3].duration_s, 2.0);
  EXPECT_EQ(s.events[4].kind, FaultKind::kRouterRestart);
  EXPECT_EQ(s.events[4].u, 7u);
  EXPECT_EQ(s.events[5].kind, FaultKind::kPerturb);
  EXPECT_EQ(s.events[5].u, net::kInvalidNode);
  EXPECT_DOUBLE_EQ(s.events[5].drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(s.events[5].extra_delay_s, 0.05);
}

TEST(FaultSchedule, ParsesLinkScopedPerturb) {
  const auto s = FaultSchedule::parse("@5 perturb 2-3 for 10 drop=0.5");
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.events[0].u, 2u);
  EXPECT_EQ(s.events[0].v, 3u);
  EXPECT_DOUBLE_EQ(s.events[0].drop_prob, 0.5);
}

TEST(FaultSchedule, SortsStatementsByTime) {
  const auto s =
      FaultSchedule::parse("@100 link-down 0-1; @5 restart 2; @50 link-up 0-1");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.events[0].t_s, 5.0);
  EXPECT_EQ(s.events[1].t_s, 50.0);
  EXPECT_EQ(s.events[2].t_s, 100.0);
}

TEST(FaultSchedule, RoundTripsThroughToString) {
  const std::string text =
      "@10 link-flap 2-3 for 30; @50 restart 7 for 5; "
      "@60 perturb for 20 drop=0.1 delay=0.05";
  const auto once = FaultSchedule::parse(text);
  const auto twice = FaultSchedule::parse(once.to_string());
  EXPECT_EQ(once.to_string(), twice.to_string());
  ASSERT_EQ(once.size(), twice.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once.events[i].kind, twice.events[i].kind);
    EXPECT_EQ(once.events[i].t_s, twice.events[i].t_s);
    EXPECT_EQ(once.events[i].duration_s, twice.events[i].duration_s);
  }
}

TEST(FaultSchedule, RejectsMalformedInput) {
  EXPECT_THROW(FaultSchedule::parse("link-down 2-3"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("@x link-down 2-3"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("@10 explode 2-3"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("@10 link-down 2"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("@10 link-down 2-2"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("@10 restart"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("@10 perturb for 10"),
               std::invalid_argument);  // no effect configured
  EXPECT_THROW(FaultSchedule::parse("@10 perturb for 10 drop=2"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("@10 reset 0-1 for -5"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("@10 link-down 2-3 drop=0.5"),
               std::invalid_argument);
  // Finite, but past what the microsecond clock holds.
  EXPECT_THROW(FaultSchedule::parse("@1e300 link-flap 2-3 for 30"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("@10 link-flap 2-3 for 1e300"),
               std::invalid_argument);
}

TEST(StormGenerator, RejectsSpansPastTheClock) {
  StormOptions opt;
  opt.mean_down_s = 1e300;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = StormOptions{};
  opt.horizon_s = 2e9;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = StormOptions{};
  opt.extra_delay_s = 1e300;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(FaultSchedule, StopTimeCoversDurations) {
  const auto s = FaultSchedule::parse("@10 link-flap 0-1 for 100; @50 restart 2 for 5");
  EXPECT_DOUBLE_EQ(s.stop_time_s(), 110.0);
  EXPECT_DOUBLE_EQ(FaultSchedule{}.stop_time_s(), 0.0);
}

TEST(StormGenerator, IsDeterministicPerSeed) {
  const net::Graph g = net::make_mesh_torus(4, 4, 0.01);
  StormOptions opt;
  opt.rate_per_s = 0.05;
  opt.horizon_s = 400.0;
  sim::Rng a(42), b(42), c(43);
  const auto s1 = generate_storm(g, opt, a);
  const auto s2 = generate_storm(g, opt, b);
  const auto s3 = generate_storm(g, opt, c);
  EXPECT_EQ(s1.to_string(), s2.to_string());
  EXPECT_NE(s1.to_string(), s3.to_string());
  EXPECT_FALSE(s1.empty());
}

TEST(StormGenerator, EventsStayInHorizonAndValidate) {
  const net::Graph g = net::make_mesh_torus(4, 4, 0.01);
  StormOptions opt;
  opt.rate_per_s = 0.1;
  opt.horizon_s = 300.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed);
    const auto s = generate_storm(g, opt, rng);
    s.validate();
    for (const auto& ev : s.events) {
      EXPECT_GE(ev.t_s, 0.0);
      EXPECT_LT(ev.t_s, opt.horizon_s);
    }
  }
}

TEST(StormGenerator, SparesRequestedNodes) {
  const net::Graph g = net::make_mesh_torus(4, 4, 0.01);
  StormOptions opt;
  opt.rate_per_s = 0.5;
  opt.horizon_s = 500.0;
  sim::Rng rng(7);
  const auto s = generate_storm(g, opt, rng, {0});
  ASSERT_FALSE(s.empty());
  for (const auto& ev : s.events) {
    if (ev.kind == FaultKind::kPerturb) continue;
    EXPECT_NE(ev.u, 0u) << ev.to_string();
    EXPECT_NE(ev.v, 0u) << ev.to_string();
  }
}

TEST(FaultPlan, RequiresExactlyOneSource) {
  const net::Graph g = net::make_mesh_torus(3, 3, 0.01);
  sim::Rng rng(1);
  FaultPlan neither;
  EXPECT_THROW(neither.materialize(g, rng), std::invalid_argument);
  FaultPlan both;
  both.script = "@1 restart 0";
  both.storm = StormOptions{};
  EXPECT_THROW(both.materialize(g, rng), std::invalid_argument);
  FaultPlan scripted;
  scripted.script = "@1 restart 0 for 5";
  EXPECT_EQ(scripted.materialize(g, rng).size(), 1u);
}

}  // namespace
}  // namespace rfdnet::fault
