#include "rfd/params.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace rfdnet::rfd {
namespace {

TEST(DampingParams, CiscoDefaultsMatchTable1) {
  const DampingParams p = DampingParams::cisco();
  EXPECT_DOUBLE_EQ(p.withdrawal_penalty, 1000.0);
  EXPECT_DOUBLE_EQ(p.reannouncement_penalty, 0.0);
  EXPECT_DOUBLE_EQ(p.attr_change_penalty, 500.0);
  EXPECT_DOUBLE_EQ(p.cutoff, 2000.0);
  EXPECT_DOUBLE_EQ(p.reuse, 750.0);
  EXPECT_DOUBLE_EQ(p.half_life_s, 15.0 * 60.0);
  EXPECT_DOUBLE_EQ(p.max_suppress_s, 60.0 * 60.0);
}

TEST(DampingParams, JuniperDefaultsMatchTable1) {
  const DampingParams p = DampingParams::juniper();
  EXPECT_DOUBLE_EQ(p.withdrawal_penalty, 1000.0);
  EXPECT_DOUBLE_EQ(p.reannouncement_penalty, 1000.0);
  EXPECT_DOUBLE_EQ(p.attr_change_penalty, 500.0);
  EXPECT_DOUBLE_EQ(p.cutoff, 3000.0);
  EXPECT_DOUBLE_EQ(p.reuse, 750.0);
  EXPECT_DOUBLE_EQ(p.half_life_s, 15.0 * 60.0);
}

TEST(DampingParams, LambdaFromHalfLife) {
  const DampingParams p = DampingParams::cisco();
  // After one half-life the decay factor is exactly 1/2.
  EXPECT_NEAR(std::exp(-p.lambda() * p.half_life_s), 0.5, 1e-12);
}

TEST(DampingParams, CiscoCeilingIs12000) {
  // The §5.2 figure: one hour of suppression corresponds to penalty 12000.
  EXPECT_NEAR(DampingParams::cisco().ceiling(), 12000.0, 1e-9);
  EXPECT_NEAR(DampingParams::juniper().ceiling(), 12000.0, 1e-9);
}

TEST(DampingParams, DefaultsValidate) {
  EXPECT_NO_THROW(DampingParams::cisco().validate());
  EXPECT_NO_THROW(DampingParams::juniper().validate());
}

TEST(DampingParams, RejectsNegativePenalties) {
  DampingParams p;
  p.withdrawal_penalty = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = DampingParams{};
  p.attr_change_penalty = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = DampingParams{};
  p.reannouncement_penalty = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(DampingParams, RejectsReuseAboveCutoff) {
  DampingParams p;
  p.reuse = 2500;  // above the 2000 cutoff
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = DampingParams{};
  p.cutoff = p.reuse;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(DampingParams, RejectsNonPositiveTimes) {
  DampingParams p;
  p.half_life_s = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = DampingParams{};
  p.max_suppress_s = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = DampingParams{};
  p.reuse_granularity_s = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(DampingParams, RejectsTimesPastTheClock) {
  for (double DampingParams::*field :
       {&DampingParams::half_life_s, &DampingParams::max_suppress_s,
        &DampingParams::reuse_granularity_s}) {
    for (const double v : {1e300, std::numeric_limits<double>::infinity(),
                           std::nan("")}) {
      DampingParams p;
      p.*field = v;
      EXPECT_THROW(p.validate(), std::invalid_argument) << v;
    }
  }
}

TEST(DampingParams, RejectsCeilingBelowCutoff) {
  DampingParams p;
  // Tiny hold-down: ceiling = 750 * 2^(60/900) ~ 786 < cutoff.
  p.max_suppress_s = 60;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(DampingParams, ToStringMentionsKeyValues) {
  const auto s = DampingParams::cisco().to_string();
  EXPECT_NE(s.find("2000"), std::string::npos);
  EXPECT_NE(s.find("750"), std::string::npos);
}

TEST(DampingParams, Equality) {
  EXPECT_EQ(DampingParams::cisco(), DampingParams::cisco());
  EXPECT_NE(DampingParams::cisco(), DampingParams::juniper());
}

}  // namespace
}  // namespace rfdnet::rfd
