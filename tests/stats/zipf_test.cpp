#include "stats/zipf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace rfdnet::stats {
namespace {

TEST(ZipfSampler, RejectsBadParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.5), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_NO_THROW(ZipfSampler(1, 0.0));  // both edges at once
}

TEST(ZipfSampler, ProbabilitiesSumToOneAndAreMonotone) {
  const ZipfSampler z(1000, 1.0);
  double sum = 0.0;
  for (std::size_t k = 0; k < z.size(); ++k) {
    const double p = z.probability(k);
    EXPECT_GT(p, 0.0);
    if (k > 0) {
      EXPECT_LE(p, z.probability(k - 1) + 1e-15);
    }
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_THROW(z.probability(1000), std::out_of_range);
}

TEST(ZipfSampler, AlphaZeroIsUniform) {
  const ZipfSampler z(64, 0.0);
  for (std::size_t k = 0; k < 64; ++k) {
    EXPECT_NEAR(z.probability(k), 1.0 / 64.0, 1e-12);
  }
  // Empirical check: no index should be wildly over/under-represented.
  sim::Rng rng(42);
  std::vector<int> counts(64, 0);
  constexpr int kDraws = 64000;
  for (int i = 0; i < kDraws; ++i) ++counts[z.sample(rng)];
  for (const int c : counts) {
    EXPECT_GT(c, 500);   // expectation 1000
    EXPECT_LT(c, 1500);
  }
}

TEST(ZipfSampler, SkewConcentratesMassOnTheHead) {
  const ZipfSampler z(10000, 1.2);
  sim::Rng rng(7);
  int head = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (z.sample(rng) < 100) ++head;  // top 1% of the table
  }
  // With alpha = 1.2 the top 100 ranks carry well over half the mass.
  EXPECT_GT(head, kDraws / 2);
}

TEST(ZipfSampler, SamplesStayInRange) {
  const ZipfSampler z(3, 2.0);
  sim::Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.sample(rng), 3u);
}

TEST(ZipfSampler, DeterministicForEqualSeeds) {
  const ZipfSampler z(500, 0.8);
  sim::Rng a(99);
  sim::Rng b(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(z.sample(a), z.sample(b));
}

TEST(ZipfSampler, SingleEntryConsumesNoRandomness) {
  const ZipfSampler z(1, 1.5);
  EXPECT_EQ(z.probability(0), 1.0);
  sim::Rng rng(5);
  sim::Rng untouched(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(rng), 0u);
  // The stream was never advanced: both generators continue identically, so
  // a single-prefix workload replays byte-identically against code that
  // never sampled at all.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

}  // namespace
}  // namespace rfdnet::stats
