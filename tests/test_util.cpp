#include <gtest/gtest.h>

#include "util/contract.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace difane {
namespace {

TEST(Contract, ExpectsThrowsOnViolation) {
  EXPECT_NO_THROW(expects(true));
  EXPECT_THROW(expects(false, "boom"), contract_violation);
  EXPECT_THROW(ensures(false), contract_violation);
}

TEST(Rng, UniformBoundsInclusive) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
  }
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  bool all_same = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    all_same = all_same && (va == b.next_u64());
    any_diff = any_diff || (va != c.next_u64());
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, ExponentialMeanRoughlyInverseRate) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 0.01, 0.001);
}

TEST(Rng, ParetoWithinBounds) {
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.pareto(1.0, 100.0, 1.5);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0 + 1e-9);
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(11);
  std::vector<double> weights{1.0, 0.0, 9.0};
  std::size_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0u);
  EXPECT_GT(counts[2], counts[0] * 5);
}

TEST(Zipf, PmfSumsToOneAndIsDecreasing) {
  ZipfDistribution zipf(100, 1.0);
  double sum = 0.0;
  for (std::size_t k = 0; k < 100; ++k) {
    sum += zipf.pmf(k);
    if (k > 0) {
      EXPECT_LE(zipf.pmf(k), zipf.pmf(k - 1) + 1e-12);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, SkewConcentratesMassOnLowRanks) {
  Rng rng(13);
  ZipfDistribution zipf(1000, 1.2);
  std::size_t top10 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.sample(rng) < 10) ++top10;
  }
  // With s=1.2 over 1000 ranks, the top-10 ranks carry well over a third.
  EXPECT_GT(static_cast<double>(top10) / n, 0.35);
}

TEST(OnlineStats, MomentsMatchKnownValues) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SampleSet, PercentilesExact) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100, inserted unsorted
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.01), 1.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(50.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(1000.0), 1.0);
}

TEST(SampleSet, CdfPointsMonotone) {
  SampleSet s;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) s.add(rng.uniform01());
  const auto pts = s.cdf_points(20);
  ASSERT_EQ(pts.size(), 20u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].first, pts[i - 1].first);
    EXPECT_GT(pts[i].second, pts[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(RateMeter, RateOverWindow) {
  RateMeter m;
  m.record(0.0);
  for (int i = 1; i <= 100; ++i) m.record(i * 0.01);
  EXPECT_EQ(m.total(), 101u);
  EXPECT_NEAR(m.rate(), 101.0 / 1.0, 1.0);
}

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_row({"333333", "4"});
  const auto s = t.render();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("333333"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), contract_violation);
}

}  // namespace
}  // namespace difane
