#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "util/contract.hpp"
#include "util/parse.hpp"
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

// Mt19937_64 stands in for std::mt19937_64 under every seeded stream in the
// repo, so its raw output, its discard() and what the standard distributions
// make of it must all be the standard engine's.
TEST(Rng, EngineMatchesStdMt19937_64) {
  constexpr std::size_t kStateWords = 312;
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                                   std::uint64_t{5489}, ~std::uint64_t{0}}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    for (std::size_t i = 0; i < 3 * kStateWords + 7; ++i) {
      ASSERT_EQ(ours(), ref()) << "seed " << seed << " draw " << i;
    }
  }

  // discard(n) from every offset class around a twist: n draws skipped,
  // with n short of, at and past the end of the current state block.
  for (const std::size_t warmup : {std::size_t{0}, std::size_t{1}, std::size_t{300},
                                   kStateWords - 1, kStateWords}) {
    for (const std::uint64_t n : {0ULL, 1ULL, 4ULL, 11ULL, 12ULL, 13ULL, 311ULL, 312ULL,
                                  313ULL, 623ULL, 624ULL, 625ULL, 1000ULL}) {
      Mt19937_64 skipped(7), drawn(7);
      std::mt19937_64 ref(7);
      for (std::size_t i = 0; i < warmup; ++i) {
        skipped();
        drawn();
        ref();
      }
      skipped.discard(n);
      ref.discard(n);
      for (std::uint64_t i = 0; i < n; ++i) drawn();
      EXPECT_TRUE(skipped == drawn) << "warmup " << warmup << " n " << n;
      for (int i = 0; i < 3; ++i) {
        const auto v = skipped();
        ASSERT_EQ(v, drawn()) << "warmup " << warmup << " n " << n;
        ASSERT_EQ(v, ref()) << "warmup " << warmup << " n " << n;
      }
    }
  }

  // The distributions the repo draws through, on both engines.
  Mt19937_64 ours(2024);
  std::mt19937_64 ref(2024);
  for (int i = 0; i < 2000; ++i) {
    for (const std::uint64_t hi : {std::uint64_t{1}, std::uint64_t{1999},
                                   (std::uint64_t{1} << 40) + 3, ~std::uint64_t{0}}) {
      std::uniform_int_distribution<std::uint64_t> d(0, hi);
      ASSERT_EQ(d(ours), d(ref)) << "uniform_int hi " << hi;
    }
    std::bernoulli_distribution coin(0.9);
    ASSERT_EQ(coin(ours), coin(ref));
    std::exponential_distribution<double> gap(400000.0);
    ASSERT_EQ(gap(ours), gap(ref));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    ASSERT_EQ(unit(ours), unit(ref));
    std::discrete_distribution<std::size_t> pick({1.0, 0.0, 9.0, 3.5});
    ASSERT_EQ(pick(ours), pick(ref));
  }
  std::vector<int> a(1000), b(1000);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  std::shuffle(a.begin(), a.end(), ours);
  std::shuffle(b.begin(), b.end(), ref);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ours(), ref());
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

// zipf_ranks must pick exactly the rank that lower_bound over the whole CDF
// picks, and the CDF behind pmf must be the one built with two std::pow
// calls per rank; checked at every b/4096, at sampled CDF values and both
// neighbouring doubles, on repeated draws, and at random points.
TEST(Zipf, StreamedRanksMatchFullSearch) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{5000},
                              std::size_t{1} << 21}) {
    for (const double s : {0.0, 0.8, 1.1}) {
      std::vector<double> cdf(n);
      double sum = 0.0;
      for (std::size_t k = 1; k <= n; ++k) sum += 1.0 / std::pow(static_cast<double>(k), s);
      double acc = 0.0;
      for (std::size_t k = 1; k <= n; ++k) {
        acc += (1.0 / std::pow(static_cast<double>(k), s)) / sum;
        cdf[k - 1] = acc;
      }
      cdf.back() = 1.0;
      const ZipfDistribution zipf(n, s);
      std::size_t pmf_mismatches = 0;
      for (std::size_t k = 0; k < n; ++k) {
        if (zipf.pmf(k) != (k == 0 ? cdf[0] : cdf[k] - cdf[k - 1])) ++pmf_mismatches;
      }
      EXPECT_EQ(pmf_mismatches, 0u) << "n " << n << " s " << s;

      std::vector<double> points;
      for (std::size_t b = 0; b < 4096; ++b) {
        const double edge = static_cast<double>(b) / 4096;
        points.push_back(edge);
        points.push_back(std::nextafter(edge, 1.0));
        if (b > 0) points.push_back(std::nextafter(edge, 0.0));
      }
      for (std::size_t k = 0; k < n; k += 1 + n / 3000) {
        points.push_back(cdf[k]);
        points.push_back(std::nextafter(cdf[k], 0.0));
        points.push_back(std::nextafter(cdf[k], 1.0));
      }
      Rng rng(n + 17);
      for (int i = 0; i < 5000; ++i) points.push_back(rng.uniform01());
      std::erase_if(points, [](double u) { return u >= 1.0; });  // uniform01 never returns 1
      const std::size_t distinct = points.size();
      for (std::size_t i = 0; i < distinct; i += 7) points.push_back(points[i]);  // repeats

      std::vector<std::pair<double, std::size_t>> draws;
      for (std::size_t i = 0; i < points.size(); ++i) draws.emplace_back(points[i], i);
      const auto ranked = zipf_ranks(n, s, draws);
      ASSERT_EQ(ranked.size(), points.size());
      std::vector<bool> seen(points.size(), false);
      std::size_t mismatches = 0, descents = 0;
      for (std::size_t j = 0; j < ranked.size(); ++j) {
        const auto [rank, tag] = ranked[j];
        ASSERT_LT(tag, points.size());
        seen[tag] = true;
        const auto full = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), points[tag]) - cdf.begin());
        if (rank != full) ++mismatches;
        if (j > 0 && ranked[j - 1].first > rank) ++descents;
      }
      EXPECT_EQ(mismatches, 0u) << "n " << n << " s " << s;
      EXPECT_EQ(descents, 0u) << "n " << n << " s " << s;
      EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
                static_cast<std::ptrdiff_t>(points.size()));
    }
  }
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

TEST(Parse, SignedTakesOneWholeToken) {
  EXPECT_EQ(util::parse_signed<std::int32_t>("0"), 0);
  EXPECT_EQ(util::parse_signed<std::int32_t>("-0"), 0);
  EXPECT_EQ(util::parse_signed<std::int32_t>("42"), 42);
  EXPECT_EQ(util::parse_signed<std::int32_t>("-7"), -7);
  EXPECT_EQ(util::parse_signed<std::int32_t>("2147483647"), 2147483647);
  EXPECT_EQ(util::parse_signed<std::int32_t>("-2147483648"), -2147483647 - 1);
  for (const char* bad : {"", "-", "+5", " 5", "5 ", "5x", "5drop", "--5", "0x10",
                          "1.5", "2147483648", "-2147483649",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(util::parse_signed<std::int32_t>(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_EQ(util::parse_signed<std::int8_t>("-128"), -128);
  EXPECT_FALSE(util::parse_signed<std::int8_t>("128").has_value());
}

}  // namespace
}  // namespace difane
