// Deterministic random-number utilities shared by the workload generators and
// the simulators. All experiments in this repo are seeded, so runs are
// reproducible bit-for-bit.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "util/contract.hpp"

namespace difane {

// SplitMix64: tiny, fast, good-quality seeder / hash mixer.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// MT19937-64 with the seeding, output stream and discard() of
// std::mt19937_64, so every seeded stream replays unchanged. The twist picks
// the matrix constant with a mask rather than a conditional jump on each
// state word's low bit, which a random low bit mispredicts half the time.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  result_type operator()() {
    if (p_ >= kN) twist();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  // Advances exactly as n calls would, without tempering the skipped words.
  void discard(std::uint64_t n) {
    while (n > kN - p_) {
      n -= kN - p_;
      twist();
    }
    p_ += static_cast<std::size_t>(n);
  }

  bool operator==(const Mt19937_64&) const = default;

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  // One twisted word from the top bit of `hi`, the low 31 bits of `lo` and
  // the word kM places ahead.
  static std::uint64_t twisted(std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
    const std::uint64_t y = (hi & kUpper) | (lo & ~kUpper);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
  }

  void twist() {
    for (std::size_t k = 0; k < kN - kM; ++k) x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM]);
    // Both loops run an even count, so GCC's -O2 vectorizer takes them.
    for (std::size_t k = kN - kM; k < kN - 2; ++k) {
      x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM - kN]);
    }
    x_[kN - 2] = twisted(x_[kN - 2], x_[kN - 1], x_[kM - 2]);
    x_[kN - 1] = twisted(x_[kN - 1], x_[0], x_[kM - 1]);
    p_ = 0;
  }

  std::array<std::uint64_t, kN> x_;
  std::size_t p_ = kN;
};

// Seeded PRNG wrapper with the sampling helpers the workloads need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  std::uint64_t next_u64() { return engine_(); }

  // Skips n draws of next_u64().
  void discard(std::uint64_t n) { engine_.discard(n); }

  // Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    expects(lo <= hi, "uniform: empty range");
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  // Uniform double in [0, 1).
  double uniform01() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  // Exponential inter-arrival time with the given rate (events per unit time).
  double exponential(double rate) {
    expects(rate > 0.0, "exponential: rate must be positive");
    return std::exponential_distribution<double>(rate)(engine_);
  }

  // Bounded Pareto sample in [min, max] with shape alpha; heavy-tailed flow sizes.
  double pareto(double min, double max, double alpha) {
    expects(min > 0.0 && max > min && alpha > 0.0, "pareto: bad parameters");
    const double u = uniform01();
    const double ha = std::pow(min / max, alpha);
    return min / std::pow(1.0 - u * (1.0 - ha), 1.0 / alpha);
  }

  // Pick an index with probability proportional to weights[i].
  std::size_t weighted_index(const std::vector<double>& weights) {
    expects(!weights.empty(), "weighted_index: empty weights");
    return std::discrete_distribution<std::size_t>(weights.begin(), weights.end())(engine_);
  }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

// The Zipf CDF over ranks 1..n with exponent s, in rank order, computed on
// the fly. Rank k's weight is 1.0 / pow(k, s); the constructor sums every
// weight in rank order, and next() recomputes each weight with the same
// expression and adds weight / sum, so it returns the doubles a stored CDF
// holds, the last forced to 1.0 against rounding. At s = 0 every weight is
// exactly 1.0 (pow(x, 0) is 1), so no pow is called: the sum is n and each
// step is 1.0 / n.
class ZipfCdf {
 public:
  ZipfCdf(std::size_t n, double s) : n_(n), s_(s) {
    expects(n > 0, "zipf: n must be positive");
    expects(std::isfinite(s), "zipf: skew must be finite");
    if (s == 0.0 && n <= (std::size_t{1} << 53)) {
      sum_ = static_cast<double>(n);  // every partial sum of ones is exact
    } else {
      for (std::size_t k = 1; k <= n; ++k) sum_ += weight(k);
    }
    unit_ = 1.0 / sum_;
  }

  // The CDF at the next rank, starting from rank 0; 1.0 from the last on.
  double next() {
    if (++rank_ >= n_) return 1.0;
    acc_ += s_ == 0.0 ? unit_ : weight(rank_) / sum_;
    return acc_;
  }

 private:
  double weight(std::size_t k) const {
    return s_ == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(k), s_);
  }

  std::size_t n_;
  double s_;
  double sum_ = 0.0;
  double unit_ = 0.0;  // weight / sum at s = 0
  double acc_ = 0.0;
  std::size_t rank_ = 0;  // ranks next() has returned
};

// Zipf sampler over ranks 1..n with exponent s: P(k) proportional to k^-s.
// Stores the CDF (ZipfCdf's values); sampling is a binary search over it.
// Internet flow popularity is approximately Zipfian, which is the property
// the DIFANE cache experiments depend on. A large n with few draws is cheaper
// through zipf_ranks, which stores no CDF.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double s) : cdf_(n) {
    ZipfCdf cdf(n, s);
    for (double& p : cdf_) p = cdf.next();
  }

  // Returns a rank in [0, n): the first whose CDF is at or above a
  // uniform01() draw.
  std::size_t sample(Rng& rng) const {
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01()) - cdf_.begin());
  }

  std::size_t size() const { return cdf_.size(); }

  // Probability mass of rank k (0-based).
  double pmf(std::size_t k) const {
    expects(k < cdf_.size(), "zipf: rank out of range");
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
  }

 private:
  std::vector<double> cdf_;
};

// Resolves Zipf draws without storing the CDF. `draws` holds a uniform01()
// draw and a caller's tag each; they are sorted by draw, then resolved in one
// ZipfCdf sweep that stops at the largest draw's rank. Returns (rank, tag) in
// that order, so ascending by rank, where rank is what
// ZipfDistribution(n, s).sample() returns for the draw. Costs one pass over
// all n weights (none at s = 0) plus one up to that rank.
inline std::vector<std::pair<std::size_t, std::size_t>> zipf_ranks(
    std::size_t n, double s, std::vector<std::pair<double, std::size_t>> draws) {
  for (const auto& draw : draws) {
    expects(draw.first >= 0.0 && draw.first < 1.0, "zipf: draw outside [0, 1)");
  }
  std::sort(draws.begin(), draws.end());
  std::vector<std::pair<std::size_t, std::size_t>> ranked(draws.size());
  if (draws.empty()) return ranked;
  ZipfCdf cdf(n, s);
  std::size_t rank = 0;
  double at = cdf.next();
  for (std::size_t i = 0; i < draws.size(); ++i) {
    // Ends by the last rank: its CDF is 1.0, above every draw.
    while (at < draws[i].first) {
      at = cdf.next();
      ++rank;
    }
    ranked[i] = {rank, draws[i].second};
  }
  return ranked;
}

}  // namespace difane
