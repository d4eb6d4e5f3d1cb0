// Deterministic random-number utilities shared by the workload generators and
// the simulators. All experiments in this repo are seeded, so runs are
// reproducible bit-for-bit.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>
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
    for (std::size_t k = kN - kM; k < kN - 1; ++k) {
      x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM - kN]);
    }
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

// Zipf sampler over ranks 1..n with exponent s: P(k) proportional to k^-s.
// Precomputes the CDF once; sampling is a binary search inside one bucket of
// a guide table over [0, 1). Internet flow popularity is approximately
// Zipfian, which is the property the DIFANE cache experiments depend on.
class ZipfDistribution {
 public:
  static constexpr std::size_t kBuckets = 4096;

  ZipfDistribution(std::size_t n, double s) : cdf_(n), guide_(kBuckets + 1) {
    expects(n > 0, "zipf: n must be positive");
    // Each rank's weight k^-s, computed once; the CDF overwrites it in place.
    double sum = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
      cdf_[k - 1] = 1.0 / std::pow(static_cast<double>(k), s);
      sum += cdf_[k - 1];
    }
    double acc = 0.0;
    for (double& p : cdf_) {
      acc += p / sum;
      p = acc;
    }
    cdf_.back() = 1.0;  // guard against rounding
    // guide_[b] is the first rank whose CDF is at or above b / kBuckets; the
    // scan ends because the last CDF entry is 1.0.
    std::size_t rank = 0;
    for (std::size_t b = 0; b <= kBuckets; ++b) {
      const double edge = static_cast<double>(b) / kBuckets;
      while (cdf_[rank] < edge) ++rank;
      guide_[b] = rank;
    }
  }

  // Returns a rank in [0, n).
  std::size_t sample(Rng& rng) const { return rank_at(rng.uniform01()); }

  // The first rank whose CDF is at or above u, for u in [0, 1): what
  // lower_bound over the whole CDF returns, found inside u's bucket.
  std::size_t rank_at(double u) const {
    const auto b = static_cast<std::size_t>(u * kBuckets);
    const auto it = std::lower_bound(cdf_.begin() + static_cast<std::ptrdiff_t>(guide_[b]),
                                     cdf_.begin() + static_cast<std::ptrdiff_t>(guide_[b + 1]),
                                     u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

  std::size_t size() const { return cdf_.size(); }

  // Probability mass of rank k (0-based).
  double pmf(std::size_t k) const {
    expects(k < cdf_.size(), "zipf: rank out of range");
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> guide_;
};

}  // namespace difane
