// Measurement plumbing: online moments, sample-based CDFs/percentiles, and a
// rate meter. These back every table and figure the bench harnesses print.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace difane {

// Online mean / variance / extrema (Welford). O(1) memory.
class OnlineStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance; 0 for n < 2
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Stores samples; computes exact percentiles and CDF points. Use for latency
// distributions where sample counts are bounded (≤ a few million).
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // p in [0, 1]; nearest-rank percentile.
  double percentile(double p) const;
  double median() const { return percentile(0.5); }
  double mean() const;

  // Evaluate the empirical CDF at x: fraction of samples <= x.
  double cdf_at(double x) const;

  // Emit `points` evenly spaced (value, cumulative-fraction) pairs, suitable
  // for plotting a CDF series the way the paper's delay figure does.
  std::vector<std::pair<double, double>> cdf_points(std::size_t points) const;

 private:
  void sort_if_needed() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Counts events over a window; reports rate. Used for throughput series.
class RateMeter {
 public:
  void record(double time, std::uint64_t count = 1);
  // Events per unit time between first and last recorded event.
  double rate() const;
  std::uint64_t total() const { return total_; }

 private:
  double first_ = 0.0;
  double last_ = 0.0;
  bool any_ = false;
  std::uint64_t total_ = 0;
};

}  // namespace difane
