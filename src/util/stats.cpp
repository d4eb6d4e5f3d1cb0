#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/contract.hpp"

namespace difane {

void OnlineStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void SampleSet::sort_if_needed() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::percentile(double p) const {
  expects(!samples_.empty(), "percentile of empty sample set");
  expects(p >= 0.0 && p <= 1.0, "percentile p out of [0,1]");
  sort_if_needed();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples_.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return samples_[std::min(idx, samples_.size() - 1)];
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double SampleSet::cdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  sort_if_needed();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> SampleSet::cdf_points(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) return out;
  sort_if_needed();
  out.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(points);
    out.emplace_back(percentile(frac), frac);
  }
  return out;
}

void RateMeter::record(double time, std::uint64_t count) {
  if (!any_) {
    first_ = time;
    any_ = true;
  }
  last_ = std::max(last_, time);
  total_ += count;
}

double RateMeter::rate() const {
  if (!any_ || last_ <= first_) return 0.0;
  return static_cast<double>(total_) / (last_ - first_);
}

}  // namespace difane
