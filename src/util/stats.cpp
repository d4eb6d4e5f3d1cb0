#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

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

LogHistogram::LogHistogram(double min_value, double base, std::size_t buckets)
    : min_value_(min_value), base_(base), log_base_(std::log(base)), counts_(buckets, 0) {
  expects(min_value > 0.0 && base > 1.0 && buckets > 0, "LogHistogram: bad parameters");
}

void LogHistogram::add(double x) {
  ++total_;
  if (x <= min_value_) {
    ++counts_[0];
    return;
  }
  const auto idx = static_cast<std::size_t>(std::log(x / min_value_) / log_base_) + 1;
  ++counts_[std::min(idx, counts_.size() - 1)];
}

double LogHistogram::bucket_lower_bound(std::size_t i) const {
  expects(i < counts_.size(), "LogHistogram: bucket index out of range");
  if (i == 0) return 0.0;
  return min_value_ * std::pow(base_, static_cast<double>(i - 1));
}

double LogHistogram::percentile(double p) const {
  expects(p >= 0.0 && p <= 1.0, "LogHistogram: p out of [0,1]");
  if (total_ == 0) return 0.0;
  const double target = p * static_cast<double>(total_);
  double acc = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = acc + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double lo = bucket_lower_bound(i);
      const double hi = (i + 1 < counts_.size()) ? bucket_lower_bound(i + 1) : lo * base_;
      const double within = counts_[i] ? (target - acc) / static_cast<double>(counts_[i]) : 0.0;
      return lo + within * (hi - lo);
    }
    acc = next;
  }
  return bucket_lower_bound(counts_.size() - 1);
}

std::string LogHistogram::ascii_art(std::size_t width) const {
  std::ostringstream os;
  std::uint64_t peak = 0;
  for (auto c : counts_) peak = std::max(peak, c);
  if (peak == 0) return "(empty histogram)\n";
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(width));
    os << bucket_lower_bound(i) << "\t" << counts_[i] << "\t"
       << std::string(std::max<std::size_t>(bar, 1), '#') << "\n";
  }
  return os.str();
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
