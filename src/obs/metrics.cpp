#include "obs/metrics.hpp"

namespace difane::obs {

Timer* MetricsRegistry::timer(const std::string& name) {
  if constexpr (!kEnabled) {
    // Disabled build: record() is already a no-op, so every caller can share
    // one sink without a registry lock.
    static Timer dummy;
    return &dummy;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = timers_[name];
  if (!slot) slot = std::make_unique<Timer>();
  return slot.get();
}

std::map<std::string, double> MetricsRegistry::snapshot() const {
  std::map<std::string, double> out;
  if constexpr (!kEnabled) return out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, timer] : timers_) {
    out[name + "_wall_seconds"] = timer->total_seconds();
    out[name + "_count"] = static_cast<double>(timer->count());
  }
  return out;
}

void MetricsRegistry::reset() {
  if constexpr (!kEnabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, timer] : timers_) {
    (void)name;
    timer->reset();
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace difane::obs
