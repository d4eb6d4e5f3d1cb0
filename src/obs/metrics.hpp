// Wall-clock timers registered by name in a MetricsRegistry: the registry is
// the host-time surface, one Timer per measured span, whose call count is
// also the registry's only op count. Deterministic counts live in
// ScenarioStats and the per-object counters it gathers, never here. A timed
// call site keeps a raw Timer pointer (one registry lookup) and records into
// it with relaxed atomic ops.
//
// The whole layer compiles out when the build defines DIFANE_OBS_ENABLED=0
// (cmake -DDIFANE_OBS=OFF): every record inlines to nothing and the registry
// hands back a shared dummy timer without taking a lock, so timed code needs
// no #ifdefs and pays literally zero cycles.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#ifndef DIFANE_OBS_ENABLED
#define DIFANE_OBS_ENABLED 1
#endif

namespace difane::obs {

inline constexpr bool kEnabled = DIFANE_OBS_ENABLED != 0;

// Accumulates wall-clock seconds + a call count. Pair with ScopedTimer.
class Timer {
 public:
  void record(double seconds) {
    if constexpr (kEnabled) {
      count_.fetch_add(1, std::memory_order_relaxed);
      double cur = total_.load(std::memory_order_relaxed);
      while (!total_.compare_exchange_weak(cur, cur + seconds,
                                           std::memory_order_relaxed)) {
      }
    } else {
      (void)seconds;
    }
  }
  double total_seconds() const { return total_.load(std::memory_order_relaxed); }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void reset() {
    total_.store(0.0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> total_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

// RAII wall-clock scope: records elapsed seconds into a Timer on exit.
// Compiles to nothing when observability is off.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer) : timer_(timer) {
    if constexpr (kEnabled) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if constexpr (kEnabled) {
      if (timer_ != nullptr) {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        timer_->record(std::chrono::duration<double>(elapsed).count());
      }
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

// Name -> Timer registry. Registration takes a mutex; returned pointers are
// stable for the registry's lifetime (timers are node-allocated), so a timed
// call site looks up once and records forever. snapshot() flattens timer t
// into "t_wall_seconds" and "t_count". Both carry the timer's name, and the
// `_wall_seconds` suffix is on purpose: downstream tooling (bench_compare,
// the determinism test) treats *_wall_* metrics as host timing, exempt from
// determinism comparison.
class MetricsRegistry {
 public:
  Timer* timer(const std::string& name);

  std::map<std::string, double> snapshot() const;
  // Zero every timer in place. Pointers handed out earlier stay valid (call
  // sites cache them), so this is safe between bench reps.
  void reset();

  // Process-wide registry the built-in timers report into.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

}  // namespace difane::obs
