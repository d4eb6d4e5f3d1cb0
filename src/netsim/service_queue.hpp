// Deterministic single-server FIFO queue with constant service time and a
// bounded backlog, modelled with a next-free cursor (like Link). This is how
// the flow-setup bottlenecks are expressed: the NOX controller is one such
// queue (~20 us/flow), a DIFANE authority switch's miss path is another
// (~1.25 us/flow). Saturation, queueing delay, and overload drops all fall
// out of the cursor arithmetic.
#pragma once

#include <cstdint>
#include <optional>

#include "netsim/engine.hpp"

namespace difane {

class ServiceQueue {
 public:
  ServiceQueue(double service_time, double max_backlog)
      : service_time_(service_time), max_backlog_(max_backlog) {
    expects(service_time > 0.0 && max_backlog >= 0.0, "ServiceQueue: bad parameters");
  }

  // Try to enqueue work arriving at `now`. Returns the completion time, or
  // nullopt if the backlog (waiting time) would exceed the bound.
  std::optional<SimTime> admit(SimTime now) {
    const SimTime backlog = next_free_ > now ? next_free_ - now : 0.0;
    if (backlog > max_backlog_) {
      ++rejected_;
      return std::nullopt;
    }
    const SimTime start = next_free_ > now ? next_free_ : now;
    next_free_ = start + service_time_;
    ++admitted_;
    return next_free_;
  }

  double service_time() const { return service_time_; }
  double capacity_per_sec() const { return 1.0 / service_time_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  SimTime backlog(SimTime now) const {
    return next_free_ > now ? next_free_ - now : 0.0;
  }

 private:
  double service_time_;
  double max_backlog_;
  SimTime next_free_ = 0.0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace difane
