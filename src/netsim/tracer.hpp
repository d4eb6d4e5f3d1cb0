// Packet accounting: delivery/drop bookkeeping, packet conservation, and the
// delay distributions the paper's figures report (first packets vs the
// rest, redirected vs cached paths).
#pragma once

#include <cstdint>
#include <string>

#include "netsim/packet.hpp"
#include "util/stats.hpp"

namespace difane {

enum class DropReason : std::uint8_t {
  kNoRule = 0,        // matched nothing anywhere (policy has no default)
  kPolicyDrop,        // matched an explicit drop rule (not an error)
  kSwitchFailed,      // arrived at a failed switch
  kUnreachable,       // routing found no path
  kControllerQueue,   // controller queue overflow (NOX baseline)
  kTtlExceeded,       // forwarding loop guard
};
inline constexpr std::size_t kNumDropReasons = 6;

const char* drop_reason_name(DropReason reason);

class Tracer {
 public:
  void on_injected(const Packet& /*packet*/) { ++injected_; }
  void on_delivered(const Packet& packet, double now);
  void on_dropped(const Packet& /*packet*/, DropReason reason) {
    ++dropped_total_;
    ++dropped_[static_cast<std::size_t>(reason)];
  }

  std::uint64_t injected() const { return injected_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_total_; }
  std::uint64_t dropped(DropReason reason) const {
    return dropped_[static_cast<std::size_t>(reason)];
  }
  // Conservation: injected - delivered - dropped = packets still in flight.
  std::int64_t in_flight() const {
    return static_cast<std::int64_t>(injected_) - static_cast<std::int64_t>(delivered_) -
           static_cast<std::int64_t>(dropped_total_);
  }

  std::uint64_t redirected() const { return redirected_; }

  const SampleSet& first_packet_delay() const { return first_delay_; }
  const SampleSet& later_packet_delay() const { return later_delay_; }
  const OnlineStats& hops() const { return hops_; }

  std::string summary() const;

 private:
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_total_ = 0;
  std::uint64_t dropped_[kNumDropReasons] = {};
  std::uint64_t redirected_ = 0;
  SampleSet first_delay_;
  SampleSet later_delay_;
  OnlineStats hops_;
};

}  // namespace difane
