#include "netsim/tracer.hpp"

#include <sstream>

namespace difane {

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kNoRule: return "no_rule";
    case DropReason::kPolicyDrop: return "policy_drop";
    case DropReason::kSwitchFailed: return "switch_failed";
    case DropReason::kUnreachable: return "unreachable";
    case DropReason::kControllerQueue: return "controller_queue";
    case DropReason::kTtlExceeded: return "ttl_exceeded";
  }
  return "?";
}

void Tracer::on_delivered(const Packet& packet, double now) {
  ++delivered_;
  if (packet.was_redirected) ++redirected_;
  const double delay = now - packet.created;
  if (packet.is_first_of_flow) {
    first_delay_.add(delay);
  } else {
    later_delay_.add(delay);
  }
  hops_.add(static_cast<double>(packet.hops));
}

void Tracer::merge_from(const Tracer& other) {
  injected_ += other.injected_;
  delivered_ += other.delivered_;
  dropped_total_ += other.dropped_total_;
  for (std::size_t i = 0; i < kNumDropReasons; ++i) dropped_[i] += other.dropped_[i];
  redirected_ += other.redirected_;
  first_delay_.merge_from(other.first_delay_);
  later_delay_.merge_from(other.later_delay_);
  hops_.merge_from(other.hops_);
}

std::string Tracer::summary() const {
  std::ostringstream os;
  os << "injected=" << injected_ << " delivered=" << delivered_
     << " dropped=" << dropped_total_ << " in_flight=" << in_flight()
     << " redirected=" << redirected_;
  for (std::size_t i = 0; i < kNumDropReasons; ++i) {
    if (dropped_[i]) {
      os << " " << drop_reason_name(static_cast<DropReason>(i)) << "=" << dropped_[i];
    }
  }
  return os.str();
}

}  // namespace difane
