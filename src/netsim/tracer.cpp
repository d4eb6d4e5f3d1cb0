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
