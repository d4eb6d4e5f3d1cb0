// Point-to-point unidirectional link with propagation latency and a
// serialization rate. Transmission is modelled with a next-free cursor: a
// packet begins serializing when the previous one finishes, giving FIFO
// ordering and queueing delay without per-packet queue objects.
#pragma once

#include <cstdint>

#include "netsim/engine.hpp"

namespace difane {

class Link {
 public:
  Link(SimTime latency, double rate_bps) : latency_(latency), rate_bps_(rate_bps) {
    expects(latency >= 0.0 && rate_bps > 0.0, "Link: bad parameters");
  }

  // Account for sending `bytes` at `now`; returns the delivery time at the
  // far end (serialization wait + tx time + propagation).
  SimTime send(SimTime now, std::uint32_t bytes) {
    const SimTime tx = static_cast<double>(bytes) * 8.0 / rate_bps_;
    const SimTime start = next_free_ > now ? next_free_ : now;
    next_free_ = start + tx;
    ++packets_;
    bytes_ += bytes;
    return next_free_ + latency_;
  }

  SimTime latency() const { return latency_; }
  std::uint64_t packets() const { return packets_; }
  std::uint64_t bytes() const { return bytes_; }
  // Queueing backlog at `now` in seconds of serialization time.
  SimTime backlog(SimTime now) const { return next_free_ > now ? next_free_ - now : 0.0; }

  // Administrative / fault state. A down link carries nothing; routing skips
  // it and the forwarding path drops packets that race a flap.
  bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

 private:
  SimTime latency_;
  double rate_bps_;
  SimTime next_free_ = 0.0;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  bool up_ = true;
};

}  // namespace difane
