// Control channel: transports requests to a switch agent and replies back,
// each direction paying a propagation latency. DIFANE uses such channels in
// two places — controller -> switch for proactive installs, and authority
// switch -> ingress switch for cache installs (the latter rides the data
// plane, so its latency is a link latency, not a controller RTT).
//
// Two delivery modes:
//
//  * Unreliable (default): every copy the fault source draws is delivered
//    and applied as-is — losses vanish, duplicates double-apply, jitter
//    reorders. With no fault source each request is one event at the
//    channel latency and its reply one more: the exactly-once wire the
//    deterministic benches are calibrated against.
//
//  * Reliable: sequence numbers on every request, an ack (carrying the
//    reply) per applied request, timeout + capped exponential backoff
//    retransmission on the sender, and an agent-side receiver half that
//    suppresses duplicates, re-acks already-applied sequence numbers from a
//    reply cache, and buffers out-of-order arrivals so requests apply in
//    send order regardless of how the wire reorders them. Built to survive
//    the FaultInjector (src/faults/), which perturbs every transmission
//    through the ChannelFaults hook below.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ctrlchan/switch_agent.hpp"

namespace difane {

// Fault hook for one control-message transmission. Implemented by
// faults::FaultInjector; defined here so ctrlchan does not depend on the
// faults layer. `deliveries` starts as {0.0} (one clean copy); the
// implementation may clear it (loss), append 0.0 (duplication), or add
// positive extra latency to any element (jitter => reordering).
class ChannelFaults {
 public:
  virtual ~ChannelFaults() = default;
  virtual void transmit(std::vector<double>& deliveries) = 0;
};

// Reliable-delivery knobs. `rto_backoff` multiplies the retransmission
// timeout after every expiry until it saturates at `rto_max` — the cap
// bounds the *delay*, never the attempt count, so a message outstanding
// across a long outage still goes through eventually (in-order apply means
// dropping one would wedge every later message behind it).
struct ChannelReliability {
  bool enabled = false;
  double rto_initial = 2e-3;
  double rto_backoff = 2.0;
  double rto_max = 0.1;
};

class ControlChannel {
 public:
  using Reliability = ChannelReliability;

  ControlChannel(Engine& engine, ControlEndpoint& agent, double one_way_latency,
                 Reliability reliability = Reliability{},
                 ChannelFaults* faults = nullptr)
      : engine_(engine),
        agent_(agent),
        latency_(one_way_latency),
        reliability_(reliability),
        faults_(faults) {
    expects(one_way_latency >= 0.0, "ControlChannel: negative latency");
    if (reliability_.enabled) {
      expects(reliability_.rto_initial > 0.0, "ControlChannel: rto_initial <= 0");
      expects(reliability_.rto_backoff >= 1.0, "ControlChannel: rto_backoff < 1");
      expects(reliability_.rto_max >= reliability_.rto_initial,
              "ControlChannel: rto_max < rto_initial");
    }
  }

  // Send a request; if `on_reply` is given it fires at the sender side after
  // the reply has travelled back. In reliable mode `on_reply` fires exactly
  // once (on the first ack) no matter how many copies the wire made.
  void send(Request request, ControlEndpoint::ReplyHandler on_reply = {});

  // Sender-side counters.
  std::uint64_t sent() const { return sent_; }                // send() calls
  std::uint64_t transmissions() const { return transmissions_; }  // incl. rexmit
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t acks() const { return acks_; }
  std::uint64_t dup_acks() const { return dup_acks_; }
  // Receiver (agent-side) counters.
  std::uint64_t dup_requests() const { return dup_requests_; }
  std::uint64_t reordered() const { return reordered_; }  // buffered arrivals

 private:
  struct Pending {
    Request request;
    ControlEndpoint::ReplyHandler on_reply;
    double rto;
  };

  // Sender half.
  void transmit_request(std::uint64_t seq);
  void arm_retransmit_timer(std::uint64_t seq, double delay);
  void handle_ack(std::uint64_t seq, const Reply& reply);

  // Receiver half: the agent-side endpoint of the protocol. Owns the
  // expected-sequence cursor, the out-of-order buffer, and the reply cache
  // used to re-ack duplicates of already-applied requests.
  void receive(std::uint64_t seq, const Request& request);
  void apply_in_order(std::uint64_t seq, const Request& request);
  void send_ack(std::uint64_t seq, const Reply& reply);

  // Draw the delivery schedule for one transmission from the fault hook.
  std::vector<double> draw_deliveries();

  Engine& engine_;
  ControlEndpoint& agent_;
  double latency_;
  Reliability reliability_;
  ChannelFaults* faults_;

  // Sender state.
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, Pending> pending_;  // unacked requests
  std::uint64_t sent_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t dup_acks_ = 0;

  // Receiver state.
  std::uint64_t expected_seq_ = 0;
  std::map<std::uint64_t, Request> reorder_buffer_;
  std::map<std::uint64_t, Reply> reply_cache_;  // applied seq -> reply
  std::uint64_t dup_requests_ = 0;
  std::uint64_t reordered_ = 0;
};

}  // namespace difane
