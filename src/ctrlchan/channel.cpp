#include "ctrlchan/channel.hpp"

#include <algorithm>

namespace difane {

std::vector<double> ControlChannel::draw_deliveries() {
  std::vector<double> deliveries{0.0};
  if (faults_ != nullptr) faults_->transmit(deliveries);
  return deliveries;
}

void ControlChannel::send(Request request, ControlEndpoint::ReplyHandler on_reply) {
  ++sent_;
  if (!reliability_.enabled) {
    // Unreliable wire: every drawn copy is delivered and applied as-is. The
    // chaos suite runs the system on it to prove the *system* (not the
    // channel) degrades gracefully.
    ++transmissions_;
    for (const double extra : draw_deliveries()) {
      engine_.after(latency_ + extra, [this, request, on_reply]() {
        ControlEndpoint::ReplyHandler wrapped;
        if (on_reply) {
          wrapped = [this, on_reply](const Reply& reply) {
            for (const double back : draw_deliveries()) {
              engine_.after(latency_ + back,
                            [on_reply, reply]() { on_reply(reply); });
            }
          };
        }
        agent_.deliver(request, std::move(wrapped));
      });
    }
    return;
  }

  // Reliable mode: assign the next sequence number, remember the request
  // until its ack returns, transmit, and arm the retransmission timer.
  const std::uint64_t seq = next_seq_++;
  pending_.emplace(seq,
                   Pending{std::move(request), std::move(on_reply),
                           reliability_.rto_initial});
  transmit_request(seq);
  arm_retransmit_timer(seq, reliability_.rto_initial);
}

void ControlChannel::transmit_request(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // acked meanwhile
  ++transmissions_;
  for (const double extra : draw_deliveries()) {
    // The copy on the wire: capture the request by value so a retransmission
    // is independent of sender-side state changes.
    engine_.after(latency_ + extra, [this, seq, request = it->second.request]() {
      receive(seq, request);
    });
  }
}

void ControlChannel::arm_retransmit_timer(std::uint64_t seq, double delay) {
  engine_.after(delay, [this, seq]() {
    const auto it = pending_.find(seq);
    if (it == pending_.end()) return;  // acked; timer dies quietly
    ++retransmits_;
    transmit_request(seq);
    it->second.rto = std::min(it->second.rto * reliability_.rto_backoff,
                              reliability_.rto_max);
    arm_retransmit_timer(seq, it->second.rto);
  });
}

void ControlChannel::handle_ack(std::uint64_t seq, const Reply& reply) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) {
    ++dup_acks_;
    return;
  }
  ++acks_;
  ControlEndpoint::ReplyHandler on_reply = std::move(it->second.on_reply);
  pending_.erase(it);
  if (on_reply) on_reply(reply);
}

void ControlChannel::receive(std::uint64_t seq, const Request& request) {
  if (seq < expected_seq_) {
    // Already handed to the agent. If it finished applying, re-ack from the
    // reply cache (the original ack was evidently lost); if it is still in
    // the agent's pipeline, the in-flight apply will ack when it completes.
    ++dup_requests_;
    const auto cached = reply_cache_.find(seq);
    if (cached != reply_cache_.end()) send_ack(seq, cached->second);
    return;
  }
  if (seq > expected_seq_) {
    // Out of order: hold it until the gap fills so requests apply in send
    // order (a FlowMod delete overtaking its add must not invert them).
    if (!reorder_buffer_.emplace(seq, request).second) {
      ++dup_requests_;
    } else {
      ++reordered_;
    }
    return;
  }
  apply_in_order(seq, request);
  // Drain any buffered successors that are now in order.
  auto next = reorder_buffer_.find(expected_seq_);
  while (next != reorder_buffer_.end()) {
    const Request buffered = std::move(next->second);
    reorder_buffer_.erase(next);
    apply_in_order(expected_seq_, buffered);
    next = reorder_buffer_.find(expected_seq_);
  }
}

void ControlChannel::apply_in_order(std::uint64_t seq, const Request& request) {
  expects(seq == expected_seq_, "ControlChannel: out-of-order apply");
  ++expected_seq_;
  agent_.deliver(request, [this, seq](const Reply& reply) {
    reply_cache_.emplace(seq, reply);
    send_ack(seq, reply);
  });
}

void ControlChannel::send_ack(std::uint64_t seq, const Reply& reply) {
  for (const double extra : draw_deliveries()) {
    engine_.after(latency_ + extra,
                  [this, seq, reply]() { handle_ack(seq, reply); });
  }
}

}  // namespace difane
