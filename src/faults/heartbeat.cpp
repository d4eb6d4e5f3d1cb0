#include "faults/heartbeat.hpp"

#include "util/contract.hpp"

namespace difane {

HeartbeatMonitor::HeartbeatMonitor(Network& net, std::vector<SwitchId> watched,
                                   HeartbeatParams params, FaultInjector* injector)
    : net_(net), params_(params), injector_(injector) {
  expects(params_.interval > 0.0, "HeartbeatMonitor: interval must be > 0");
  expects(params_.miss_threshold >= 1, "HeartbeatMonitor: need a miss threshold");
  expects(params_.horizon > 0.0, "HeartbeatMonitor: need a horizon");
  for (const SwitchId sw : watched) watched_.push_back(WatchState{sw, 0, false});
}

void HeartbeatMonitor::start() {
  if (params_.interval <= params_.horizon) {
    net_.engine().after(params_.interval, [this]() { tick(); });
  }
}

void HeartbeatMonitor::note_message_from(SwitchId sw) {
  for (auto& w : watched_) {
    if (w.sw == sw) w.message_since_tick = true;
  }
}

void HeartbeatMonitor::note_liveness(SwitchId sw, std::uint64_t beat_seq) {
  // Fresh iff stamped within miss_threshold ticks of the monitor's counter —
  // the same slack the miss counter itself grants, so transit/retransmission
  // delay up to threshold x interval cannot turn live evidence stale.
  if (beat_seq + params_.miss_threshold < tick_seq_) {
    ++piggyback_stale_;
    return;
  }
  ++piggyback_fresh_;
  note_message_from(sw);
}

void HeartbeatMonitor::tick() {
  ++tick_seq_;
  const double now = net_.engine().now();
  for (auto& w : watched_) {
    // A failed switch emits nothing; a live switch's beat can still be lost
    // on the control wire.
    const bool beat_arrived =
        !net_.sw(w.sw).failed() &&
        (injector_ == nullptr || !injector_->heartbeat_lost());
    // Any message heard from the switch since the last tick proves liveness
    // just as well as the dedicated beat — it resets the miss counter, so a
    // run of lost/jittered beats from a switch that is visibly serving
    // traffic cannot accumulate into a spurious failover.
    const bool alive = beat_arrived || w.message_since_tick;
    w.message_since_tick = false;
    if (alive) {
      if (beat_arrived) ++beats_heard_;
      w.consecutive_misses = 0;
      // A message the switch sent before it crashed can still arrive; it
      // proves no recovery while the switch is down.
      if (w.declared_down && !net_.sw(w.sw).failed()) {
        w.declared_down = false;
        ++recoveries_declared_;
        if (on_recovery_) on_recovery_(w.sw, now);
      }
    } else {
      ++beats_missed_;
      ++w.consecutive_misses;
      if (!w.declared_down && w.consecutive_misses >= params_.miss_threshold) {
        w.declared_down = true;
        ++failures_declared_;
        if (!net_.sw(w.sw).failed()) ++spurious_failovers_;
        if (on_failure_) on_failure_(w.sw, now);
      }
    }
  }
  if (now + params_.interval <= params_.horizon) {
    net_.engine().after(params_.interval, [this]() { tick(); });
  }
}

}  // namespace difane
