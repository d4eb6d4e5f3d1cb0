// Heartbeat-based failure detection. Each watched switch emits a beat every
// `interval` seconds (beats traverse the control network, so the
// FaultInjector may drop them); the monitor declares a switch down after
// `miss_threshold` consecutive missing beats and declares recovery on the
// first beat heard from a switch it considered down. This replaces the
// hardcoded failover_detect oracle: detection latency becomes an emergent
// property of interval x threshold x beat loss, exactly the trade-off a real
// deployment tunes.
//
// The monitor stops scheduling ticks past `horizon` so the engine's event
// queue can drain (Scenario::run runs until the queue is empty); pick a
// horizon at or past the end of injected traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "faults/injector.hpp"
#include "netsim/topology.hpp"

namespace difane {

struct HeartbeatParams {
  double interval = 0.05;         // seconds between beats
  std::uint32_t miss_threshold = 3;  // consecutive misses => declare failure
  double horizon = 0.0;           // no ticks scheduled past this sim time
};

class HeartbeatMonitor {
 public:
  // `when` is the detection instant (the tick that crossed the threshold or
  // heard the reviving beat).
  using Callback = std::function<void(SwitchId sw, double when)>;

  HeartbeatMonitor(Network& net, std::vector<SwitchId> watched,
                   HeartbeatParams params, FaultInjector* injector = nullptr);

  void on_failure(Callback cb) { on_failure_ = std::move(cb); }
  void on_recovery(Callback cb) { on_recovery_ = std::move(cb); }

  // Schedule the periodic tick chain. Call once, after the callbacks are set.
  void start();

  // Liveness evidence from any control message the authority sent (a cache
  // install arriving at an ingress, an ack): treat it like a beat at the next
  // tick, except that it recovers no switch that is down (the message can
  // predate the crash). Without this, jitter larger than miss_threshold x
  // interval can stall the beat stream long enough to declare a *spurious*
  // failover — failing over a switch that is demonstrably alive and serving
  // — followed by an immediate recovery, churning the partition tables twice
  // for nothing.
  void note_message_from(SwitchId sw);

  // Piggybacked liveness: telemetry export batches stamp the heartbeat tick
  // index current when they left the switch (beat_seq = floor(send_time /
  // interval)). A batch is accepted as a beat only while its stamp is fresh —
  // within miss_threshold ticks of the monitor's own tick counter — so a
  // batch retransmitted across a long partition cannot resurrect a switch
  // with stale evidence. Fresh stamps reset the miss counter exactly like
  // note_message_from; stale ones are counted and ignored. This is what lets
  // the monitor tell a *quiet* authority (no installs, no acks, but exports
  // or keepalives still flowing) from a *partitioned* one.
  void note_liveness(SwitchId sw, std::uint64_t beat_seq);

  std::uint64_t piggyback_fresh() const { return piggyback_fresh_; }
  std::uint64_t piggyback_stale() const { return piggyback_stale_; }

  std::uint64_t beats_heard() const { return beats_heard_; }
  std::uint64_t beats_missed() const { return beats_missed_; }
  std::uint64_t failures_declared() const { return failures_declared_; }
  std::uint64_t recoveries_declared() const { return recoveries_declared_; }
  // Failure declarations for a switch that was not actually failed at
  // declaration time (detection false positives).
  std::uint64_t spurious_failovers() const { return spurious_failovers_; }

 private:
  void tick();

  struct WatchState {
    SwitchId sw = kInvalidSwitch;
    std::uint32_t consecutive_misses = 0;
    bool declared_down = false;
    bool message_since_tick = false;
  };

  Network& net_;
  HeartbeatParams params_;
  FaultInjector* injector_;
  std::vector<WatchState> watched_;
  Callback on_failure_;
  Callback on_recovery_;
  // Ticks fired so far; tick k fires at time k * interval, which is what
  // makes beat_seq stamps comparable to it.
  std::uint64_t tick_seq_ = 0;
  std::uint64_t beats_heard_ = 0;
  std::uint64_t beats_missed_ = 0;
  std::uint64_t failures_declared_ = 0;
  std::uint64_t recoveries_declared_ = 0;
  std::uint64_t spurious_failovers_ = 0;
  std::uint64_t piggyback_fresh_ = 0;
  std::uint64_t piggyback_stale_ = 0;
};

}  // namespace difane
