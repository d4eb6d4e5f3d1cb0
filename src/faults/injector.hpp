// FaultInjector: the runtime half of a FaultPlan. One Rng, seeded with the
// plan seed, drives every stochastic decision (message loss, duplication,
// jitter, install failures, heartbeat loss), drawn in event-execution order —
// which the engine makes deterministic — so a (seed, plan) pair replays
// bit-for-bit. E9's plan_* rows in bench/BASELINE.json pin this draw order.
// The injector is passive: it owns no events of its own, it only answers
// "what happens to this transmission?" when a channel or monitor asks.
// Scenario builds one only at threads == 1 (validate() rejects an active plan
// under the sharded executor), so draws never race.
#pragma once

#include <cstdint>
#include <vector>

#include "ctrlchan/channel.hpp"
#include "faults/plan.hpp"
#include "util/rng.hpp"

namespace difane {

class FaultInjector : public ChannelFaults {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan), rng_(plan.seed) {
    plan_.validate();
  }

  // ChannelFaults: perturb one control-message transmission. Loss beats
  // duplication (a lost message has no copies to duplicate); each surviving
  // copy draws its own jitter so duplicates can arrive out of order.
  void transmit(std::vector<double>& deliveries) override {
    ++counters_.msgs_total;
    if (plan_.msg_loss > 0.0 && rng_.bernoulli(plan_.msg_loss)) {
      deliveries.clear();
      ++counters_.msgs_lost;
      return;
    }
    if (plan_.msg_dup > 0.0 && rng_.bernoulli(plan_.msg_dup)) {
      deliveries.push_back(0.0);
      ++counters_.msgs_duplicated;
    }
    if (plan_.msg_jitter_prob > 0.0 && plan_.msg_jitter_max > 0.0) {
      bool jittered = false;
      for (double& extra : deliveries) {
        if (rng_.bernoulli(plan_.msg_jitter_prob)) {
          extra += rng_.uniform01() * plan_.msg_jitter_max;
          jittered = true;
        }
      }
      if (jittered) ++counters_.msgs_jittered;
    }
  }

  // One FlowMod install attempt: true => the switch fails the install.
  bool fail_install() {
    if (plan_.install_fail <= 0.0) return false;
    if (!rng_.bernoulli(plan_.install_fail)) return false;
    ++counters_.install_faults;
    return true;
  }

  // One heartbeat on the wire: true => it never reaches the monitor.
  bool heartbeat_lost() {
    if (plan_.msg_loss <= 0.0) return false;
    if (!rng_.bernoulli(plan_.msg_loss)) return false;
    ++counters_.heartbeats_lost;
    return true;
  }

  struct Counters {
    std::uint64_t msgs_total = 0;
    std::uint64_t msgs_lost = 0;
    std::uint64_t msgs_duplicated = 0;
    std::uint64_t msgs_jittered = 0;
    std::uint64_t install_faults = 0;
    std::uint64_t heartbeats_lost = 0;
  };

  const Counters& counters() const { return counters_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  Rng rng_;
  Counters counters_;
};

}  // namespace difane
