// FaultInjector: the runtime half of a FaultPlan. Seeded Rng streams drive
// every stochastic decision (message loss, duplication, jitter, install
// failures, heartbeat loss), drawn in event-execution order — which the
// engine makes deterministic — so a (seed, plan) pair replays bit-for-bit.
// The injector is passive: it owns no events of its own, it only answers
// "what happens to this transmission?" when a channel or monitor asks.
//
// Stream layout: with `shard_streams == 0` (the default) one Rng serves
// every draw — the order Scenario uses at threads=1, which E9's plan_* rows
// in bench/BASELINE.json pin. With shard_streams == S the injector keeps S+1
// independent streams split from the master seed via SplitMix64: draws made
// inside shard s (identified by shard::current_shard()) use stream s, and
// draws from the coordinator/global context (heartbeat ticks) use stream S. Each shard executes its own events in a deterministic
// order, so each stream's draw sequence — and therefore the whole chaos
// replay — is independent of worker-thread scheduling.
#pragma once

#include <cstdint>
#include <vector>

#include "ctrlchan/channel.hpp"
#include "engine/sharded.hpp"
#include "faults/plan.hpp"
#include "util/rng.hpp"

namespace difane {

class FaultInjector : public ChannelFaults {
 public:
  explicit FaultInjector(const FaultPlan& plan, std::size_t shard_streams = 0)
      : plan_(plan) {
    plan_.validate();
    std::uint64_t state = plan.seed;
    const std::size_t streams = shard_streams == 0 ? 1 : shard_streams + 1;
    streams_.reserve(streams);
    // Stream 0 of a single-stream injector is seeded with the plan seed
    // directly (the threads=1 draw order); split streams each get a SplitMix64
    // derivation so no two shards share a sequence.
    for (std::size_t i = 0; i < streams; ++i) {
      streams_.emplace_back(streams == 1 ? plan.seed : splitmix64(state));
    }
  }

  // ChannelFaults: perturb one control-message transmission. Loss beats
  // duplication (a lost message has no copies to duplicate); each surviving
  // copy draws its own jitter so duplicates can arrive out of order.
  void transmit(std::vector<double>& deliveries) override {
    Stream& s = stream();
    ++s.counters.msgs_total;
    if (plan_.msg_loss > 0.0 && s.rng.bernoulli(plan_.msg_loss)) {
      deliveries.clear();
      ++s.counters.msgs_lost;
      return;
    }
    if (plan_.msg_dup > 0.0 && s.rng.bernoulli(plan_.msg_dup)) {
      deliveries.push_back(0.0);
      ++s.counters.msgs_duplicated;
    }
    if (plan_.msg_jitter_prob > 0.0 && plan_.msg_jitter_max > 0.0) {
      bool jittered = false;
      for (double& extra : deliveries) {
        if (s.rng.bernoulli(plan_.msg_jitter_prob)) {
          extra += s.rng.uniform01() * plan_.msg_jitter_max;
          jittered = true;
        }
      }
      if (jittered) ++s.counters.msgs_jittered;
    }
  }

  // One FlowMod install attempt: true => the switch fails the install.
  bool fail_install() {
    if (plan_.install_fail <= 0.0) return false;
    Stream& s = stream();
    if (!s.rng.bernoulli(plan_.install_fail)) return false;
    ++s.counters.install_faults;
    return true;
  }

  // One heartbeat on the wire: true => it never reaches the monitor.
  bool heartbeat_lost() {
    if (plan_.msg_loss <= 0.0) return false;
    Stream& s = stream();
    if (!s.rng.bernoulli(plan_.msg_loss)) return false;
    ++s.counters.heartbeats_lost;
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

  // Totals across every stream. Only call outside parallel execution (the
  // Scenario collects after run()).
  const Counters& counters() const {
    totals_ = Counters{};
    for (const auto& s : streams_) {
      totals_.msgs_total += s.counters.msgs_total;
      totals_.msgs_lost += s.counters.msgs_lost;
      totals_.msgs_duplicated += s.counters.msgs_duplicated;
      totals_.msgs_jittered += s.counters.msgs_jittered;
      totals_.install_faults += s.counters.install_faults;
      totals_.heartbeats_lost += s.counters.heartbeats_lost;
    }
    return totals_;
  }
  const FaultPlan& plan() const { return plan_; }

 private:
  struct Stream {
    explicit Stream(std::uint64_t seed) : rng(seed) {}
    Rng rng;
    Counters counters;
  };

  Stream& stream() {
    if (streams_.size() == 1) return streams_[0];
    const std::uint32_t s = shard::current_shard();
    // Out-of-range shards (an executor wider than this injector was built
    // for) share the global stream rather than reading out of bounds.
    return s == shard::kNoShard || s + 1 >= streams_.size() ? streams_.back()
                                                            : streams_[s];
  }

  FaultPlan plan_;
  std::vector<Stream> streams_;
  mutable Counters totals_;
};

}  // namespace difane
