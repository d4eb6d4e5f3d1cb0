// NOX-style reactive control plane — the baseline DIFANE is measured
// against. Every flow's first packet is punted to a central controller,
// which matches it against the policy, installs an exact-match (microflow)
// rule at the ingress switch, and packet-outs the original packet. The
// controller has a finite service rate and queue: that box is the
// flow-setup bottleneck the paper's throughput figure exposes.
#pragma once

#include <cstdint>
#include <optional>

#include "flowspace/rule_table.hpp"
#include "netsim/service_queue.hpp"
#include "switchsim/flow_table.hpp"

namespace difane {

// The switch <-> controller latency is kNoxOneWayLatency in core/system.cpp,
// and microflow rule ids start at NoxControlPlane::kMicroflowIdBase.
struct NoxParams {
  double service_time = 2e-5;   // ~50K flow setups/s, NOX-era throughput
  double max_backlog = 0.02;    // drop punts once queueing exceeds 20 ms
};

class NoxControlPlane {
 public:
  // `policy` must outlive the control plane.
  NoxControlPlane(const RuleTable& policy, NoxParams params)
      : policy_(policy), params_(params),
        queue_(params.service_time, params.max_backlog),
        next_microflow_id_(kMicroflowIdBase) {}

  struct Decision {
    SimTime ready_time = 0.0;       // when the controller finished processing
    const Rule* winner = nullptr;   // policy winner, nullptr if none matched
    std::optional<Rule> cache_rule; // microflow rule for the ingress switch
  };

  // A punt arriving at the controller at `arrival`. Returns nullopt when the
  // controller queue rejects it (overload). The caller adds the propagation
  // latency on both directions.
  std::optional<Decision> handle_punt(SimTime arrival, const BitVec& packet);

  const NoxParams& params() const { return params_; }
  const ServiceQueue& queue() const { return queue_; }
  std::uint64_t punts() const { return punts_; }

 private:
  static constexpr RuleId kMicroflowIdBase = 0x80000000u;

  const RuleTable& policy_;
  NoxParams params_;
  ServiceQueue queue_;
  RuleId next_microflow_id_;
  std::uint64_t punts_ = 0;
};

}  // namespace difane
