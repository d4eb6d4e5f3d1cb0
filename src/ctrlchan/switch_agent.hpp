// The switch-local control agent: receives control messages, applies them to
// the switch's flow table in arrival order, and emits replies. Message
// processing takes time (a real switch's flow-mod path is ~ms-scale), so a
// reply means the request has been *applied*, not merely received.
//
// Admitted requests wait in a FIFO, each with its apply time and the engine
// number it took at delivery; only the head has an engine event. The head's
// handler schedules the next head, then applies. Apply times never decrease
// along the FIFO and numbers increase, so each head is scheduled before it
// could be the earliest pending event, and the applies run exactly as if
// each had been scheduled at delivery. A backlog of any depth holds one
// engine event.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "ctrlchan/messages.hpp"
#include "netsim/engine.hpp"
#include "switchsim/sw.hpp"

namespace difane {

// Per-message apply time. Every SwitchAgent uses this default (kCosts in
// switch_agent.cpp); the struct lets other code read it.
struct SwitchAgentParams {
  double flow_mod_cost = 1e-4;   // apply time per flow-mod (typical ~0.1-1ms)
};

class SwitchAgent : public ControlEndpoint {
 public:
  using ReplyHandler = ControlEndpoint::ReplyHandler;

  SwitchAgent(Engine& engine, Switch& sw) : engine_(engine), switch_(sw) {}

  // Deliver a request to the agent (already transported; the channel adds
  // propagation latency). Requests are applied in delivery order; the reply
  // is emitted through `on_reply` when the request finishes applying.
  void deliver(const Request& request, ReplyHandler on_reply = {}) override;

  // Fault hook: invoked per FlowMod; returning true makes the install fail
  // at the switch (the reply still flows, ok = false). Models a TCAM write
  // error / partial install under the fault-injection layer.
  using InstallFaultHook = std::function<bool()>;
  void set_install_fault_hook(InstallFaultHook hook) {
    install_fault_ = std::move(hook);
  }

  // Strict guard checking: reject a cache-band add whose guard (protector)
  // entries are not all present. With an exactly-once in-order channel the
  // protectors-first install order makes this vacuous, but under message
  // loss or install faults a dependent could land without its protector and
  // steal packets it must not own. Rejecting it keeps partial group installs
  // safe: the flow over-redirects (always correct) instead of mis-forwarding.
  // Off by default so the fault-free baseline stays byte-identical.
  void set_strict_guards(bool strict) { strict_guards_ = strict; }

  Switch& attached_switch() { return switch_; }
  std::uint64_t applied() const { return applied_; }
  std::uint64_t install_faults() const { return install_faults_; }
  std::uint64_t guard_rejects() const { return guard_rejects_; }

 private:
  struct Admitted {
    Request request;
    ReplyHandler on_reply;
    double done;         // apply time
    std::uint64_t seq;   // engine number taken at delivery
  };
  double admit(double cost);
  void schedule_head();
  void apply_head();
  void apply(const Request& request, const ReplyHandler& on_reply);

  Engine& engine_;
  Switch& switch_;
  InstallFaultHook install_fault_;
  bool strict_guards_ = false;
  double next_free_ = 0.0;  // serialization of the agent's control pipeline
  std::deque<Admitted> backlog_;  // admitted, not yet applied; head scheduled
  std::uint64_t applied_ = 0;
  std::uint64_t install_faults_ = 0;
  std::uint64_t guard_rejects_ = 0;
};

// One row per distinct origin rule: counters summed over every installed
// copy (cache entries at the switches, clipped rules in the authority
// switches' bindings), so the controller sees exactly the per-policy-rule
// counters it would have seen with one giant table. This is the
// transparency property.
struct FlowStatsEntry {
  RuleId origin = kInvalidRuleId;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t installed_copies = 0;
};

// Aggregate counters per origin rule across one switch's cache band, live
// entries and retired ones. Copies (dependent-set clippings, microflow
// entries) fold into their origin; rules with no origin report under their
// own id. The authority band's rows come from AuthorityNode::flow_stats.
std::vector<FlowStatsEntry> collect_stats(const Switch& sw);

// Merge stats rows from several switches (same origin folds together).
std::vector<FlowStatsEntry> merge_stats(
    const std::vector<std::vector<FlowStatsEntry>>& per_switch);

}  // namespace difane
