// OpenFlow-1.0-flavored control messages. DIFANE's promise is that the
// controller (and authority switches) manage switch state through ordinary
// flow-table messages — no new switch hardware. This module models the
// messages the simulator sends: cache-band FlowMod adds (authority switch ->
// ingress, or the NOX controller's microflow install), the three
// partition-migration messages, and telemetry export batches toward the
// collector.
#pragma once

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "obs/flow_export.hpp"
#include "switchsim/flow_table.hpp"

namespace difane {

// Add (or refresh in place, by rule id) one cache-band entry.
struct FlowMod {
  Rule rule;
  double idle_timeout = 0.0;
  // Protector entries this rule depends on (see FlowEntry::guards).
  std::vector<RuleId> guards;
};

// ---- live partition migration ("make-before-break" re-homing) -----------
// These three messages are the control vocabulary of a partition move. All of
// them are idempotent by construction — installs and flips refresh an entry
// in place by rule id, retire of an absent id is a no-op — so the reliable
// channel's retransmission/duplication path needs no special casing.

// Install a partition's authority rules at the destination switch (the
// make-before-break "make": the destination is fully stocked before any
// ingress is flipped toward it).
struct PartitionInstall {
  std::vector<Rule> rules;  // authority-band copies for one partition
};

// Flip one switch's partition-band redirect rule so new redirects chase the
// partition at its new home. The rule id is stable per partition, so the
// flip refreshes the existing entry in place.
struct PartitionFlip {
  Rule rule;  // partition-band redirect (encap to the new authority)
};

// Retire the source copy after the drain window: remove the listed
// authority-band rule ids. Removing an id the switch no longer holds (crash,
// duplicate retire) is a silent no-op.
struct PartitionRetire {
  std::vector<RuleId> rule_ids;
};

// One telemetry export batch travelling switch -> collector. Unlike the
// requests above this one flows *toward* the controller, which is why the
// channel endpoint is an abstract ControlEndpoint (below): the collector
// side reuses the exact same reliable-delivery machinery as a switch agent.
struct FlowExport {
  obs::FlowExportBatch batch;
};

using Request = std::variant<FlowMod, PartitionInstall, PartitionFlip,
                             PartitionRetire, FlowExport>;

// ---- replies -------------------------------------------------------------

struct FlowModReply {
  bool ok = false;
};

// Acknowledges a FlowExport batch by its per-exporter sequence number.
struct FlowExportAck {
  std::uint64_t seq = 0;
};

using Reply = std::variant<FlowModReply, FlowExportAck>;

// ---- endpoint ------------------------------------------------------------

// The receiving end of a ControlChannel. SwitchAgent (switch-side apply
// pipeline) and the telemetry CollectorEndpoint (controller-side collector)
// both implement it, so one channel class serves both directions of the
// control plane. deliver() receives a transported request and must
// eventually invoke `on_reply` (when non-empty) exactly once — the reliable
// channel turns that reply into the ack that stops retransmission.
class ControlEndpoint {
 public:
  using ReplyHandler = std::function<void(const Reply&)>;

  virtual ~ControlEndpoint() = default;
  virtual void deliver(const Request& request, ReplyHandler on_reply) = 0;
};

}  // namespace difane
