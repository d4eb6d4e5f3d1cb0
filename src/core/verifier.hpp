// Installed-state verifier — a NetPlumber-lite static checker over the
// *actual switch tables* (not the controller's intent). For sampled packets
// at each ingress, it walks the data plane statically: cache / authority /
// partition band semantics (an authority switch's authority band is its
// AuthorityNode bindings), encapsulation tunnels, terminal forwarding.
// Detects black holes (no rule anywhere), dangling redirects (to a failed
// switch, or to one that does not own the packet), unreachable authorities,
// and disagreement with the reference policy. It only reads: authorities
// answer through AuthorityNode::resolve, which generates no cache install.
#pragma once

#include <string>
#include <vector>

#include "core/difane_controller.hpp"
#include "flowspace/rule_table.hpp"
#include "netsim/topology.hpp"

namespace difane {

enum class VerifyOutcome : std::uint8_t {
  kOk = 0,
  kBlackHole,       // no matching rule at the ingress
  kDanglingRedirect,// redirect landed at a switch without the partition
  kWrongAction,     // terminal action differs from the policy winner
  kUnreachable,     // no route toward redirect target / egress
};

const char* verify_outcome_name(VerifyOutcome outcome);

struct VerifyViolation {
  VerifyOutcome outcome = VerifyOutcome::kOk;
  SwitchId ingress = kInvalidSwitch;
  BitVec packet;
  std::string detail;
};

struct VerifyReport {
  std::size_t samples = 0;
  std::size_t ok = 0;
  std::vector<VerifyViolation> violations;  // capped at `max_violations`
  bool clean() const { return violations.empty(); }
  std::string summary() const;
};

struct VerifierParams {
  std::size_t samples_per_ingress = 500;
  std::size_t max_violations = 16;
  std::uint64_t seed = 1;
  // The instant the tables are inspected at: entries expired by `now` do not
  // match (exactly as the data plane would treat them). Pass the engine's
  // clock for a post-run sweep; 0.0 checks the freshly installed state.
  double now = 0.0;
};

// Statically verify the installed state of `net` (as set up by `controller`)
// against `policy`, sampling packets at each of `ingresses`.
VerifyReport verify_installed_state(Network& net, const DifaneController& controller,
                                    const RuleTable& policy,
                                    const std::vector<SwitchId>& ingresses,
                                    VerifierParams params = {});

}  // namespace difane
