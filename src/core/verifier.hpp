// Installed-state verifier: an exact static check of the *actual switch
// tables* (not the controller's intent) against the reference policy, cut
// along DIFANE's own partition boundaries. Like VeriFlow it looks only at
// rules that interact, and the partitions' dependency graphs say which ones
// those are. It makes three structural passes, with no sampling and no
// budget:
//
//  1. Per plan, once: PartitionPlan::validate. The regions tile the header
//     space and each clipped table is the policy clipped to its region, so
//     each partition's winner is the policy's everywhere in its region.
//  2. Per ingress, redirects: the live partition band holds exactly one
//     entry per region, and every redirect, in the partition band or
//     cached, targets a live, reachable switch that serves every partition
//     the redirect overlaps. An authority ingress answers the regions it
//     serves from its own bindings, after its cache band, as the data plane
//     does, so its partition entries for them are not redirect-checked.
//  3. Per ingress, terminal cache entries in band order. A cached clipped
//     rule is safe iff live entries ahead of it claim its overlap with each
//     of its dependency parents. Any other terminal entry, minus the entries
//     ahead of it, is peeled against the clipped rules of each partition it
//     overlaps. Exact (microflow) entries ahead are never subtracted; a
//     piece with k free header bits can lie wholly on them only if 2^k is at
//     most their count, and only then are its points enumerated.
//
// Entries expired at the inspection instant do not match, as in the data
// plane, and neither do those the expiry sweep's guard cascade takes with
// them. The check only reads: it generates no cache install.
#pragma once

#include <string>
#include <vector>

#include "core/difane_controller.hpp"
#include "flowspace/rule_table.hpp"
#include "netsim/topology.hpp"

namespace difane {

enum class VerifyOutcome : std::uint8_t {
  kBadPlan,          // the partition plan disagrees with the policy
  kBlackHole,        // a region no partition entry covers
  kDanglingRedirect, // redirect to a failed switch, or one that does not serve
  kWrongAction,      // a terminal entry decides what the policy does not
  kUnreachable,      // no route toward a redirect target
};

const char* verify_outcome_name(VerifyOutcome outcome);

struct VerifyViolation {
  VerifyOutcome outcome;
  SwitchId ingress;  // kInvalidSwitch: the plan itself
  Ternary region;                     // the violation holds for some header in it
  std::string detail;
};

struct VerifyReport {
  std::vector<VerifyViolation> violations;  // the first 16 found
  bool clean() const { return violations.empty(); }
  std::string summary() const;
};

// Verify the installed state of `net` (as set up by `controller`) against
// `policy` at each of `ingresses`, as the tables stand at the instant `now`:
// entries expired by then do not match. Pass the engine's clock for a
// post-run sweep; 0.0 checks the freshly installed state.
VerifyReport verify_installed_state(Network& net, const DifaneController& controller,
                                    const RuleTable& policy,
                                    const std::vector<SwitchId>& ingresses,
                                    double now = 0.0);

}  // namespace difane
