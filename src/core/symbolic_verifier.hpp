// Symbolic (exhaustive) verification of installed state. Where
// verifier.hpp samples packets, this walks *regions*: starting from the full
// header space at an ingress switch, it peels the switch's table in band +
// priority order into disjoint ternary regions per winning entry, follows
// redirects into the owning partitions, and checks every terminal region's
// action against the reference policy. Coverage is exact — a black hole or
// wrong action over even a single header value is found — at the cost of
// region blowup on large tables, bounded by `max_regions`.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/difane_controller.hpp"
#include "netsim/topology.hpp"

namespace difane {

struct SymbolicViolation {
  Ternary region;       // a witness region (disjoint piece)
  std::string detail;
};

struct SymbolicReport {
  // nullopt => analysis completed; value => first violation found.
  std::optional<SymbolicViolation> violation;
  bool exhausted = false;     // region budget hit: result is inconclusive
  std::size_t regions_checked = 0;

  bool clean() const { return !violation.has_value() && !exhausted; }
  std::string summary() const;
};

struct SymbolicParams {
  // Total region-operation budget per ingress. Operations are cheap word
  // manipulations; the default allows policies of a few thousand rules.
  std::size_t max_regions = 20000000;
};

// Verify one ingress switch's view of the network exhaustively, as the data
// plane sees it at the instant `now`: entries expired by then do not match.
// Pass Scenario::end_clock() after a run; 0.0 only for a scenario that has
// not run. A redirect to a failed switch or to a switch that does not serve
// the region is a violation, like a black hole or a wrong action.
SymbolicReport verify_ingress_symbolically(Network& net,
                                           const DifaneController& controller,
                                           const RuleTable& policy, SwitchId ingress,
                                           double now, SymbolicParams params = {});

}  // namespace difane
