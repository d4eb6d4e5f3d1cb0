#include "core/symbolic_verifier.hpp"

#include <sstream>
#include <unordered_set>

#include "flowspace/header.hpp"
#include "util/rng.hpp"

namespace difane {

std::string SymbolicReport::summary() const {
  std::ostringstream os;
  os << regions_checked << " regions checked";
  if (exhausted) os << " (budget exhausted: inconclusive)";
  if (violation.has_value()) {
    os << "; VIOLATION in [" << pattern_to_string(violation->region)
       << "]: " << violation->detail;
  } else if (!exhausted) {
    os << "; clean";
  }
  return os.str();
}

namespace {

struct Budget {
  std::size_t remaining;
  bool spend(std::size_t n = 1) {
    if (remaining < n) {
      remaining = 0;
      return false;
    }
    remaining -= n;
    return true;
  }
};

// Check that for every packet in `region`, the policy's winner action equals
// `decided` and the policy covers the whole region. Walks the policy in
// priority order, peeling `region` by subtraction; terminates as soon as
// the region is fully claimed.
std::optional<SymbolicViolation> check_terminal(const Ternary& region,
                                                const Action& decided,
                                                const RuleTable& policy,
                                                Budget& budget, bool& exhausted,
                                                std::size_t& checked) {
  std::vector<Ternary> pieces{region};
  for (const auto& rule : policy.rules()) {
    if (pieces.empty()) break;
    std::vector<Ternary> next;
    for (const auto& piece : pieces) {
      if (!budget.spend()) {
        exhausted = true;
        return std::nullopt;
      }
      ++checked;
      const auto overlap = intersect(piece, rule.match);
      if (!overlap.has_value()) {
        next.push_back(piece);
        continue;
      }
      if (!(rule.action == decided)) {
        return SymbolicViolation{
            *overlap, "switch decides " + decided.to_string() + " but policy rule " +
                          std::to_string(rule.id) + " says " + rule.action.to_string()};
      }
      const auto rest = subtract(piece, rule.match);
      next.insert(next.end(), rest.begin(), rest.end());
    }
    pieces = std::move(next);
  }
  if (!pieces.empty()) {
    return SymbolicViolation{pieces.front(),
                             "switch decides " + decided.to_string() +
                                 " where the policy matches nothing"};
  }
  return std::nullopt;
}

// The sub-region of `region` covered by some policy rule, if any (black-hole
// detection: switch space matching nothing is only legal over
// policy-uncovered space).
std::optional<Ternary> covered_overlap(const Ternary& region, const RuleTable& policy,
                                       Budget& budget, bool& exhausted) {
  for (const auto& rule : policy.rules()) {
    if (!budget.spend()) {
      exhausted = true;
      return std::nullopt;
    }
    if (const auto overlap = intersect(region, rule.match)) return overlap;
  }
  return std::nullopt;
}

// Authority-side resolution of `region` (inside `partition.region`): the
// partition table's winner must agree with the policy everywhere, and the
// partition must not black-hole space the policy covers.
std::optional<SymbolicViolation> check_partition(const Ternary& region,
                                                 const Partition& partition,
                                                 const RuleTable& policy,
                                                 Budget& budget, bool& exhausted,
                                                 std::size_t& checked) {
  std::vector<Ternary> pieces{region};
  for (const auto& rule : partition.rules.rules()) {
    if (pieces.empty()) break;
    std::vector<Ternary> next;
    for (const auto& piece : pieces) {
      if (!budget.spend()) {
        exhausted = true;
        return std::nullopt;
      }
      const auto overlap = intersect(piece, rule.match);
      if (!overlap.has_value()) {
        next.push_back(piece);
        continue;
      }
      auto violation =
          check_terminal(*overlap, rule.action, policy, budget, exhausted, checked);
      if (violation.has_value() || exhausted) return violation;
      const auto rest = subtract(piece, rule.match);
      next.insert(next.end(), rest.begin(), rest.end());
    }
    pieces = std::move(next);
  }
  for (const auto& piece : pieces) {
    const auto covered = covered_overlap(piece, policy, budget, exhausted);
    if (exhausted) return std::nullopt;
    if (covered.has_value()) {
      return SymbolicViolation{*covered, "partition " + std::to_string(partition.id) +
                                             " black-holes space the policy covers"};
    }
  }
  return std::nullopt;
}

}  // namespace

SymbolicReport verify_ingress_symbolically(Network& net,
                                           const DifaneController& controller,
                                           const RuleTable& policy, SwitchId ingress,
                                           double now, SymbolicParams params) {
  SymbolicReport report;
  Budget budget{params.max_regions};
  const FlowTable& table = net.sw(ingress).table();

  // Effective match order at the switch: live entries of the cache,
  // authority and partition bands. An entry expired at `now` that lazy
  // expiry has not yet swept matches nothing.
  std::vector<const FlowEntry*> order;
  for (const auto band : {Band::kCache, Band::kAuthority, Band::kPartition}) {
    for (const auto& entry : table.entries(band)) {
      if (!entry.expired(now)) order.push_back(&entry);
    }
  }
  const auto failed_target = [&](const Action& action) {
    return action.type == ActionType::kEncap && net.sw(action.arg).failed();
  };

  // Exact-match (microflow) entries cover a single packet each. Subtracting
  // points shatters regions (one subtraction per cared bit), so they are
  // point-checked directly and left *unsubtracted* from the walk. The only
  // imprecision: a later violation whose entire witness lies on such points
  // would be a false alarm — `witness_real` filters those by sampling.
  const std::size_t used_bits = header_bits_used();
  std::unordered_set<BitVec> exact_points;
  BitVec used_mask;
  for (std::size_t b = 0; b < used_bits; ++b) used_mask.set(b, true);
  auto canon = [&](const BitVec& v) { return v & used_mask; };
  Rng witness_rng(0xd1fa);
  auto witness_real = [&](const Ternary& witness) {
    if (exact_points.empty()) return true;
    for (int tries = 0; tries < 12; ++tries) {
      if (!exact_points.count(canon(witness.sample_point(witness_rng)))) return true;
    }
    return false;
  };

  std::vector<Ternary> pending{Ternary::wildcard()};
  for (const FlowEntry* entry : order) {
    if (pending.empty()) break;
    // Point-check exact entries without splitting the walk.
    if (entry->rule.match.care_bits() >= static_cast<int>(used_bits)) {
      const BitVec point = canon(entry->rule.match.value());
      const Rule* want = policy.match(point);
      const bool terminal = entry->rule.action.type == ActionType::kForward ||
                            entry->rule.action.type == ActionType::kDrop;
      if (terminal) {
        if (want == nullptr || !(want->action == entry->rule.action)) {
          report.violation = SymbolicViolation{
              entry->rule.match, "exact entry decides " +
                                     entry->rule.action.to_string() +
                                     " but the policy says " +
                                     (want ? want->action.to_string()
                                           : std::string("<none>"))};
          return report;
        }
        exact_points.insert(point);
        continue;
      }
      // Other redirecting / punting exact entries are safe to skip: the
      // authority or controller resolves them against the policy.
      if (failed_target(entry->rule.action)) {
        report.violation = SymbolicViolation{
            entry->rule.match,
            "exact entry redirects to failed switch " +
                std::to_string(entry->rule.action.arg)};
        return report;
      }
      exact_points.insert(point);
      continue;
    }
    std::vector<Ternary> next;
    for (const auto& region : pending) {
      if (!budget.spend()) {
        report.exhausted = true;
        return report;
      }
      const auto overlap = intersect(region, entry->rule.match);
      if (!overlap.has_value()) {
        next.push_back(region);
        continue;
      }
      const Action& action = entry->rule.action;
      std::optional<SymbolicViolation> violation;
      switch (action.type) {
        case ActionType::kForward:
        case ActionType::kDrop:
          violation = check_terminal(*overlap, action, policy, budget,
                                     report.exhausted, report.regions_checked);
          break;
        case ActionType::kEncap: {
          if (failed_target(action)) {
            violation = SymbolicViolation{
                *overlap, "redirect to failed switch " + std::to_string(action.arg)};
            break;
          }
          const AuthorityNode* node = controller.node_at(action.arg);
          if (node == nullptr) {
            violation = SymbolicViolation{*overlap,
                                          "redirect to non-authority switch " +
                                              std::to_string(action.arg)};
            break;
          }
          // The region may span several partitions; each must be served by
          // the redirect target and must resolve consistently.
          for (const auto& partition : controller.plan().partitions()) {
            const auto in_part = intersect(*overlap, partition.region);
            if (!in_part.has_value()) continue;
            if (!node->serves(partition.id)) {
              violation = SymbolicViolation{
                  *in_part, "switch " + std::to_string(action.arg) +
                                " does not serve partition " +
                                std::to_string(partition.id)};
              break;
            }
            violation = check_partition(*in_part, partition, policy, budget,
                                        report.exhausted, report.regions_checked);
            if (violation.has_value() || report.exhausted) break;
          }
          break;
        }
        case ActionType::kToController:
          // Reactive path resolves against the policy itself.
          break;
      }
      if (report.exhausted) return report;
      if (violation.has_value() && witness_real(violation->region)) {
        report.violation = std::move(violation);
        return report;
      }
      const auto rest = subtract(region, entry->rule.match);
      next.insert(next.end(), rest.begin(), rest.end());
    }
    pending = std::move(next);
  }

  // Space matching nothing at the ingress is a black hole iff the policy
  // covers any of it.
  for (const auto& region : pending) {
    const auto covered = covered_overlap(region, policy, budget, report.exhausted);
    if (report.exhausted) return report;
    if (covered.has_value()) {
      report.violation = SymbolicViolation{
          *covered, "ingress matches nothing where the policy covers space"};
      return report;
    }
  }
  return report;
}

}  // namespace difane
