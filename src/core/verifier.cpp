#include "core/verifier.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "flowspace/header.hpp"

namespace difane {

const char* verify_outcome_name(VerifyOutcome outcome) {
  switch (outcome) {
    case VerifyOutcome::kBadPlan: return "bad_plan";
    case VerifyOutcome::kBlackHole: return "black_hole";
    case VerifyOutcome::kDanglingRedirect: return "dangling_redirect";
    case VerifyOutcome::kWrongAction: return "wrong_action";
    case VerifyOutcome::kUnreachable: return "unreachable";
  }
  return "?";
}

std::string VerifyReport::summary() const {
  if (violations.empty()) return "clean";
  std::ostringstream os;
  os << violations.size() << (violations.size() == 1 ? " violation" : " violations");
  for (const auto& v : violations) {
    os << "\n  [" << verify_outcome_name(v.outcome) << "] ";
    if (v.ingress == kInvalidSwitch) {
      os << "plan";
    } else {
      os << "ingress " << v.ingress;
    }
    os << ": " << v.detail;
  }
  return os.str();
}

namespace {

constexpr std::size_t kMaxViolations = 16;
// Subtraction pieces past this bound stop a peel. A stopped peel is reported
// as a violation, never as clean.
constexpr std::size_t kMaxPieces = 4096;

// Subtracts `claim` from every piece it intersects, in place, and returns
// whether any did. A miss copies nothing.
bool bite(std::vector<Ternary>& pieces, const Ternary& claim) {
  const std::size_t count = pieces.size();
  std::size_t kept = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (!intersects(pieces[k], claim)) {
      if (kept != k) pieces[kept] = pieces[k];
      ++kept;
      continue;
    }
    for (auto& rest : subtract(pieces[k], claim)) pieces.push_back(std::move(rest));
  }
  if (kept == count) return false;
  pieces.erase(pieces.begin() + static_cast<std::ptrdiff_t>(kept),
               pieces.begin() + static_cast<std::ptrdiff_t>(count));
  return true;
}

// The live cache entries ahead of the one being checked. Wildcard entries
// are subtracted; exact entries, which pin every used header bit, are
// looked up by point instead, since subtracting a point shatters a region
// into one piece per cared bit.
class Ahead {
 public:
  void add(const Ternary& match) {
    if (covers_used_bits(match)) {
      exact_[match.value() & used_bits_mask()].push_back(&match);
      ++exact_count_;
    } else {
      wild_.push_back(&match);
    }
  }

  // The pieces of `region` no wildcard entry ahead claims; nullopt when they
  // outgrow kMaxPieces.
  std::optional<std::vector<Ternary>> unclaimed(const Ternary& region) const {
    // One entry covering the whole region claims it without splitting it:
    // how a parent's cached copy or its cover-set shadow claims a cached
    // rule's overlap with that parent.
    for (const Ternary* claim : wild_) {
      if (covers(*claim, region)) return std::vector<Ternary>{};
    }
    std::vector<Ternary> pieces{region};
    for (const Ternary* claim : wild_) {
      if (bite(pieces, *claim) && pieces.size() > kMaxPieces) return std::nullopt;
      if (pieces.empty()) break;
    }
    return pieces;
  }

  // True iff exact entries ahead claim every header of `piece`. A piece
  // with k free used bits holds 2^k points, so it can lie wholly on them
  // only if 2^k is at most their count; only then are its points
  // enumerated.
  bool on_exact(const Ternary& piece) const {
    const BitVec free = used_bits_mask() & ~piece.care();
    const int k = free.popcount();
    if (k >= 64 || (std::uint64_t{1} << k) > exact_count_) return false;
    std::vector<std::size_t> bits;
    for (std::size_t b = 0; b < header_bits_used(); ++b) {
      if (free.get(b)) bits.push_back(b);
    }
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << k); ++m) {
      BitVec value = piece.value();
      for (std::size_t i = 0; i < bits.size(); ++i) value.set(bits[i], ((m >> i) & 1) != 0);
      std::vector<Ternary> left{Ternary(value, piece.care() | free)};
      const auto it = exact_.find(value & used_bits_mask());
      if (it == exact_.end()) return false;
      for (const Ternary* claim : it->second) bite(left, *claim);
      if (!left.empty()) return false;
    }
    return true;
  }

 private:
  std::vector<const Ternary*> wild_;
  std::unordered_map<BitVec, std::vector<const Ternary*>> exact_;  // by used bits
  std::size_t exact_count_ = 0;
};

class Checker {
 public:
  Checker(Network& net, const DifaneController& controller, double now,
          VerifyReport& report)
      : net_(net),
        controller_(controller),
        plan_(controller.plan()),
        now_(now),
        report_(report) {
    const auto& partitions = plan_.partitions();
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      region_index_.emplace(partitions[p].region, p);
      for (std::size_t r = 0; r < partitions[p].rules.size(); ++r) {
        clipped_.emplace(partitions[p].rules.at(r).id, std::make_pair(p, r));
      }
    }
  }

  bool full() const { return report_.violations.size() >= kMaxViolations; }

  void check_ingress(SwitchId ingress) {
    const FlowTable& table = net_.sw(ingress).table();
    check_partition_band(ingress, table);
    check_cache_band(ingress, table);
  }

 private:
  // One live redirect per region.
  void check_partition_band(SwitchId ingress, const FlowTable& table) {
    const AuthorityNode* local = controller_.node_at(ingress);
    std::vector<std::size_t> entries(plan_.partitions().size(), 0);
    for (const auto& entry : table.entries(Band::kPartition)) {
      if (entry.expired(now_)) continue;
      const Rule& rule = entry.rule;
      const auto it = region_index_.find(rule.match);
      if (it == region_index_.end()) {
        flag(VerifyOutcome::kDanglingRedirect, ingress, rule.match,
             "partition entry " + std::to_string(rule.id) +
                 " matches no partition region");
        continue;
      }
      const Partition& partition = plan_.partitions()[it->second];
      if (++entries[it->second] > 1) {
        flag(VerifyOutcome::kDanglingRedirect, ingress, rule.match,
             "partition " + std::to_string(partition.id) +
                 " has more than one partition entry");
        continue;
      }
      // An authority ingress answers the regions it serves from its bindings.
      if (local != nullptr && local->serves(partition.id)) continue;
      if (rule.action.type != ActionType::kEncap) {
        flag(VerifyOutcome::kWrongAction, ingress, rule.match,
             "partition entry " + std::to_string(rule.id) + " decides " +
                 rule.action.to_string() + " instead of redirecting");
        continue;
      }
      check_redirect(ingress, rule);
    }
    for (std::size_t p = 0; p < entries.size(); ++p) {
      if (entries[p] != 0) continue;
      const Partition& partition = plan_.partitions()[p];
      flag(VerifyOutcome::kBlackHole, ingress, partition.region,
           "no partition entry: partition " + std::to_string(partition.id) +
               "'s region matches nothing past the cache band");
    }
  }

  // In band order. An entry expired at `now` leaves at the next lookup's
  // sweep, and the sweep's cascade takes every entry that lists a departing
  // one among its guards: none of them matches.
  void check_cache_band(SwitchId ingress, const FlowTable& table) {
    const auto cache = table.entries(Band::kCache);
    std::unordered_set<RuleId> gone;
    for (const auto& entry : cache) {
      if (entry.expired(now_)) gone.insert(entry.rule.id);
    }
    for (bool grew = !gone.empty(); grew;) {
      grew = false;
      for (const auto& entry : cache) {
        if (gone.count(entry.rule.id) != 0) continue;
        for (const RuleId guard : entry.guards) {
          if (gone.count(guard) == 0) continue;
          gone.insert(entry.rule.id);
          grew = true;
          break;
        }
      }
    }
    Ahead ahead;
    for (const auto& entry : cache) {
      if (full()) return;
      if (gone.count(entry.rule.id) != 0) continue;
      const Rule& rule = entry.rule;
      switch (rule.action.type) {
        case ActionType::kEncap:
          check_redirect(ingress, rule);
          break;
        case ActionType::kForward:
        case ActionType::kDrop:
          check_terminal(ingress, rule, ahead);
          break;
        case ActionType::kToController:
          break;  // the controller resolves against the policy itself
      }
      ahead.add(rule.match);
    }
  }

  void flag(VerifyOutcome outcome, SwitchId ingress, const Ternary& region,
            std::string detail) {
    if (full()) return;
    report_.violations.push_back(VerifyViolation{outcome, ingress, region, std::move(detail)});
  }

  // The target must be live, reachable and serve every partition the
  // redirect overlaps: there AuthorityNode::handle answers from that
  // partition's clipped table, which pass 1 proved right.
  void check_redirect(SwitchId ingress, const Rule& rule) {
    const SwitchId target = rule.action.arg;
    const std::string what = "redirect " + std::to_string(rule.id);
    if (net_.sw(target).failed()) {
      flag(VerifyOutcome::kDanglingRedirect, ingress, rule.match,
           what + " to failed switch " + std::to_string(target));
      return;
    }
    if (target != ingress && net_.next_hop(ingress, target) == kInvalidSwitch) {
      flag(VerifyOutcome::kUnreachable, ingress, rule.match,
           what + ": no route to switch " + std::to_string(target));
      return;
    }
    const AuthorityNode* node = controller_.node_at(target);
    if (node == nullptr) {
      flag(VerifyOutcome::kDanglingRedirect, ingress, rule.match,
           what + " to non-authority switch " + std::to_string(target));
      return;
    }
    for (const auto& partition : plan_.partitions()) {
      if (!intersects(rule.match, partition.region) || node->serves(partition.id)) continue;
      flag(VerifyOutcome::kDanglingRedirect, ingress,
           *intersect(rule.match, partition.region),
           what + " overlaps partition " + std::to_string(partition.id) +
               ", which switch " + std::to_string(target) + " does not serve");
      return;
    }
  }

  void check_terminal(SwitchId ingress, const Rule& rule, const Ahead& ahead) {
    const auto it = clipped_.find(rule.id);
    if (it != clipped_.end()) {
      const auto [p, r] = it->second;
      const Rule& copy = plan_.partitions()[p].rules.at(r);
      if (copy.match == rule.match && copy.priority == rule.priority &&
          copy.action == rule.action && copy.origin_or_self() == rule.origin_or_self()) {
        check_parents(ingress, rule, p, r, ahead);
        return;
      }
    }
    peel(ingress, rule, ahead);
  }

  // A cached copy of clipped rule `r` of partition `p` decides a header
  // wrongly only where a higher rule of the partition matches it. For every
  // such header the dependency graph lists the nearest such rule among r's
  // parents (a conservative rule lists every higher rule it intersects), so
  // the copy is safe iff live entries ahead claim its overlap with each
  // parent.
  void check_parents(SwitchId ingress, const Rule& rule, std::size_t p, std::size_t r,
                     const Ahead& ahead) {
    const Partition& partition = plan_.partitions()[p];
    for (const auto parent : controller_.partition_index(p).graph().parents[r]) {
      const Rule& higher = partition.rules.at(parent);
      const auto overlap = intersect(higher.match, rule.match);
      if (!overlap.has_value()) continue;
      const auto what = [&] {
        return "cached rule " + std::to_string(rule.id) + " overlaps its parent rule " +
               std::to_string(higher.id) + " in partition " + std::to_string(partition.id);
      };
      const auto pieces = ahead.unclaimed(*overlap);
      if (!pieces.has_value()) {
        stopped(ingress, *overlap, what());
        return;
      }
      for (const auto& piece : *pieces) {
        if (ahead.on_exact(piece)) continue;
        flag(VerifyOutcome::kWrongAction, ingress, piece,
             what() + ", and no entry ahead claims the overlap");
        return;
      }
    }
  }

  // Any other terminal entry: subtract the entries ahead of it, then peel
  // what is left against the clipped rules of each partition it overlaps.
  // Every header it decides must have a clipped winner with its action.
  void peel(SwitchId ingress, const Rule& rule, const Ahead& ahead) {
    const auto decides = [&] { return "switch decides " + rule.action.to_string(); };
    const auto mine = ahead.unclaimed(rule.match);
    if (!mine.has_value()) {
      stopped(ingress, rule.match, "entry " + std::to_string(rule.id));
      return;
    }
    if (mine->empty()) return;  // wholly claimed ahead: the entry never matches
    for (const auto& partition : plan_.partitions()) {
      std::vector<Ternary> pieces;
      for (const auto& piece : *mine) {
        if (const auto in = intersect(piece, partition.region)) pieces.push_back(*in);
      }
      for (const auto& clipped : partition.rules.rules()) {
        if (pieces.empty()) break;
        if (!(clipped.action == rule.action)) {
          for (const auto& piece : pieces) {
            const auto wrong = intersect(piece, clipped.match);
            if (!wrong.has_value() || ahead.on_exact(*wrong)) continue;
            flag(VerifyOutcome::kWrongAction, ingress, *wrong,
                 decides() + " but policy rule " +
                     std::to_string(clipped.origin_or_self()) + " says " +
                     clipped.action.to_string());
            return;
          }
        }
        if (bite(pieces, clipped.match) && pieces.size() > kMaxPieces) {
          stopped(ingress, rule.match, "entry " + std::to_string(rule.id));
          return;
        }
      }
      for (const auto& piece : pieces) {
        if (ahead.on_exact(piece)) continue;
        flag(VerifyOutcome::kWrongAction, ingress, piece,
             decides() + " where the policy matches nothing");
        return;
      }
    }
  }

  void stopped(SwitchId ingress, const Ternary& region, const std::string& what) {
    flag(VerifyOutcome::kWrongAction, ingress, region,
         what + ": not proven safe within " + std::to_string(kMaxPieces) + " pieces");
  }

  Network& net_;
  const DifaneController& controller_;
  const PartitionPlan& plan_;
  double now_;
  VerifyReport& report_;
  std::unordered_map<Ternary, std::size_t> region_index_;  // region -> partition
  // Clipped rule id -> (partition, rule) positions.
  std::unordered_map<RuleId, std::pair<std::size_t, std::size_t>> clipped_;
};

}  // namespace

VerifyReport verify_installed_state(Network& net, const DifaneController& controller,
                                    const RuleTable& policy,
                                    const std::vector<SwitchId>& ingresses, double now) {
  VerifyReport report;
  // Pass 1, once per plan; the per-ingress passes rest on it.
  if (const auto bad = controller.plan().validate(policy)) {
    report.violations.push_back(
        VerifyViolation{VerifyOutcome::kBadPlan, kInvalidSwitch, Ternary::wildcard(), *bad});
    return report;
  }
  Checker checker(net, controller, now, report);
  for (const auto ingress : ingresses) {
    if (checker.full()) break;
    checker.check_ingress(ingress);
  }
  return report;
}

}  // namespace difane
