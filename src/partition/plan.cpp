#include "partition/plan.hpp"

#include <algorithm>
#include <sstream>

#include "util/contract.hpp"

namespace difane {

PartitionPlan::PartitionPlan(std::vector<Partition> partitions,
                             std::size_t original_rule_count,
                             std::uint32_t authority_count)
    : partitions_(std::move(partitions)),
      original_rule_count_(original_rule_count),
      authority_count_(authority_count) {
  expects(!partitions_.empty(), "PartitionPlan: need at least one partition");
  expects(authority_count_ >= 1, "PartitionPlan: need at least one authority");
}

const Partition& PartitionPlan::find(const BitVec& packet) const {
  for (const auto& p : partitions_) {
    if (p.region.matches(packet)) return p;
  }
  // Regions cover the full space by construction; reaching here is a bug.
  throw contract_violation("PartitionPlan: packet in no partition region");
}

std::vector<Rule> PartitionPlan::make_partition_rules(Priority priority,
                                                      RuleId first_id,
                                                      bool use_backup) const {
  std::vector<Rule> out;
  out.reserve(partitions_.size());
  RuleId id = first_id;
  for (const auto& p : partitions_) {
    Rule r;
    r.id = id++;
    r.priority = priority;
    r.match = p.region;
    r.action = Action::encap(use_backup ? p.backup : p.primary);
    out.push_back(std::move(r));
  }
  return out;
}

std::size_t PartitionPlan::total_rules() const {
  std::size_t n = 0;
  for (const auto& p : partitions_) n += p.rules.size();
  return n;
}

double PartitionPlan::duplication_factor() const {
  if (original_rule_count_ == 0) return 1.0;
  return static_cast<double>(total_rules()) /
         static_cast<double>(original_rule_count_);
}

std::vector<std::size_t> PartitionPlan::rules_per_authority() const {
  std::vector<std::size_t> counts(authority_count_, 0);
  for (const auto& p : partitions_) counts.at(p.primary) += p.rules.size();
  return counts;
}

std::size_t PartitionPlan::max_rules_per_authority() const {
  const auto counts = rules_per_authority();
  return *std::max_element(counts.begin(), counts.end());
}

std::optional<std::string> PartitionPlan::validate(const RuleTable& policy) const {
  // Tiling. Pairwise disjoint regions, 2^-care_bits of the space each, add
  // up to at most the whole space; carrying pairs of equal-size regions
  // upward ends at exactly one whole space iff they add up to it, that is,
  // iff they cover it.
  std::vector<std::size_t> by_care(kHeaderBits + 1, 0);
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    const Partition& p = partitions_[i];
    for (std::size_t j = 0; j < i; ++j) {
      if (intersects(p.region, partitions_[j].region)) {
        std::ostringstream os;
        os << "partitions " << partitions_[j].id << " and " << p.id << " overlap";
        return os.str();
      }
    }
    ++by_care[static_cast<std::size_t>(p.region.care_bits())];
  }
  for (std::size_t c = kHeaderBits; c > 0; --c) by_care[c - 1] += by_care[c] / 2;
  if (by_care[0] != 1) return "the partition regions leave headers uncovered";

  // Each clipped table is the policy clipped to its region, in policy order.
  for (const auto& p : partitions_) {
    std::size_t next = 0;
    for (const auto& rule : policy.rules()) {
      const auto clipped = intersect(rule.match, p.region);
      if (!clipped.has_value()) continue;
      const Rule* got = next < p.rules.size() ? &p.rules.at(next) : nullptr;
      ++next;
      if (got != nullptr && got->match == *clipped && got->priority == rule.priority &&
          got->action == rule.action && got->origin_or_self() == rule.origin_or_self()) {
        continue;
      }
      std::ostringstream os;
      os << "partition " << p.id << " rule " << next - 1 << " is "
         << (got ? got->to_string() : "<missing>") << ", want policy rule "
         << rule.to_string() << " clipped to the region";
      return os.str();
    }
    if (next != p.rules.size()) {
      std::ostringstream os;
      os << "partition " << p.id << " holds " << p.rules.size() - next
         << " rules past the policy's clipped copies";
      return os.str();
    }
  }
  return std::nullopt;
}

void PartitionPlan::fail_over(AuthorityIndex failed) {
  for (auto& p : partitions_) {
    if (p.primary == failed) std::swap(p.primary, p.backup);
  }
}

void PartitionPlan::re_home(std::size_t index, AuthorityIndex new_primary) {
  expects(index < partitions_.size(), "re_home: partition index out of range");
  expects(new_primary < authority_count_, "re_home: authority out of range");
  auto& p = partitions_[index];
  if (p.primary == new_primary) return;
  const AuthorityIndex old_primary = p.primary;
  p.primary = new_primary;
  p.backup = old_primary;
}

}  // namespace difane
