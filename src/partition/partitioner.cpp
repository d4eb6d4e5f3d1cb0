#include "partition/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "classifier/dtree.hpp"
#include "flowspace/header.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace difane {

namespace {

struct LeafRegion {
  Ternary region;
  std::vector<std::uint32_t> rule_indices;  // into the policy's priority order
};

class TreeBuilder {
 public:
  TreeBuilder(const RuleTable& policy, const PartitionerParams& params)
      : policy_(policy), params_(params), rng_(params.seed) {}

  std::vector<LeafRegion> run() {
    std::vector<std::uint32_t> all(policy_.size());
    std::iota(all.begin(), all.end(), 0u);
    recurse(Ternary::wildcard(), all, 0);
    return std::move(leaves_);
  }

 private:
  int pick_bit(const std::vector<std::uint32_t>& rules, const Ternary& region,
               std::size_t* best_max_side) {
    // Candidate bits: inside the used header, not already fixed by the region.
    CutTally tally;
    for (const auto i : rules) tally.add(policy_.at(i).match);
    const auto allowed = [&](std::size_t bit) {
      return !region.care().get(bit) &&
             (params_.strategy != CutStrategy::kIpBitsOnly || is_ip_bit(bit));
    };
    int bit = -1;
    if (params_.strategy == CutStrategy::kRandomBit) {
      std::vector<int> separating;
      for (std::size_t b = 0; b < header_bits_used(); ++b) {
        if (allowed(b) && tally.separates(b)) separating.push_back(static_cast<int>(b));
      }
      if (!separating.empty()) bit = separating[rng_.uniform(0, separating.size() - 1)];
    } else {
      bit = choose_cut_bit(tally, params_.dup_penalty, allowed);
    }
    if (bit >= 0) {
      const auto b = static_cast<std::size_t>(bit);
      *best_max_side = std::max(tally.n0(b), tally.n1(b));
    }
    return bit;
  }

  static bool is_ip_bit(std::size_t bit) {
    const auto& src = field_spec(Field::kIpSrc);
    const auto& dst = field_spec(Field::kIpDst);
    return (bit >= src.offset && bit < src.offset + src.width) ||
           (bit >= dst.offset && bit < dst.offset + dst.width);
  }

  void recurse(const Ternary& region, std::vector<std::uint32_t>& rules,
               std::size_t depth) {
    if (rules.size() <= params_.capacity || depth >= kPartitionMaxDepth) {
      leaves_.push_back(LeafRegion{region, std::move(rules)});
      return;
    }
    std::size_t best_max_side = rules.size();
    const int bit = pick_bit(rules, region, &best_max_side);
    // No separating bit, or the best cut leaves almost everything on one
    // side (pure duplication): stop here, capacity becomes soft.
    if (bit < 0 || static_cast<double>(best_max_side) >
                       kPartitionMinProgress * static_cast<double>(rules.size())) {
      leaves_.push_back(LeafRegion{region, std::move(rules)});
      return;
    }
    std::vector<std::uint32_t> left, right;
    for (const auto i : rules) {
      const auto& m = policy_.at(i).match;
      if (!m.care().get(static_cast<std::size_t>(bit))) {
        left.push_back(i);
        right.push_back(i);
      } else if (m.value().get(static_cast<std::size_t>(bit))) {
        right.push_back(i);
      } else {
        left.push_back(i);
      }
    }
    rules.clear();
    rules.shrink_to_fit();
    Ternary left_region = region;
    left_region.set_exact(static_cast<std::size_t>(bit), 1, 0);
    Ternary right_region = region;
    right_region.set_exact(static_cast<std::size_t>(bit), 1, 1);
    recurse(left_region, left, depth + 1);
    recurse(right_region, right, depth + 1);
  }

  const RuleTable& policy_;
  const PartitionerParams& params_;
  Rng rng_;
  std::vector<LeafRegion> leaves_;
};

// Longest-processing-time greedy bin packing: heaviest leaf first onto the
// currently lightest authority. The load metric is *traffic* (summed,
// region-scaled rule weights), not rule count: DIFANE balances the miss load
// across authority switches, and an authority that owns a rule-sparse but
// traffic-heavy region would otherwise become the hot spot.
std::vector<AuthorityIndex> assign_leaves(const std::vector<LeafRegion>& leaves,
                                          const std::vector<double>& leaf_weights,
                                          std::uint32_t k) {
  std::vector<std::size_t> order(leaves.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return leaf_weights[a] > leaf_weights[b];
  });
  std::vector<double> load(k, 0.0);
  std::vector<AuthorityIndex> assignment(leaves.size(), 0);
  for (const auto leaf : order) {
    const auto lightest = static_cast<AuthorityIndex>(
        std::min_element(load.begin(), load.end()) - load.begin());
    assignment[leaf] = lightest;
    load[lightest] += leaf_weights[leaf];
  }
  return assignment;
}

// A clipped copy of a rule carries the share of the rule's traffic that its
// clipped region represents: halving the region (one more cared bit) halves
// the expected traffic, assuming traffic uniform within the rule's region.
double clipped_weight(const Rule& rule, const Ternary& clipped) {
  const int shrink = rule.match.log2_size() - clipped.log2_size();
  return rule.weight * std::pow(2.0, -static_cast<double>(shrink));
}

}  // namespace

PartitionPlan Partitioner::build(const RuleTable& policy,
                                 std::uint32_t authority_count) const {
  expects(authority_count >= 1, "Partitioner: need at least one authority switch");
  // Produce at least one partition per authority switch: a plan with fewer
  // leaves than switches would leave the extras idle. Shrinking the
  // effective leaf capacity to ~(rules/k) forces enough cuts to spread load.
  PartitionerParams effective = params_;
  if (authority_count > 1 && !policy.empty()) {
    effective.capacity = std::max<std::size_t>(
        1, std::min(params_.capacity, policy.size() / authority_count));
  }
  TreeBuilder builder(policy, effective);
  auto leaves = builder.run();
  ensures(!leaves.empty(), "Partitioner: tree produced no leaves");

  std::vector<double> leaf_weights(leaves.size(), 0.0);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    for (const auto idx : leaves[i].rule_indices) {
      const Rule& rule = policy.at(idx);
      if (const auto inter = intersect(rule.match, leaves[i].region)) {
        leaf_weights[i] += clipped_weight(rule, *inter);
      }
    }
  }
  const auto assignment = assign_leaves(leaves, leaf_weights, authority_count);

  // Clipped copies get fresh ids (a policy rule may land in several
  // partitions; installed copies must not collide), with `origin` pointing
  // back at the policy rule.
  RuleId next_copy_id = 0;
  for (const auto& rule : policy.rules()) {
    next_copy_id = std::max(next_copy_id, rule.id + 1);
  }

  std::vector<Partition> partitions;
  partitions.reserve(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    Partition p;
    p.id = static_cast<PartitionId>(i);
    p.region = leaves[i].region;
    // Clip the policy to the leaf region. Leaf membership was tracked by cut
    // bits, which is equivalent to intersecting with the region pattern.
    std::vector<Rule> clipped;
    clipped.reserve(leaves[i].rule_indices.size());
    for (const auto idx : leaves[i].rule_indices) {
      const Rule& rule = policy.at(idx);
      auto inter = intersect(rule.match, p.region);
      // Membership by cut bits implies intersection is non-empty.
      ensures(inter.has_value(), "Partitioner: leaf member does not intersect region");
      Rule copy = rule;
      copy.match = *inter;
      copy.weight = clipped_weight(rule, *inter);
      copy.origin = rule.origin_or_self();
      copy.id = next_copy_id++;
      clipped.push_back(std::move(copy));
    }
    p.rules = RuleTable(std::move(clipped));
    p.primary = assignment[i];
    p.backup = authority_count > 1 ? (assignment[i] + 1) % authority_count
                                   : assignment[i];
    partitions.push_back(std::move(p));
  }
  return PartitionPlan(std::move(partitions), policy.size(), authority_count);
}

}  // namespace difane
