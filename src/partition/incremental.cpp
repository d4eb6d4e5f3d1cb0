#include "partition/incremental.hpp"

#include <algorithm>
#include <numeric>

#include "classifier/dtree.hpp"
#include "util/contract.hpp"

namespace difane {

IncrementalPartitioner::IncrementalPartitioner(const RuleTable& initial_policy,
                                               PartitionerParams params,
                                               std::uint32_t authority_count)
    : policy_(initial_policy), params_(params), authority_count_(authority_count) {
  expects(authority_count_ >= 1, "IncrementalPartitioner: need >= 1 authority");
  build_initial();
}

void IncrementalPartitioner::build_initial() {
  nodes_.clear();
  Node rootnode;
  rootnode.region = Ternary::wildcard();
  for (const auto& rule : policy_.rules()) rootnode.rules.push_back(rule);
  nodes_.push_back(std::move(rootnode));
  root_ = 0;
  // Split the root (recursively) until capacity holds everywhere.
  std::vector<PartitionId> ignore;
  std::vector<std::uint32_t> pending{root_};
  while (!pending.empty()) {
    const auto at = pending.back();
    pending.pop_back();
    if (nodes_[at].cut_bit < 0 && nodes_[at].rules.size() > params_.capacity) {
      split_leaf(at, ignore);
      if (nodes_[at].cut_bit >= 0) {
        pending.push_back(nodes_[at].left);
        pending.push_back(nodes_[at].right);
      }
    }
  }
}

int IncrementalPartitioner::pick_bit(const std::vector<Rule>& rules,
                                     const Ternary& region) const {
  CutTally tally;
  for (const auto& rule : rules) tally.add(rule.match);
  return choose_cut_bit(tally, params_.dup_penalty,
                        [&](std::size_t bit) { return !region.care().get(bit); });
}

void IncrementalPartitioner::sorted_insert(std::vector<Rule>& rules, Rule rule) {
  const auto pos = std::lower_bound(rules.begin(), rules.end(), rule, rule_before);
  rules.insert(pos, std::move(rule));
}

void IncrementalPartitioner::split_leaf(std::uint32_t node,
                                        std::vector<PartitionId>& touched) {
  const int bit = pick_bit(nodes_[node].rules, nodes_[node].region);
  if (bit < 0) return;  // indistinguishable rules: capacity is soft here

  Node left, right;
  left.region = nodes_[node].region;
  left.region.set_exact(static_cast<std::size_t>(bit), 1, 0);
  right.region = nodes_[node].region;
  right.region.set_exact(static_cast<std::size_t>(bit), 1, 1);
  // Sticky assignment: both halves start at the parent's home, so a split
  // moves no rules off-switch until a rebalance decides to.
  left.home = nodes_[node].home;
  right.home = nodes_[node].home;
  for (const auto& rule : nodes_[node].rules) {
    // Re-clip to each child region the rule reaches.
    if (auto li = intersect(rule.match, left.region)) {
      Rule copy = rule;
      copy.match = *li;
      left.rules.push_back(std::move(copy));
    }
    if (auto ri = intersect(rule.match, right.region)) {
      Rule copy = rule;
      copy.match = *ri;
      right.rules.push_back(std::move(copy));
    }
  }
  nodes_[node].rules.clear();
  nodes_[node].rules.shrink_to_fit();
  nodes_[node].cut_bit = bit;
  const auto l = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(std::move(left));
  const auto r = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(std::move(right));
  nodes_[node].left = l;
  nodes_[node].right = r;
  touched.push_back(l);
  touched.push_back(r);
}

void IncrementalPartitioner::insert_into(std::uint32_t node, const Rule& rule,
                                         std::vector<PartitionId>& touched) {
  Node& n = nodes_[node];
  if (n.cut_bit >= 0) {
    const auto bit = static_cast<std::size_t>(n.cut_bit);
    const std::uint32_t l = n.left;
    const std::uint32_t r = n.right;
    if (!rule.match.care().get(bit)) {
      insert_into(l, rule, touched);
      insert_into(r, rule, touched);
    } else if (rule.match.value().get(bit)) {
      insert_into(r, rule, touched);
    } else {
      insert_into(l, rule, touched);
    }
    return;
  }
  auto clipped = intersect(rule.match, n.region);
  ensures(clipped.has_value(), "insert_into: routed rule must intersect leaf");
  Rule copy = rule;
  copy.match = *clipped;
  sorted_insert(n.rules, std::move(copy));
  touched.push_back(node);
  if (n.rules.size() > params_.capacity) {
    split_leaf(node, touched);
  }
}

std::vector<PartitionId> IncrementalPartitioner::insert(const Rule& rule) {
  expects(!policy_.contains(rule.id), "IncrementalPartitioner: duplicate rule id");
  policy_.add(rule);
  std::vector<PartitionId> touched;
  insert_into(root_, rule, touched);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

std::vector<PartitionId> IncrementalPartitioner::remove(RuleId id) {
  if (!policy_.remove(id)) return {};
  std::vector<PartitionId> touched;
  std::vector<std::uint32_t> leaves;
  collect_leaves(root_, leaves);
  for (const auto leaf : leaves) {
    auto& rules = nodes_[leaf].rules;
    const auto before = rules.size();
    rules.erase(std::remove_if(rules.begin(), rules.end(),
                               [id](const Rule& r) { return r.id == id; }),
                rules.end());
    if (rules.size() != before) touched.push_back(leaf);
  }
  // Merge sibling leaf pairs that now fit together: re-clip from the policy
  // so the merged leaf is exact, not a union of clipped fragments.
  bool merged = true;
  while (merged) {
    merged = false;
    for (std::uint32_t at = 0; at < nodes_.size(); ++at) {
      Node& n = nodes_[at];
      if (!n.alive || n.cut_bit < 0) continue;
      Node& l = nodes_[n.left];
      Node& r = nodes_[n.right];
      if (l.cut_bit >= 0 || r.cut_bit >= 0) continue;
      // Count unique policy rules intersecting the parent region.
      std::size_t combined = 0;
      for (const auto& rule : policy_.rules()) {
        if (intersects(rule.match, n.region)) ++combined;
      }
      if (combined > params_.capacity) continue;
      std::vector<Rule> rebuilt;
      for (const auto& rule : policy_.rules()) {
        if (auto inter = intersect(rule.match, n.region)) {
          Rule copy = rule;
          copy.match = *inter;
          rebuilt.push_back(std::move(copy));
        }
      }
      // The merged leaf keeps the heavier child's home (ties go left): the
      // bulk of its rules already live there, so the merge itself moves the
      // smaller share.
      n.home = l.rules.size() >= r.rules.size() ? l.home : r.home;
      l.alive = false;
      r.alive = false;
      l.rules.clear();
      r.rules.clear();
      n.cut_bit = -1;
      n.rules = std::move(rebuilt);
      std::sort(n.rules.begin(), n.rules.end(), rule_before);
      touched.push_back(at);
      merged = true;
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

void IncrementalPartitioner::collect_leaves(std::uint32_t node,
                                            std::vector<std::uint32_t>& out) const {
  const Node& n = nodes_[node];
  if (!n.alive) return;
  if (n.cut_bit < 0) {
    out.push_back(node);
    return;
  }
  collect_leaves(n.left, out);
  collect_leaves(n.right, out);
}

std::size_t IncrementalPartitioner::partition_count() const {
  std::vector<std::uint32_t> leaves;
  collect_leaves(root_, leaves);
  return leaves.size();
}

std::size_t IncrementalPartitioner::total_rules() const {
  std::vector<std::uint32_t> leaves;
  collect_leaves(root_, leaves);
  std::size_t n = 0;
  for (const auto leaf : leaves) n += nodes_[leaf].rules.size();
  return n;
}

PartitionPlan IncrementalPartitioner::snapshot() {
  std::vector<std::uint32_t> leaves;
  collect_leaves(root_, leaves);
  // Sticky assignment: seed the per-authority loads from leaves that already
  // have a home, then LPT-pack only the homeless ones (largest first onto
  // the lightest authority — the same packing the batch partitioner uses,
  // restricted to the leaves that actually need a decision).
  std::vector<std::size_t> load(authority_count_, 0);
  std::vector<AuthorityIndex> assignment(leaves.size(), 0);
  std::vector<std::size_t> unassigned;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const Node& n = nodes_[leaves[i]];
    if (n.home >= 0 && static_cast<std::uint32_t>(n.home) < authority_count_) {
      assignment[i] = static_cast<AuthorityIndex>(n.home);
      load[assignment[i]] += n.rules.size();
    } else {
      unassigned.push_back(i);
    }
  }
  std::sort(unassigned.begin(), unassigned.end(),
            [&](std::size_t a, std::size_t b) {
              const auto la = nodes_[leaves[a]].rules.size();
              const auto lb = nodes_[leaves[b]].rules.size();
              if (la != lb) return la > lb;
              return a < b;  // deterministic tie-break by leaf order
            });
  for (const auto i : unassigned) {
    const auto lightest = static_cast<AuthorityIndex>(
        std::min_element(load.begin(), load.end()) - load.begin());
    assignment[i] = lightest;
    load[lightest] += nodes_[leaves[i]].rules.size();
    nodes_[leaves[i]].home = static_cast<std::int32_t>(lightest);
  }
  std::vector<Partition> partitions;
  partitions.reserve(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    Partition p;
    p.id = leaves[i];
    p.region = nodes_[leaves[i]].region;
    p.rules = RuleTable(nodes_[leaves[i]].rules);
    p.primary = assignment[i];
    p.backup = authority_count_ > 1 ? (assignment[i] + 1) % authority_count_
                                    : assignment[i];
    partitions.push_back(std::move(p));
  }
  return PartitionPlan(std::move(partitions), policy_.size(), authority_count_);
}

}  // namespace difane
