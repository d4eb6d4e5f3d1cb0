#include "classifier/dtree.hpp"

#include <algorithm>
#include <limits>

#include "flowspace/header.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace difane {

namespace {
// Only bits inside the 12-tuple can ever separate rules.
std::size_t usable_bits() { return header_bits_used(); }
}  // namespace

int choose_cut_bit(const std::vector<const Rule*>& rules, double dup_penalty,
                   std::size_t* n0_out, std::size_t* n1_out) {
  const std::size_t n = rules.size();
  int best_bit = -1;
  double best_score = std::numeric_limits<double>::infinity();
  std::size_t best_n0 = 0, best_n1 = 0;
  for (std::size_t bit = 0; bit < usable_bits(); ++bit) {
    std::size_t n0 = 0, n1 = 0;
    for (const Rule* r : rules) {
      if (!r->match.care().get(bit)) {
        ++n0;
        ++n1;  // wildcard: duplicated into both halves
      } else if (r->match.value().get(bit)) {
        ++n1;
      } else {
        ++n0;
      }
    }
    if (n0 == n || n1 == n) continue;  // no separation
    const double score = static_cast<double>(std::max(n0, n1)) +
                         dup_penalty * static_cast<double>(n0 + n1 - n);
    if (score < best_score) {
      best_score = score;
      best_bit = static_cast<int>(bit);
      best_n0 = n0;
      best_n1 = n1;
    }
  }
  if (n0_out) *n0_out = best_n0;
  if (n1_out) *n1_out = best_n1;
  return best_bit;
}

DTreeClassifier::DTreeClassifier(const RuleTable& table, DTreeParams params)
    : params_(params), rules_(table.rules()) {
  // Build wall time, aggregated process-wide.
  static obs::Timer* const build_timer =
      obs::MetricsRegistry::global().timer("dtree_build");
  obs::ScopedTimer timed(build_timer);
  // table.rules() is already priority-sorted; indices preserve that order.
  std::vector<std::uint32_t> all(rules_.size());
  for (std::uint32_t i = 0; i < rules_.size(); ++i) all[i] = i;
  root_ = build(all, 0);
}

std::uint32_t DTreeClassifier::make_leaf(const std::vector<std::uint32_t>& rules) {
  Node node;
  node.cut_bit = -1;
  node.leaf_begin = static_cast<std::uint32_t>(leaf_refs_.size());
  leaf_refs_.insert(leaf_refs_.end(), rules.begin(), rules.end());
  node.leaf_end = static_cast<std::uint32_t>(leaf_refs_.size());
  nodes_.push_back(node);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

std::uint32_t DTreeClassifier::build(std::vector<std::uint32_t>& rules,
                                     std::size_t depth) {
  depth_ = std::max(depth_, depth);
  if (rules.size() <= params_.leaf_size || depth >= params_.max_depth) {
    return make_leaf(rules);
  }
  std::vector<const Rule*> ptrs;
  ptrs.reserve(rules.size());
  for (const auto i : rules) ptrs.push_back(&rules_[i]);
  const int bit = choose_cut_bit(ptrs, params_.dup_penalty);
  if (bit < 0) return make_leaf(rules);  // indistinguishable rules

  std::vector<std::uint32_t> left, right;
  for (const auto i : rules) {
    const auto& m = rules_[i].match;
    if (!m.care().get(static_cast<std::size_t>(bit))) {
      left.push_back(i);
      right.push_back(i);
    } else if (m.value().get(static_cast<std::size_t>(bit))) {
      right.push_back(i);
    } else {
      left.push_back(i);
    }
  }
  // Guard against degenerate cuts (choose_cut_bit filters these, but keep the
  // invariant local).
  if (left.size() == rules.size() && right.size() == rules.size()) {
    return make_leaf(rules);
  }
  rules.clear();
  rules.shrink_to_fit();  // release before recursing: trees can be deep

  const std::uint32_t self = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[self].cut_bit = bit;
  const std::uint32_t l = build(left, depth + 1);
  const std::uint32_t r = build(right, depth + 1);
  nodes_[self].left = l;
  nodes_[self].right = r;
  return self;
}

const Rule* DTreeClassifier::classify(const BitVec& packet) const {
  if (nodes_.empty()) return nullptr;
  std::uint32_t at = root_;
  while (nodes_[at].cut_bit >= 0) {
    const auto bit = static_cast<std::size_t>(nodes_[at].cut_bit);
    at = packet.get(bit) ? nodes_[at].right : nodes_[at].left;
  }
  const Node& leaf = nodes_[at];
  for (std::uint32_t i = leaf.leaf_begin; i < leaf.leaf_end; ++i) {
    const Rule& rule = rules_[leaf_refs_[i]];
    if (rule.match.matches(packet)) return &rule;
  }
  return nullptr;
}

std::size_t DTreeClassifier::leaf_count() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.cut_bit < 0) ++n;
  }
  return n;
}

double DTreeClassifier::avg_leaf_rules() const {
  const std::size_t leaves = leaf_count();
  return leaves ? static_cast<double>(leaf_refs_.size()) / static_cast<double>(leaves)
                : 0.0;
}

double DTreeClassifier::duplication_factor() const {
  return rules_.empty() ? 1.0
                        : static_cast<double>(leaf_refs_.size()) /
                              static_cast<double>(rules_.size());
}

}  // namespace difane
