#include "classifier/dtree.hpp"

namespace difane {

namespace {

constexpr std::size_t kMaxDepth = 64;  // hard recursion bound

}  // namespace

void CutTally::add(const Ternary& match) {
  ++n_;
  for (std::size_t word = 0; word < kHeaderWords; ++word) {
    const std::uint64_t ones = match.value().w[word];
    for (std::uint64_t care = match.care().w[word]; care != 0; care &= care - 1) {
      const auto bit = static_cast<unsigned>(__builtin_ctzll(care));
      ++care_[word * 64 + bit];
      ones_[word * 64 + bit] += static_cast<std::uint32_t>((ones >> bit) & 1ULL);
    }
  }
}

DTreeClassifier::DTreeClassifier(const RuleTable& table, DTreeParams params)
    : rules_(table.rules()), params_(params) {
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
  if (rules.size() <= params_.leaf_size || depth >= kMaxDepth) {
    return make_leaf(rules);
  }
  CutTally tally;
  for (const auto i : rules) tally.add(rules_[i].match);
  const int bit =
      choose_cut_bit(tally, params_.dup_penalty, [](std::size_t) { return true; });
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

const DTreeClassifier::Node& DTreeClassifier::leaf_for(const BitVec& packet) const {
  std::uint32_t at = root_;
  while (nodes_[at].cut_bit >= 0) {
    const auto bit = static_cast<std::size_t>(nodes_[at].cut_bit);
    at = packet.get(bit) ? nodes_[at].right : nodes_[at].left;
  }
  return nodes_[at];
}

std::optional<std::size_t> DTreeClassifier::classify_index(const BitVec& packet) const {
  const Node& leaf = leaf_for(packet);
  for (std::uint32_t i = leaf.leaf_begin; i < leaf.leaf_end; ++i) {
    if (rules_[leaf_refs_[i]].match.matches(packet)) return leaf_refs_[i];
  }
  return std::nullopt;
}

const Rule* DTreeClassifier::classify(const BitVec& packet) const {
  const auto index = classify_index(packet);
  return index ? &rules_[*index] : nullptr;
}

std::vector<std::uint32_t> DTreeClassifier::overlapping(const Ternary& pattern) const {
  std::vector<std::uint32_t> out;
  // Descend into the side the pattern fixes, or both where it has a
  // wildcard on the cut bit; leaves hold every rule that can reach them.
  std::vector<std::uint32_t> stack{root_};
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (node.cut_bit < 0) {
      for (std::uint32_t i = node.leaf_begin; i < node.leaf_end; ++i) {
        if (intersects(rules_[leaf_refs_[i]].match, pattern)) {
          out.push_back(leaf_refs_[i]);
        }
      }
      continue;
    }
    const auto bit = static_cast<std::size_t>(node.cut_bit);
    if (!pattern.care().get(bit)) {
      stack.push_back(node.left);
      stack.push_back(node.right);
    } else {
      stack.push_back(pattern.value().get(bit) ? node.right : node.left);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
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
