// Decision-tree packet classifier (HiCuts-style, binary cuts on header
// bits). Rules with a wildcard in the cut bit are duplicated into both
// subtrees, so every leaf holds exactly the rules that can match packets
// reaching it. The same cut machinery, with capacity-bounded leaves, is what
// DIFANE's flow-space partitioner builds on. The tree also indexes each
// authority partition: it answers the redirect match and the overlap
// queries the dependency graph is built from.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "flowspace/header.hpp"
#include "flowspace/rule_table.hpp"

namespace difane {

// The recursion bound is kMaxDepth in dtree.cpp.
struct DTreeParams {
  std::size_t leaf_size = 8;     // stop splitting at or below this many rules
  // Relative weight of duplication vs. balance when scoring a cut bit:
  // score = max(n0, n1) + dup_penalty * (n0 + n1 - n).
  double dup_penalty = 1.0;
};

// Leaf size of the trees that index a rule table for matching and overlap
// queries (authority partitions, dependency graphs). Measured on the
// perfbench partitions against 16: 64 builds the trees 1.3-10x faster, and a
// match takes 0.23-0.28 us against 0.17-0.25 us.
inline constexpr std::size_t kIndexLeafSize = 64;

// Rule counts on either side of a cut at each header bit, shared by the
// three cut trees (this classifier, the partitioner and the incremental
// partitioner). A rule with a wildcard on the bit goes to both sides.
class CutTally {
 public:
  // Counts the rule's care and one bits, word by word.
  void add(const Ternary& match);

  std::size_t n0(std::size_t bit) const { return n_ - ones_[bit]; }
  std::size_t n1(std::size_t bit) const { return n_ - care_[bit] + ones_[bit]; }
  // True iff a cut at `bit` leaves some rule off each side.
  bool separates(std::size_t bit) const { return n0(bit) != n_ && n1(bit) != n_; }
  // Lower is better: max(n0, n1) + dup_penalty * (rules on both sides).
  double score(std::size_t bit, double dup_penalty) const {
    const std::size_t a = n0(bit), b = n1(bit);
    return static_cast<double>(std::max(a, b)) +
           dup_penalty * static_cast<double>(a + b - n_);
  }

 private:
  std::size_t n_ = 0;
  std::array<std::uint32_t, kHeaderBits> care_{};
  std::array<std::uint32_t, kHeaderBits> ones_{};
};

// The lowest-scoring separating bit of the 12-tuple that `allowed(bit)`
// admits, the lowest such bit on ties; -1 if no admitted bit separates.
template <typename Allowed>
int choose_cut_bit(const CutTally& tally, double dup_penalty, Allowed allowed) {
  int best_bit = -1;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t bit = 0; bit < header_bits_used(); ++bit) {
    if (!allowed(bit) || !tally.separates(bit)) continue;
    const double score = tally.score(bit, dup_penalty);
    if (score < best_score) {
      best_score = score;
      best_bit = static_cast<int>(bit);
    }
  }
  return best_bit;
}

class DTreeClassifier {
 public:
  // Indexes `table` by position: it must outlive the classifier and stay
  // unchanged while the classifier is in use.
  explicit DTreeClassifier(const RuleTable& table, DTreeParams params = {});
  DTreeClassifier(RuleTable&&, DTreeParams = {}) = delete;

  // Highest-priority matching rule or nullptr. Walks the tree, then scans the
  // leaf in priority order. The returned pointer is into the indexed table.
  const Rule* classify(const BitVec& packet) const;
  // The table index of that rule, or nullopt.
  std::optional<std::size_t> classify_index(const BitVec& packet) const;

  // Table indices of every rule that intersects `pattern`, ascending and
  // de-duplicated.
  std::vector<std::uint32_t> overlapping(const Ternary& pattern) const;

  // Structure stats (for the substrate-validation bench E10).
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  std::size_t depth() const { return depth_; }
  double avg_leaf_rules() const;
  // Total rule references across leaves / original rule count: the
  // duplication the cut strategy pays.
  double duplication_factor() const;

 private:
  struct Node {
    std::int32_t cut_bit = -1;                   // -1 => leaf
    std::uint32_t left = 0, right = 0;           // children, internal only
    std::uint32_t leaf_begin = 0, leaf_end = 0;  // [begin,end) into leaf_refs_
  };

  std::uint32_t build(std::vector<std::uint32_t>& rules, std::size_t depth);
  std::uint32_t make_leaf(const std::vector<std::uint32_t>& rules);
  const Node& leaf_for(const BitVec& packet) const;

  const std::vector<Rule>& rules_;         // the indexed table, priority order
  DTreeParams params_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> leaf_refs_;   // leaves' rule indices, priority-ordered
  std::uint32_t root_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace difane
