// Rule dependency graph. Rule r depends on higher-priority rule s when some
// packet inside r's predicate would be stolen by s if r were installed
// without s. Caching a rule therefore requires caching (or otherwise
// neutralizing) its dependency closure — this drives DIFANE's wildcard
// cache-rule generation.
#pragma once

#include <cstdint>
#include <vector>

#include "flowspace/rule_table.hpp"

namespace difane {

struct DependencyGraph {
  // parents[i]: indices (into the table's priority order) of the rules that
  // rule i directly depends on — the higher-priority rules that overlap the
  // part of rule i's predicate not already owned by an even-higher rule.
  std::vector<std::vector<std::uint32_t>> parents;
  // children[i]: inverse edges.
  std::vector<std::vector<std::uint32_t>> children;
  // True for rules where the residual decomposition exceeded the piece budget
  // and edges were added conservatively (every intersecting higher rule).
  std::vector<bool> conservative;

  std::size_t size() const { return parents.size(); }
  std::size_t edge_count() const;
  // Longest parent-chain length from i upward (depth 0 = no parents).
  std::size_t chain_depth(std::uint32_t i) const;
  std::size_t max_chain_depth() const;
};

class DTreeClassifier;

// Build the graph with the exact residual algorithm: walk higher-priority
// rules in priority order, keep the not-yet-claimed remainder of rule i's
// predicate, and add an edge whenever a higher rule bites into the remainder.
// A decision tree over the table supplies each rule's intersecting rules, so
// the walk skips the higher rules that cannot bite. `max_pieces` must be at
// least 1. Compiled into difane_classifier, which provides the tree.
DependencyGraph build_dependency_graph(const RuleTable& table,
                                       std::size_t max_pieces = 4096);
// The same graph from an already built tree over `table`.
DependencyGraph build_dependency_graph(const RuleTable& table,
                                       const DTreeClassifier& tree,
                                       std::size_t max_pieces = 4096);

// All rules reachable upward from `idx` (its dependent set, excluding idx).
std::vector<std::uint32_t> ancestor_closure(const DependencyGraph& graph,
                                            std::uint32_t idx);

}  // namespace difane
