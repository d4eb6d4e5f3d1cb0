#include "flowspace/dependency.hpp"

#include <algorithm>

#include "classifier/dtree.hpp"
#include "util/contract.hpp"

namespace difane {

std::size_t DependencyGraph::edge_count() const {
  std::size_t n = 0;
  for (const auto& p : parents) n += p.size();
  return n;
}

std::size_t DependencyGraph::chain_depth(std::uint32_t i) const {
  expects(i < parents.size(), "chain_depth: index out of range");
  // Memoized DFS over a DAG (edges always go to strictly smaller indices, so
  // iterating upward in index order is a topological order).
  std::vector<std::size_t> depth(parents.size(), 0);
  for (std::uint32_t v = 0; v <= i; ++v) {
    for (const auto p : parents[v]) depth[v] = std::max(depth[v], depth[p] + 1);
  }
  return depth[i];
}

std::size_t DependencyGraph::max_chain_depth() const {
  std::size_t best = 0;
  std::vector<std::size_t> depth(parents.size(), 0);
  for (std::uint32_t v = 0; v < parents.size(); ++v) {
    for (const auto p : parents[v]) depth[v] = std::max(depth[v], depth[p] + 1);
    best = std::max(best, depth[v]);
  }
  return best;
}

namespace {

// Subtracts `higher` from every remainder piece it intersects, in place, and
// returns whether any did. A miss copies nothing. Piece order is not kept;
// only the set of pieces matters to the walk.
bool bite(std::vector<Ternary>& remainder, const Ternary& higher) {
  const std::size_t count = remainder.size();
  std::size_t kept = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (!intersects(remainder[k], higher)) {
      if (kept != k) remainder[kept] = remainder[k];
      ++kept;
      continue;
    }
    for (auto& piece : subtract(remainder[k], higher)) {
      remainder.push_back(std::move(piece));
    }
  }
  if (kept == count) return false;
  remainder.erase(remainder.begin() + static_cast<std::ptrdiff_t>(kept),
                  remainder.begin() + static_cast<std::ptrdiff_t>(count));
  return true;
}

}  // namespace

DependencyGraph build_dependency_graph(const RuleTable& table, std::size_t max_pieces) {
  const DTreeClassifier tree(table, DTreeParams{.leaf_size = kIndexLeafSize});
  return build_dependency_graph(table, tree, max_pieces);
}

DependencyGraph build_dependency_graph(const RuleTable& table,
                                       const DTreeClassifier& tree,
                                       std::size_t max_pieces) {
  expects(max_pieces >= 1, "build_dependency_graph: max_pieces must be at least 1");
  DependencyGraph graph;
  const std::size_t n = table.size();
  graph.parents.assign(n, {});
  graph.children.assign(n, {});
  graph.conservative.assign(n, false);

  std::vector<Ternary> remainder;
  for (std::size_t i = 0; i < n; ++i) {
    const Ternary& pred = table.at(i).match;
    auto& parents = graph.parents[i];
    remainder.assign(1, pred);
    bool exploded = false;
    // Walk the higher rules that intersect pred, from the one nearest i
    // upward; no other rule can bite a piece of pred. Only rules that
    // intersect the *remainder* are true dependencies; rules whose overlap
    // is already claimed by a rule in between are not.
    const auto candidates = tree.overlapping(pred);
    for (auto it = std::lower_bound(candidates.begin(), candidates.end(), i);
         it != candidates.begin();) {
      const std::uint32_t up = *--it;
      if (exploded) {
        // Conservative fallback: any intersecting higher rule is a parent.
        parents.push_back(up);
        continue;
      }
      if (!bite(remainder, table.at(up).match)) continue;
      parents.push_back(up);
      if (remainder.size() > max_pieces) {
        exploded = true;
        graph.conservative[i] = true;
      } else if (remainder.empty()) {
        break;  // fully shadowed above `up`
      }
    }
    std::sort(parents.begin(), parents.end());
    for (const auto p : parents) {
      graph.children[p].push_back(static_cast<std::uint32_t>(i));
    }
  }
  return graph;
}

std::vector<std::uint32_t> ancestor_closure(const DependencyGraph& graph,
                                            std::uint32_t idx) {
  expects(idx < graph.size(), "ancestor_closure: index out of range");
  std::vector<bool> seen(graph.size(), false);
  std::vector<std::uint32_t> stack{idx};
  std::vector<std::uint32_t> out;
  while (!stack.empty()) {
    const auto v = stack.back();
    stack.pop_back();
    for (const auto p : graph.parents[v]) {
      if (!seen[p]) {
        seen[p] = true;
        out.push_back(p);
        stack.push_back(p);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace difane
