#include <gtest/gtest.h>

#include "classifier/dtree.hpp"
#include "flowspace/dependency.hpp"
#include "flowspace/header.hpp"
#include "util/rng.hpp"
#include "workload/rulegen.hpp"

namespace difane {
namespace {

Rule rule_with(RuleId id, Priority priority, Ternary match) {
  Rule r;
  r.id = id;
  r.priority = priority;
  r.match = match;
  r.action = Action::drop();
  return r;
}

// Nested dst-prefix chain: /32 above /24 above /16 above default.
RuleTable chain_policy() {
  RuleTable t;
  Ternary m32, m24, m16;
  match_prefix(m32, Field::kIpDst, make_ipv4(10, 1, 1, 1), 32);
  match_prefix(m24, Field::kIpDst, make_ipv4(10, 1, 1, 0), 24);
  match_prefix(m16, Field::kIpDst, make_ipv4(10, 1, 0, 0), 16);
  t.add(rule_with(0, 40, m32));
  t.add(rule_with(1, 30, m24));
  t.add(rule_with(2, 20, m16));
  t.add(rule_with(3, 10, Ternary::wildcard()));
  return t;
}

TEST(Dependency, ChainHasChainEdges) {
  const auto t = chain_policy();
  const auto g = build_dependency_graph(t);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_TRUE(g.parents[0].empty());
  EXPECT_EQ(g.parents[1], (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(g.parents[2], (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(g.parents[3], (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.max_chain_depth(), 3u);
  EXPECT_EQ(g.chain_depth(3), 3u);
}

TEST(Dependency, IndirectShadowingIsNotAnEdge) {
  // The /16 fully contains the /24 which fully contains the /32: the default
  // rule's direct parent is only the /16... but wait, the /16 does not cover
  // the whole default. The default depends only on the /16 because after
  // subtracting the /16, the /24 and /32 are gone from the remainder.
  const auto t = chain_policy();
  const auto g = build_dependency_graph(t);
  // Rule 3 (default) must not list rules 0 or 1 as parents: rule 2 already
  // claims their whole overlap with the default.
  EXPECT_EQ(g.parents[3], (std::vector<std::uint32_t>{2}));
}

TEST(Dependency, SiblingsBothParentsOfDefault) {
  RuleTable t;
  Ternary tcp, udp;
  match_exact(tcp, Field::kIpProto, 6);
  match_exact(udp, Field::kIpProto, 17);
  t.add(rule_with(0, 20, tcp));
  t.add(rule_with(1, 20, udp));
  t.add(rule_with(2, 10, Ternary::wildcard()));
  const auto g = build_dependency_graph(t);
  EXPECT_EQ(g.parents[2], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(g.parents[0].empty());
  EXPECT_TRUE(g.parents[1].empty());  // disjoint from tcp
  EXPECT_EQ(g.children[0], (std::vector<std::uint32_t>{2}));
}

TEST(Dependency, AncestorClosureIsTransitive) {
  const auto t = chain_policy();
  const auto g = build_dependency_graph(t);
  EXPECT_EQ(ancestor_closure(g, 3), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(ancestor_closure(g, 1), (std::vector<std::uint32_t>{0}));
  EXPECT_TRUE(ancestor_closure(g, 0).empty());
}

TEST(Dependency, DisjointRulesHaveNoEdges) {
  RuleTable t;
  Ternary a, b;
  match_exact(a, Field::kTpDst, 80);
  match_exact(b, Field::kTpDst, 22);
  t.add(rule_with(0, 20, a));
  t.add(rule_with(1, 10, b));
  const auto g = build_dependency_graph(t);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Dependency, ConservativeFallbackOverapproximates) {
  // Force the explosion guard with a tiny piece budget; edges must become a
  // superset of the exact ones, flagged conservative.
  RuleTable t;
  for (RuleId i = 0; i < 12; ++i) {
    Ternary m;
    // Two care bits per rule on disjoint pairs: the residual of the default
    // rule doubles with every subtraction, tripping a small piece budget.
    m.set_exact(2 * static_cast<std::size_t>(i), 1, 1);
    m.set_exact(2 * static_cast<std::size_t>(i) + 1, 1, 1);
    t.add(rule_with(i, static_cast<Priority>(100 - i), m));
  }
  t.add(rule_with(99, 1, Ternary::wildcard()));
  const auto exact = build_dependency_graph(t, 1 << 14);
  const auto conservative = build_dependency_graph(t, 2);
  const auto idx = t.size() - 1;
  EXPECT_TRUE(conservative.conservative[idx]);
  // Superset check.
  for (const auto p : exact.parents[idx]) {
    EXPECT_NE(std::find(conservative.parents[idx].begin(),
                        conservative.parents[idx].end(), p),
              conservative.parents[idx].end());
  }
}

// Property: i depends on j  <=>  some packet matching both i and j is not
// matched by any rule between them. Verified by sampling on random policies
// confined to one byte so overlaps are frequent.
class DependencyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DependencyProperty, EdgesMatchSampledSemantics) {
  Rng rng(GetParam());
  RuleTable t;
  for (RuleId i = 0; i < 10; ++i) {
    Ternary m;
    const auto bits = rng.uniform(0, 6);
    for (std::uint64_t b = 0; b < bits; ++b) {
      m.set_exact(rng.uniform(0, 7), 1, rng.uniform(0, 1));
    }
    t.add(rule_with(i, static_cast<Priority>(100 - i), m));
  }
  const auto g = build_dependency_graph(t, 1 << 16);
  for (std::uint32_t child = 0; child < t.size(); ++child) {
    for (std::uint32_t parent = 0; parent < child; ++parent) {
      const bool edge = std::find(g.parents[child].begin(), g.parents[child].end(),
                                  parent) != g.parents[child].end();
      // Sample points in child ∩ parent; the edge exists iff some such point
      // is unclaimed by every rule strictly between parent and child.
      const auto overlap = intersect(t.at(child).match, t.at(parent).match);
      if (!overlap.has_value()) {
        EXPECT_FALSE(edge);
        continue;
      }
      // All patterns live in bits 0..7, so enumerating that byte (with the
      // other bits zero) is an exhaustive semantic check.
      bool found_leak = false;
      for (std::uint64_t v = 0; v < 256 && !found_leak; ++v) {
        BitVec p;
        p.set_bits(0, 8, v);
        if (!t.at(child).match.matches(p) || !t.at(parent).match.matches(p)) continue;
        bool claimed = false;
        for (std::uint32_t mid = parent + 1; mid < child; ++mid) {
          if (t.at(mid).match.matches(p)) {
            claimed = true;
            break;
          }
        }
        if (!claimed) found_leak = true;
      }
      EXPECT_EQ(edge, found_leak) << "edge " << child << "<-" << parent;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DependencyProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// The reference builder: for every rule, walk every higher rule, intersecting
// or not, with the same remainder logic. O(n^2) per table.
DependencyGraph quadratic_graph(const RuleTable& table, std::size_t max_pieces) {
  DependencyGraph graph;
  const std::size_t n = table.size();
  graph.parents.assign(n, {});
  graph.children.assign(n, {});
  graph.conservative.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const Ternary& pred = table.at(i).match;
    std::vector<Ternary> remainder{pred};
    bool exploded = false;
    for (std::size_t up = i; up-- > 0;) {
      const Ternary& higher = table.at(up).match;
      if (!exploded) {
        bool bites = false;
        std::vector<Ternary> next;
        for (const auto& piece : remainder) {
          if (intersects(piece, higher)) {
            bites = true;
            auto sub = subtract(piece, higher);
            next.insert(next.end(), sub.begin(), sub.end());
          } else {
            next.push_back(piece);
          }
        }
        if (next.size() > max_pieces) {
          exploded = true;
          graph.conservative[i] = true;
        } else {
          remainder = std::move(next);
        }
        if (bites) graph.parents[i].push_back(static_cast<std::uint32_t>(up));
        if (!exploded && remainder.empty()) break;
      } else if (intersects(pred, higher)) {
        graph.parents[i].push_back(static_cast<std::uint32_t>(up));
      }
    }
    std::sort(graph.parents[i].begin(), graph.parents[i].end());
    for (const auto p : graph.parents[i]) {
      graph.children[p].push_back(static_cast<std::uint32_t>(i));
    }
  }
  return graph;
}

// Rules `begin..begin+count` of a generated policy, ids and priorities kept.
RuleTable slice(const RuleTable& policy, std::size_t begin, std::size_t count) {
  std::vector<Rule> rules;
  for (std::size_t i = begin; i < std::min(policy.size(), begin + count); ++i) {
    rules.push_back(policy.at(i));
  }
  return RuleTable(std::move(rules));
}

// Dense patterns confined to one byte, priorities drawn from a few levels so
// many rules tie (ties order by id).
RuleTable dense_byte_policy(Rng& rng, std::size_t rules) {
  RuleTable t;
  for (RuleId i = 0; i < rules; ++i) {
    Ternary m;
    const auto bits = rng.uniform(0, 6);
    for (std::uint64_t b = 0; b < bits; ++b) {
      m.set_exact(rng.uniform(0, 7), 1, rng.uniform(0, 1));
    }
    t.add(rule_with(i, static_cast<Priority>(rng.uniform(1, 4)), m));
  }
  return t;
}

void expect_same_graph(const DependencyGraph& got, const DependencyGraph& want,
                       const std::string& what) {
  EXPECT_EQ(got.parents, want.parents) << what;
  EXPECT_EQ(got.children, want.children) << what;
  EXPECT_EQ(got.conservative, want.conservative) << what;
}

// Property: the tree-driven builder returns the reference's parents,
// children and conservative flags, at generous and at tiny piece budgets.
class DependencyReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DependencyReference, TreeBuilderMatchesQuadraticReference) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  std::vector<std::pair<std::string, RuleTable>> policies;
  for (int i = 0; i < 4; ++i) {
    policies.emplace_back("dense byte", dense_byte_policy(rng, 40));
  }
  const RuleTable campus = campus_like(1200, seed);
  const RuleTable classbench = classbench_like(1200, seed);
  for (int i = 0; i < 2; ++i) {
    policies.emplace_back("campus slice", slice(campus, rng.uniform(0, 1000), 200));
    policies.emplace_back("classbench slice",
                          slice(classbench, rng.uniform(0, 1000), 200));
  }
  policies.emplace_back("campus tail", slice(campus, 1000, 200));  // with default
  std::size_t conservative = 0;
  for (const auto& [name, policy] : policies) {
    for (const std::size_t max_pieces : {std::size_t{1}, std::size_t{3},
                                         std::size_t{16}, std::size_t{4096}}) {
      const auto want = quadratic_graph(policy, max_pieces);
      const std::string what = name + " max_pieces " + std::to_string(max_pieces);
      expect_same_graph(build_dependency_graph(policy, max_pieces), want, what);
      // Any tree over the table serves, whatever its leaf size.
      DTreeParams params;
      params.leaf_size = 1 + rng.uniform(0, 15);
      const DTreeClassifier tree(policy, params);
      expect_same_graph(build_dependency_graph(policy, tree, max_pieces), want, what);
      for (const bool flag : want.conservative) conservative += flag;
    }
  }
  EXPECT_GT(conservative, 0u);  // the small budgets took the fallback path
}

INSTANTIATE_TEST_SUITE_P(Seeds, DependencyReference,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace difane
