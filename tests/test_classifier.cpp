#include <gtest/gtest.h>

#include "classifier/dtree.hpp"
#include "workload/rulegen.hpp"

namespace difane {
namespace {

TEST(Linear, WildcardRuleMatches) {
  RuleTable t;
  Rule def;
  def.id = 0;
  def.priority = 0;
  def.action = Action::forward(0);
  t.add(def);
  const Rule* hit = t.match(BitVec{});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 0u);
}

TEST(DTree, EmptyTableClassifiesNull) {
  const RuleTable empty;
  DTreeClassifier c(empty);
  EXPECT_EQ(c.classify(BitVec{}), nullptr);
}

TEST(DTree, SingleRule) {
  RuleTable t;
  Rule r;
  r.id = 1;
  r.priority = 5;
  match_exact(r.match, Field::kIpProto, 6);
  r.action = Action::drop();
  t.add(r);
  DTreeClassifier c(t);
  const Rule* hit = c.classify(PacketBuilder().ip_proto(6).build());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1u);
  EXPECT_EQ(c.classify(PacketBuilder().ip_proto(17).build()), nullptr);
}

TEST(DTree, StatsAreConsistent) {
  const auto policy = classbench_like(2000, 42);
  DTreeParams params;
  params.leaf_size = 64;
  DTreeClassifier c(policy, params);
  EXPECT_GT(c.node_count(), 1u);
  EXPECT_GT(c.leaf_count(), 1u);
  EXPECT_GE(c.duplication_factor(), 1.0);
  // Wildcard-heavy ACLs replicate in cut trees; coarse leaves keep it sane.
  EXPECT_LT(c.duplication_factor(), 30.0);
  EXPECT_GT(c.depth(), 0u);
  EXPECT_GT(c.avg_leaf_rules(), 0.0);
}

// Equivalence property: the decision tree must return exactly the same
// winner as the linear reference on every packet.
class DTreeEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(DTreeEquivalence, MatchesLinearReference) {
  const auto [seed, leaf_size] = GetParam();
  const auto policy = classbench_like(800, seed);
  DTreeParams params;
  params.leaf_size = leaf_size;
  DTreeClassifier tree(policy, params);

  Rng rng(seed ^ 0xfeed);
  for (int i = 0; i < 2000; ++i) {
    // Half uniform, half biased inside random rules so narrow rules get hit.
    BitVec pkt;
    if (i % 2 == 0) {
      pkt = Ternary::wildcard().sample_point(rng);
    } else {
      pkt = policy.at(rng.uniform(0, policy.size() - 1)).match.sample_point(rng);
    }
    const Rule* a = policy.match(pkt);
    const Rule* b = tree.classify(pkt);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a != nullptr) {
      EXPECT_EQ(a->id, b->id);
    }
  }
}

// A policy without its default rule, so some packets match nothing.
RuleTable without_default(const RuleTable& policy) {
  std::vector<Rule> rules;
  for (const auto& rule : policy.rules()) {
    if (!rule.match.is_full_wildcard()) rules.push_back(rule);
  }
  return RuleTable(std::move(rules));
}

// Query patterns for overlapping(): the full wildcard, exact points, rule
// predicates and their coarsenings and refinements, and random patterns.
std::vector<Ternary> query_patterns(const RuleTable& table, Rng& rng) {
  std::vector<Ternary> out{Ternary::wildcard()};
  for (int i = 0; i < 150; ++i) {
    const Ternary& m = table.at(rng.uniform(0, table.size() - 1)).match;
    const BitVec point = m.sample_point(rng);
    out.push_back(Ternary(point, BitVec::ones()));
    out.push_back(m);
    // Coarser: keep each care bit with probability 1/2. Finer: fix more bits.
    BitVec keep;
    for (auto& word : keep.w) word = rng.next_u64();
    out.push_back(Ternary(m.value(), m.care() & keep));
    Ternary finer = m;
    for (int b = 0; b < 6; ++b) {
      finer.set_exact(rng.uniform(0, header_bits_used() - 1), 1, rng.uniform(0, 1));
    }
    out.push_back(finer);
    Ternary random;
    for (int b = 0; b < 10; ++b) {
      random.set_exact(rng.uniform(0, header_bits_used() - 1), 1, rng.uniform(0, 1));
    }
    out.push_back(random);
  }
  return out;
}

TEST_P(DTreeEquivalence, OverlappingIsExactlyTheIntersectingRules) {
  const auto [seed, leaf_size] = GetParam();
  Rng rng(seed ^ 0x0be7);
  DTreeParams params;
  params.leaf_size = leaf_size;
  for (const RuleTable& policy :
       {classbench_like(400, seed), campus_like(400, seed)}) {
    const DTreeClassifier tree(policy, params);
    for (const Ternary& pattern : query_patterns(policy, rng)) {
      std::vector<std::uint32_t> want;
      for (std::uint32_t i = 0; i < policy.size(); ++i) {
        if (intersects(policy.at(i).match, pattern)) want.push_back(i);
      }
      ASSERT_EQ(tree.overlapping(pattern), want);
    }
  }
}

TEST_P(DTreeEquivalence, ClassifyIndexMatchesMatchIndex) {
  const auto [seed, leaf_size] = GetParam();
  Rng rng(seed ^ 0x1d5);
  DTreeParams params;
  params.leaf_size = leaf_size;
  const RuleTable with = classbench_like(400, seed);
  const RuleTable without = without_default(with);
  ASSERT_LT(without.size(), with.size());
  std::size_t unmatched = 0;
  for (const RuleTable* policy : {&with, &without}) {
    const DTreeClassifier tree(*policy, params);
    for (int i = 0; i < 2000; ++i) {
      const BitVec pkt =
          i % 2 == 0 ? Ternary::wildcard().sample_point(rng)
                     : policy->at(rng.uniform(0, policy->size() - 1)).match.sample_point(rng);
      const auto want = policy->match_index(pkt);
      ASSERT_EQ(tree.classify_index(pkt), want);
      if (!want) ++unmatched;
    }
  }
  EXPECT_GT(unmatched, 0u);  // the no-default table's miss path ran
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLeafSizes, DTreeEquivalence,
    ::testing::Combine(::testing::Values(1u, 7u, 99u),
                       ::testing::Values(std::size_t{1}, std::size_t{8},
                                         std::size_t{64})));

TEST(ChooseCutBit, PicksSeparatingBit) {
  RuleTable t;
  Rule a, b;
  a.id = 0;
  a.priority = 2;
  match_exact(a.match, Field::kIpProto, 6);
  b.id = 1;
  b.priority = 1;
  match_exact(b.match, Field::kIpProto, 17);
  t.add(a);
  t.add(b);
  CutTally tally;
  for (const auto& rule : t.rules()) tally.add(rule.match);
  const int bit = choose_cut_bit(tally, 1.0, [](std::size_t) { return true; });
  ASSERT_GE(bit, 0);
  // 6 = 0b00110, 17 = 0b10001 differ in proto bits 0,1,2,4.
  const auto cut = static_cast<std::size_t>(bit);
  EXPECT_EQ(tally.n0(cut) + tally.n1(cut), 2u);  // clean separation, no duplication
  // A filter that admits no bit leaves nothing to cut on.
  EXPECT_EQ(choose_cut_bit(tally, 1.0, [](std::size_t) { return false; }), -1);
}

TEST(ChooseCutBit, NoSeparatingBitReturnsMinusOne) {
  RuleTable t;
  Rule a;
  a.id = 0;
  a.priority = 1;
  t.add(a);  // one full-wildcard rule: nothing separates it
  CutTally tally;
  tally.add(t.at(0).match);
  EXPECT_EQ(choose_cut_bit(tally, 1.0, [](std::size_t) { return true; }), -1);
}

}  // namespace
}  // namespace difane
