#include <gtest/gtest.h>

#include "core/symbolic_verifier.hpp"
#include "core/system.hpp"
#include "flowspace/header.hpp"
#include "workload/rulegen.hpp"

namespace difane {
namespace {

ScenarioParams small_params(CacheStrategy strategy = CacheStrategy::kDependentSet) {
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 2;
  params.core_switches = 2;
  params.authority_count = 2;
  params.edge_cache_capacity = 200;
  params.partitioner.capacity = 10;
  params.cache_strategy = strategy;
  return params;
}

TEST(Symbolic, FreshInstallIsExhaustivelyClean) {
  const auto policy = campus_like(40, 163);
  Scenario scenario(policy, small_params());
  const auto report = verify_ingress_symbolically(
      scenario.net(), *scenario.difane(), policy, scenario.ingress_switch(0), 0.0);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GT(report.regions_checked, 0u);
}

TEST(Symbolic, CleanAfterCacheChurnAllStrategies) {
  const auto policy = campus_like(30, 167);
  for (const auto strategy : {CacheStrategy::kMicroflow, CacheStrategy::kDependentSet,
                              CacheStrategy::kCoverSet}) {
    Scenario scenario(policy, small_params(strategy));
    TrafficParams tp;
    tp.seed = 168;
    tp.flow_pool = 100;
    tp.arrival_rate = 800.0;
    tp.duration = 0.5;
    TrafficGenerator gen(policy, tp);
    scenario.run(gen.generate());
    const auto report =
        verify_ingress_symbolically(scenario.net(), *scenario.difane(), policy,
                                    scenario.ingress_switch(0), scenario.end_clock());
    EXPECT_TRUE(report.clean())
        << cache_strategy_name(strategy) << ": " << report.summary();
  }
}

TEST(Symbolic, FindsPlantedWrongAction) {
  const auto policy = campus_like(30, 173);
  Scenario scenario(policy, small_params());
  // Plant a cache rule that forwards a sliver of space the policy drops (or
  // vice versa): find a drop rule and contradict it.
  const Rule* drop_rule = nullptr;
  for (const auto& rule : policy.rules()) {
    if (rule.action.type == ActionType::kDrop) {
      drop_rule = &rule;
      break;
    }
  }
  ASSERT_NE(drop_rule, nullptr);
  Rule evil;
  evil.id = 0xe011;
  evil.priority = std::numeric_limits<Priority>::max();
  evil.match = drop_rule->match;
  evil.action = Action::forward(0);
  const SwitchId ingress = scenario.ingress_switch(0);
  scenario.net().sw(ingress).table().install(evil, Band::kCache, 0.0);
  const auto report = verify_ingress_symbolically(scenario.net(), *scenario.difane(),
                                                  policy, ingress, 0.0);
  ASSERT_TRUE(report.violation.has_value()) << report.summary();
  EXPECT_NE(report.violation->detail.find("switch decides fwd(0)"), std::string::npos)
      << report.violation->detail;
  // The witness region lies inside the corrupted predicate.
  EXPECT_TRUE(intersects(report.violation->region, evil.match));
}

TEST(Symbolic, EntryWildcardingAUsedBitIsNoExactPoint) {
  const auto policy = campus_like(30, 173);
  Scenario scenario(policy, small_params());
  // A point and one used bit whose flip changes the policy's action.
  Rng rng(0x253);
  BitVec named;
  std::size_t flip = 0;
  const Rule* want = nullptr;
  for (int tries = 0; want == nullptr && tries < 1000; ++tries) {
    const BitVec p = policy.at(rng.uniform(0, policy.size() - 1)).match.sample_point(rng);
    for (std::size_t bit = 0; want == nullptr && bit < header_bits_used(); ++bit) {
      BitVec lo = p;
      lo.set(bit, false);
      BitVec hi = p;
      hi.set(bit, true);
      const Rule* a = policy.match(lo);
      const Rule* b = policy.match(hi);
      if (a != nullptr && b != nullptr && !(a->action == b->action)) {
        named = lo;
        flip = bit;
        want = a;
      }
    }
  }
  ASSERT_NE(want, nullptr);
  BitVec other = named;
  other.set(flip, true);
  // The planted entry wildcards that bit but pins spare bit 253, so it has
  // as many care bits as an exact entry. It is right at the point it names
  // (the flipped bit reads 0) and wrong at the other point it covers.
  BitVec care = used_bits_mask();
  care.set(flip, false);
  care.set(header_bits_used(), true);
  Rule evil;
  evil.id = 0xe013;
  evil.priority = std::numeric_limits<Priority>::max();
  evil.match = Ternary(named, care);
  evil.action = want->action;
  ASSERT_EQ(evil.match.care_bits(), static_cast<int>(header_bits_used()));
  const SwitchId ingress = scenario.ingress_switch(0);
  auto& table = scenario.net().sw(ingress).table();
  table.install(evil, Band::kCache, 0.0);
  const FlowEntry* at_other = table.peek(other, 0.0);
  ASSERT_NE(at_other, nullptr);
  ASSERT_EQ(at_other->rule.id, evil.id);
  ASSERT_FALSE(at_other->rule.action == policy.match(other)->action);

  const auto report = verify_ingress_symbolically(scenario.net(), *scenario.difane(),
                                                  policy, ingress, 0.0);
  ASSERT_TRUE(report.violation.has_value()) << report.summary();
  EXPECT_TRUE(report.violation->region.matches(other)) << report.violation->detail;
}

TEST(Symbolic, FindsPlantedBlackHole) {
  const auto policy = campus_like(30, 179);
  Scenario scenario(policy, small_params());
  const SwitchId ingress = scenario.ingress_switch(1);
  // Remove one partition rule: the region it owned now matches nothing.
  auto& table = scenario.net().sw(ingress).table();
  ASSERT_FALSE(table.entries(Band::kPartition).empty());
  const RuleId victim = table.entries(Band::kPartition).front().rule.id;
  table.remove(victim, Band::kPartition);
  const auto report = verify_ingress_symbolically(scenario.net(), *scenario.difane(),
                                                  policy, ingress, 0.0);
  ASSERT_TRUE(report.violation.has_value()) << report.summary();
  EXPECT_NE(report.violation->detail.find("matches nothing"), std::string::npos);
}

TEST(Symbolic, FindsPlantedMisdirectedRedirect) {
  const auto policy = campus_like(30, 181);
  Scenario scenario(policy, small_params());
  const SwitchId ingress = scenario.ingress_switch(0);
  // Re-point one partition rule at a switch that serves no partitions.
  auto& table = scenario.net().sw(ingress).table();
  ASSERT_FALSE(table.entries(Band::kPartition).empty());
  Rule bogus = table.entries(Band::kPartition).front().rule;
  bogus.action = Action::encap(scenario.ingress_switch(1));  // an edge switch
  table.install(bogus, Band::kPartition, 0.0);               // same-id refresh
  const auto report = verify_ingress_symbolically(scenario.net(), *scenario.difane(),
                                                  policy, ingress, 0.0);
  ASSERT_TRUE(report.violation.has_value()) << report.summary();
  EXPECT_NE(report.violation->detail.find("non-authority"), std::string::npos);
}

TEST(Symbolic, ExpiredEntriesDoNotMatchAtTheInspectionInstant) {
  const auto policy = campus_like(30, 193);
  Scenario scenario(policy, small_params());
  // A wrong-action cache entry that idles out one second after install.
  const Rule* drop_rule = nullptr;
  for (const auto& rule : policy.rules()) {
    if (rule.action.type == ActionType::kDrop) {
      drop_rule = &rule;
      break;
    }
  }
  ASSERT_NE(drop_rule, nullptr);
  Rule evil;
  evil.id = 0xe012;
  evil.priority = std::numeric_limits<Priority>::max();
  evil.match = drop_rule->match;
  evil.action = Action::forward(0);
  const SwitchId ingress = scenario.ingress_switch(0);
  auto& table = scenario.net().sw(ingress).table();
  table.install(evil, Band::kCache, 0.0, /*idle_timeout=*/1.0);

  const auto before = verify_ingress_symbolically(scenario.net(), *scenario.difane(),
                                                  policy, ingress, /*now=*/0.5);
  ASSERT_TRUE(before.violation.has_value()) << before.summary();

  // Past its idle timeout the entry is still in the table (expiry is lazy)
  // but can no longer match, so the data plane it describes is clean.
  ASSERT_EQ(table.entries(Band::kCache).size(), 1u);
  const auto after = verify_ingress_symbolically(scenario.net(), *scenario.difane(),
                                                 policy, ingress, /*now=*/2.0);
  EXPECT_TRUE(after.clean()) << after.summary();
}

TEST(Symbolic, FlagsRedirectToFailedSwitch) {
  const auto policy = campus_like(30, 197);
  Scenario scenario(policy, small_params());
  // An authority dies and nothing has failed over yet: the ingress still
  // redirects its partitions there, and those packets black-hole.
  const SwitchId dead = scenario.difane()->authority_switches()[0];
  const SwitchId ingress = scenario.ingress_switch(0);
  scenario.net().set_failed(dead, true);
  const auto report = verify_ingress_symbolically(scenario.net(), *scenario.difane(),
                                                  policy, ingress, 0.0);
  ASSERT_TRUE(report.violation.has_value()) << report.summary();
  EXPECT_NE(report.violation->detail.find("failed switch"), std::string::npos)
      << report.violation->detail;

  // Failover re-points the partition rules at the live backup.
  scenario.difane()->handle_authority_failure(dead);
  const auto healed = verify_ingress_symbolically(scenario.net(), *scenario.difane(),
                                                  policy, ingress, 0.0);
  EXPECT_TRUE(healed.clean()) << healed.summary();
}

TEST(Symbolic, BudgetExhaustionIsReportedNotWrong) {
  const auto policy = classbench_like(400, 191);
  ScenarioParams params = small_params();
  params.partitioner.capacity = 100;
  Scenario scenario(policy, params);
  SymbolicParams sp;
  sp.max_regions = 50;  // absurdly small
  const auto report = verify_ingress_symbolically(
      scenario.net(), *scenario.difane(), policy, scenario.ingress_switch(0), 0.0, sp);
  EXPECT_TRUE(report.exhausted);
  EXPECT_FALSE(report.violation.has_value());
  EXPECT_FALSE(report.clean());
}

}  // namespace
}  // namespace difane
