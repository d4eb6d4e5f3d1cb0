#include <gtest/gtest.h>

#include "partition/partitioner.hpp"
#include "workload/rulegen.hpp"

namespace difane {
namespace {

PartitionPlan build_plan(std::size_t rules, std::uint32_t k, std::size_t capacity,
                         std::uint64_t seed = 1,
                         CutStrategy strategy = CutStrategy::kBestBit) {
  const auto policy = classbench_like(rules, seed);
  PartitionerParams params;
  params.capacity = capacity;
  params.strategy = strategy;
  return Partitioner(params).build(policy, k);
}

TEST(Partitioner, SinglePartitionWhenUnderCapacity) {
  const auto policy = classbench_like(100, 3);
  PartitionerParams params;
  params.capacity = 1000;
  const auto plan = Partitioner(params).build(policy, 1);
  ASSERT_EQ(plan.partitions().size(), 1u);
  EXPECT_TRUE(plan.partitions()[0].region.is_full_wildcard());
  EXPECT_EQ(plan.total_rules(), policy.size());
  EXPECT_DOUBLE_EQ(plan.duplication_factor(), 1.0);
}

TEST(Partitioner, LeavesRespectCapacity) {
  const auto plan = build_plan(2000, 4, 200);
  EXPECT_GT(plan.partitions().size(), 1u);
  for (const auto& p : plan.partitions()) {
    EXPECT_LE(p.rules.size(), 200u) << "partition " << p.id;
  }
}

TEST(Partitioner, SemanticsPreserved) {
  const auto policy = classbench_like(1500, 17);
  PartitionerParams params;
  params.capacity = 150;
  const auto plan = Partitioner(params).build(policy, 4);
  const auto violation = plan.validate(policy);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(Partitioner, SemanticsPreservedAllStrategies) {
  const auto policy = classbench_like(600, 23);
  for (const auto strategy :
       {CutStrategy::kBestBit, CutStrategy::kIpBitsOnly, CutStrategy::kRandomBit}) {
    PartitionerParams params;
    params.capacity = 100;
    params.strategy = strategy;
    params.seed = 5;
    const auto plan = Partitioner(params).build(policy, 3);
    const auto violation = plan.validate(policy);
    EXPECT_FALSE(violation.has_value())
        << static_cast<int>(strategy) << ": " << *violation;
  }
}

TEST(Partitioner, RegionsAreDisjointAndComplete) {
  const auto plan = build_plan(1000, 4, 100, 5);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const BitVec p = Ternary::wildcard().sample_point(rng);
    std::size_t owners = 0;
    for (const auto& part : plan.partitions()) {
      if (part.region.matches(p)) ++owners;
    }
    EXPECT_EQ(owners, 1u);
    EXPECT_NO_THROW(plan.find(p));
  }
}

TEST(Partitioner, ClippedCopiesKeepOriginAndGetFreshIds) {
  const auto policy = classbench_like(500, 31);
  const auto plan = build_plan(500, 2, 80, 31);
  std::set<RuleId> seen;
  for (const auto& part : plan.partitions()) {
    for (const auto& rule : part.rules.rules()) {
      EXPECT_TRUE(seen.insert(rule.id).second) << "duplicate installed id";
      ASSERT_NE(rule.origin, kInvalidRuleId);
      const Rule* orig = policy.find(rule.origin);
      ASSERT_NE(orig, nullptr);
      EXPECT_TRUE(orig->action == rule.action);
      EXPECT_EQ(orig->priority, rule.priority);
      EXPECT_TRUE(covers(orig->match, rule.match));
      EXPECT_TRUE(covers(part.region, rule.match));
    }
  }
}

TEST(Partitioner, LptBalancesAuthorities) {
  const auto plan = build_plan(4000, 8, 100, 11);
  const auto loads = plan.rules_per_authority();
  ASSERT_EQ(loads.size(), 8u);
  const auto max = *std::max_element(loads.begin(), loads.end());
  const auto min = *std::min_element(loads.begin(), loads.end());
  EXPECT_GT(min, 0u);
  // LPT with many small leaves balances well; allow generous slack.
  EXPECT_LT(static_cast<double>(max), 1.6 * static_cast<double>(min) + 200.0);
}

TEST(Partitioner, DuplicationGrowsWithPartitionCountButStaysBounded) {
  const auto policy = classbench_like(2000, 13);
  PartitionerParams params;
  double prev = 0.0;
  for (const std::size_t capacity : {2000u, 500u, 125u}) {
    params.capacity = capacity;
    const auto plan = Partitioner(params).build(policy, 4);
    const double dup = plan.duplication_factor();
    EXPECT_GE(dup, prev * 0.99);  // finer cuts duplicate at least as much
    EXPECT_LT(dup, 4.0);          // but the cost function keeps it bounded
    prev = dup;
  }
}

TEST(Partitioner, BestBitBeatsRandomOnDuplication) {
  const auto policy = classbench_like(1500, 41);
  PartitionerParams best;
  best.capacity = 100;
  PartitionerParams random = best;
  random.strategy = CutStrategy::kRandomBit;
  random.seed = 3;
  const double dup_best = Partitioner(best).build(policy, 4).duplication_factor();
  const double dup_rand = Partitioner(random).build(policy, 4).duplication_factor();
  EXPECT_LE(dup_best, dup_rand * 1.05);
}

// `plan` with `edit` applied to a copy of its partitions.
template <typename Edit>
PartitionPlan edited(const PartitionPlan& plan, Edit edit) {
  std::vector<Partition> parts = plan.partitions();
  edit(parts);
  return PartitionPlan(std::move(parts), plan.original_rule_count(),
                       plan.authority_count());
}

TEST(PartitionPlan, ValidateFlagsOverlappingAndMissingRegions) {
  const auto policy = classbench_like(600, 41);
  PartitionerParams params;
  params.capacity = 100;
  const auto plan = Partitioner(params).build(policy, 2);
  ASSERT_GT(plan.partitions().size(), 2u);
  ASSERT_FALSE(plan.validate(policy).has_value());

  const auto gap = edited(plan, [](auto& parts) { parts.pop_back(); }).validate(policy);
  ASSERT_TRUE(gap.has_value());
  EXPECT_NE(gap->find("uncovered"), std::string::npos) << *gap;

  const auto overlap = edited(plan, [](auto& parts) {
                         parts[0].region = Ternary::wildcard();
                       }).validate(policy);
  ASSERT_TRUE(overlap.has_value());
  EXPECT_NE(overlap->find("overlap"), std::string::npos) << *overlap;
}

TEST(PartitionPlan, ValidateFlagsAlteredClippedTables) {
  const auto policy = classbench_like(600, 43);
  PartitionerParams params;
  params.capacity = 100;
  const auto plan = Partitioner(params).build(policy, 2);
  const auto with_rules = [&](auto change) {
    return edited(plan, [&](auto& parts) {
      std::vector<Rule> rules = parts[1].rules.rules();
      change(rules);
      parts[1].rules = RuleTable(std::move(rules));
    });
  };
  const auto flipped = with_rules([](auto& rules) {
                         rules[0].action = rules[0].action == Action::drop()
                                               ? Action::forward(1)
                                               : Action::drop();
                       }).validate(policy);
  ASSERT_TRUE(flipped.has_value());
  EXPECT_NE(flipped->find("partition " + std::to_string(plan.partitions()[1].id)),
            std::string::npos)
      << *flipped;
  EXPECT_TRUE(with_rules([](auto& rules) { rules.pop_back(); }).validate(policy));
  EXPECT_TRUE(with_rules([](auto& rules) {
                Rule extra = rules.back();
                extra.id += 100000;
                rules.push_back(extra);
              }).validate(policy));
}

TEST(PartitionPlan, MakePartitionRulesEncapToPrimary) {
  const auto plan = build_plan(800, 3, 100, 19);
  const auto rules = plan.make_partition_rules(0, 1000);
  ASSERT_EQ(rules.size(), plan.partitions().size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(rules[i].id, 1000u + i);
    EXPECT_EQ(rules[i].action.type, ActionType::kEncap);
    EXPECT_EQ(rules[i].action.arg, plan.partitions()[i].primary);
    EXPECT_TRUE(rules[i].match == plan.partitions()[i].region);
  }
  const auto backup_rules = plan.make_partition_rules(0, 2000, /*use_backup=*/true);
  for (std::size_t i = 0; i < backup_rules.size(); ++i) {
    EXPECT_EQ(backup_rules[i].action.arg, plan.partitions()[i].backup);
  }
}

TEST(PartitionPlan, FailOverSwapsPrimaryWithBackup) {
  auto plan = build_plan(800, 4, 100, 29);
  std::vector<std::pair<AuthorityIndex, AuthorityIndex>> before;
  for (const auto& p : plan.partitions()) before.emplace_back(p.primary, p.backup);
  plan.fail_over(0);
  for (std::size_t i = 0; i < before.size(); ++i) {
    const auto& p = plan.partitions()[i];
    if (before[i].first == 0) {
      EXPECT_EQ(p.primary, before[i].second);
      EXPECT_EQ(p.backup, 0u);
      EXPECT_NE(p.primary, 0u);  // backup is always a different switch (k>1)
    } else {
      EXPECT_EQ(p.primary, before[i].first);
    }
  }
}

TEST(PartitionPlan, BackupDiffersFromPrimaryWhenPossible) {
  const auto plan = build_plan(500, 4, 100, 37);
  for (const auto& p : plan.partitions()) EXPECT_NE(p.primary, p.backup);
}

TEST(Partitioner, ManyAuthoritiesReducePerSwitchLoad) {
  const auto policy = classbench_like(3000, 47);
  PartitionerParams params;
  params.capacity = 50;
  std::size_t prev_max = std::numeric_limits<std::size_t>::max();
  for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
    const auto plan = Partitioner(params).build(policy, k);
    const auto max_load = plan.max_rules_per_authority();
    EXPECT_LE(max_load, prev_max);
    prev_max = max_load;
  }
}

}  // namespace
}  // namespace difane
