#include <gtest/gtest.h>

#include <map>

#include "partition/incremental.hpp"
#include "workload/rulegen.hpp"

namespace difane {
namespace {

PartitionerParams small_params(std::size_t capacity = 60) {
  PartitionerParams p;
  p.capacity = capacity;
  return p;
}

TEST(Incremental, InitialBuildMatchesPolicySemantics) {
  const auto policy = classbench_like(500, 3);
  IncrementalPartitioner inc(policy, small_params(), 3);
  EXPECT_GT(inc.partition_count(), 1u);
  const auto plan = inc.snapshot();
  Rng rng(5);
  const auto violation = plan.validate(policy, rng, 2000);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(Incremental, InsertTouchesOnlyIntersectingPartitions) {
  const auto policy = classbench_like(800, 7);
  IncrementalPartitioner inc(policy, small_params(), 2);
  const auto partitions_before = inc.partition_count();

  Rule narrow;
  narrow.id = 900001;
  narrow.priority = 5000;
  match_exact(narrow.match, Field::kIpProto, 6);
  match_exact(narrow.match, Field::kTpDst, 4443);
  match_prefix(narrow.match, Field::kIpDst, make_ipv4(10, 9, 8, 0), 24);
  narrow.action = Action::drop();

  const auto touched = inc.insert(narrow);
  EXPECT_FALSE(touched.empty());
  // A narrow rule must touch far fewer partitions than a full repartition.
  EXPECT_LT(touched.size(), std::max<std::size_t>(2, partitions_before / 2));
  EXPECT_TRUE(inc.policy().contains(900001));
}

TEST(Incremental, InsertPreservesSemantics) {
  const auto policy = classbench_like(400, 11);
  IncrementalPartitioner inc(policy, small_params(), 2);
  Rng rng(13);
  RuleTable expect = policy;
  for (RuleId i = 0; i < 20; ++i) {
    Rule r;
    r.id = 800000 + i;
    r.priority = static_cast<Priority>(3000 + i);
    const auto addr = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffULL));
    match_prefix(r.match, Field::kIpDst, addr, 8 + rng.uniform(0, 24));
    r.action = rng.bernoulli(0.5) ? Action::drop() : Action::forward(1);
    inc.insert(r);
    expect.add(r);
  }
  const auto plan = inc.snapshot();
  const auto violation = plan.validate(expect, rng, 3000);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(Incremental, WildcardInsertTouchesAllPartitions) {
  const auto policy = classbench_like(500, 17);
  IncrementalPartitioner inc(policy, small_params(), 2);
  Rule wild;
  wild.id = 700000;
  wild.priority = 1;  // below everything that matters
  wild.action = Action::drop();
  const auto touched = inc.insert(wild);
  EXPECT_GE(touched.size(), inc.partition_count() > 0 ? 1u : 0u);
  // A full-wildcard rule lands in every leaf.
  EXPECT_GE(inc.total_rules(), inc.policy().size());
}

TEST(Incremental, RemoveUndoesInsertSemantics) {
  const auto policy = classbench_like(300, 19);
  IncrementalPartitioner inc(policy, small_params(), 2);
  Rule r;
  r.id = 600000;
  r.priority = 9999;
  match_prefix(r.match, Field::kIpSrc, make_ipv4(172, 16, 0, 0), 12);
  r.action = Action::drop();
  inc.insert(r);
  const auto touched = inc.remove(600000);
  EXPECT_FALSE(touched.empty());
  EXPECT_FALSE(inc.policy().contains(600000));
  const auto plan = inc.snapshot();
  Rng rng(23);
  const auto violation = plan.validate(policy, rng, 2000);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(Incremental, RemoveUnknownIdTouchesNothing) {
  const auto policy = classbench_like(100, 29);
  IncrementalPartitioner inc(policy, small_params(), 1);
  EXPECT_TRUE(inc.remove(123456789).empty());
}

TEST(Incremental, OverflowSplitsLeaf) {
  // Start with a policy below capacity, then insert until a split happens.
  const auto policy = campus_like(40, 31);
  IncrementalPartitioner inc(policy, small_params(50), 1);
  EXPECT_EQ(inc.partition_count(), 1u);
  Rng rng(37);
  for (RuleId i = 0; i < 40; ++i) {
    Rule r;
    r.id = 500000 + i;
    r.priority = static_cast<Priority>(2000 + i);
    const auto addr = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffULL));
    match_prefix(r.match, Field::kIpDst, addr, 24);
    r.action = Action::drop();
    inc.insert(r);
  }
  EXPECT_GT(inc.partition_count(), 1u);
  const auto plan = inc.snapshot();
  for (const auto& p : plan.partitions()) EXPECT_LE(p.rules.size(), 50u);
}

TEST(Incremental, MassRemovalMergesLeaves) {
  const auto policy = classbench_like(600, 41);
  IncrementalPartitioner inc(policy, small_params(80), 2);
  const auto before = inc.partition_count();
  ASSERT_GT(before, 1u);
  // Remove most of the policy; leaves should merge back.
  std::vector<RuleId> ids;
  for (const auto& r : policy.rules()) ids.push_back(r.id);
  for (std::size_t i = 0; i + 20 < ids.size(); ++i) inc.remove(ids[i]);
  EXPECT_LT(inc.partition_count(), before);
  const auto plan = inc.snapshot();
  Rng rng(43);
  const auto violation = plan.validate(inc.policy(), rng, 1500);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(Incremental, ChurnStressKeepsSemantics) {
  const auto policy = classbench_like(250, 47);
  IncrementalPartitioner inc(policy, small_params(40), 3);
  Rng rng(53);
  std::vector<RuleId> live;
  for (const auto& r : policy.rules()) live.push_back(r.id);
  RuleId next_id = 100000;
  for (int op = 0; op < 120; ++op) {
    if (rng.bernoulli(0.5) || live.size() < 50) {
      Rule r;
      r.id = next_id++;
      r.priority = static_cast<Priority>(rng.uniform(1, 5000));
      const auto addr = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffULL));
      match_prefix(r.match, Field::kIpDst, addr, 4 + rng.uniform(0, 28));
      if (rng.bernoulli(0.4)) {
        match_exact(r.match, Field::kIpProto, rng.bernoulli(0.5) ? 6 : 17);
      }
      r.action = rng.bernoulli(0.5) ? Action::drop() : Action::forward(2);
      inc.insert(r);
      live.push_back(r.id);
    } else {
      const auto pick = rng.uniform(0, live.size() - 1);
      inc.remove(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  const auto plan = inc.snapshot();
  Rng rng2(59);
  const auto violation = plan.validate(inc.policy(), rng2, 3000);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

// Live migration reads successive snapshots of the incremental partitioner;
// a snapshot that re-shuffled assignments on every call would masquerade as
// load drift and trigger spurious moves. snapshot() must be sticky: calling
// it twice with no churn in between yields the identical assignment.
TEST(Incremental, SnapshotAssignmentIsSticky) {
  const auto policy = classbench_like(600, 61);
  IncrementalPartitioner inc(policy, small_params(80), 3);
  const auto first = inc.snapshot();
  const auto second = inc.snapshot();
  ASSERT_EQ(first.partitions().size(), second.partitions().size());
  for (std::size_t i = 0; i < first.partitions().size(); ++i) {
    EXPECT_EQ(first.partitions()[i].id, second.partitions()[i].id);
    EXPECT_EQ(first.partitions()[i].primary, second.partitions()[i].primary)
        << "partition " << first.partitions()[i].id << " re-homed by a "
        << "no-op snapshot";
    EXPECT_EQ(first.partitions()[i].backup, second.partitions()[i].backup);
  }
}

// Churn in one corner of flow space must not re-home unrelated leaves: a
// leaf that survives an insert/remove burst untouched (same id, same rule
// count) keeps the authority it had before the burst.
TEST(Incremental, ChurnPreservesUntouchedHomes) {
  const auto policy = classbench_like(600, 67);
  IncrementalPartitioner inc(policy, small_params(80), 3);
  const auto before = inc.snapshot();
  std::map<PartitionId, AuthorityIndex> homes;
  for (const auto& p : before.partitions()) homes[p.id] = p.primary;

  // A burst of narrow inserts and removals confined to one /16.
  Rng rng(71);
  for (RuleId i = 0; i < 30; ++i) {
    Rule r;
    r.id = 400000 + i;
    r.priority = static_cast<Priority>(4000 + i);
    match_prefix(r.match, Field::kIpDst,
                 make_ipv4(10, 20, static_cast<std::uint8_t>(i), 0), 24);
    r.action = Action::drop();
    inc.insert(r);
    if (i % 3 == 0) inc.remove(400000 + i);
  }

  const auto after = inc.snapshot();
  std::size_t surviving = 0;
  for (const auto& p : after.partitions()) {
    const auto it = homes.find(p.id);
    if (it == homes.end()) continue;  // split/merged leaves may re-home
    ++surviving;
    EXPECT_EQ(p.primary, it->second)
        << "untouched partition " << p.id << " was re-homed by churn";
  }
  EXPECT_GT(surviving, 0u);  // the burst was narrow: most leaves survive
}

// Two partitioners fed the identical op sequence produce identical
// snapshots — assignment must be a deterministic function of the history,
// never of iteration order or addresses (migration replay-by-seed leans on
// this).
TEST(Incremental, IdenticalHistoryYieldsIdenticalAssignment) {
  const auto policy = classbench_like(400, 73);
  const auto churn = [&](IncrementalPartitioner& inc) {
    Rng rng(79);
    RuleId next_id = 300000;
    for (int op = 0; op < 60; ++op) {
      if (rng.bernoulli(0.6)) {
        Rule r;
        r.id = next_id++;
        r.priority = static_cast<Priority>(rng.uniform(1, 5000));
        const auto addr = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffULL));
        match_prefix(r.match, Field::kIpDst, addr, 8 + rng.uniform(0, 20));
        r.action = rng.bernoulli(0.5) ? Action::drop() : Action::forward(1);
        inc.insert(r);
      } else if (next_id > 300000) {
        inc.remove(300000 + rng.uniform(0, next_id - 300001));
      }
      if (op % 10 == 0) (void)inc.snapshot();  // interleaved reads are part of the history
    }
  };
  IncrementalPartitioner a(policy, small_params(60), 3);
  IncrementalPartitioner b(policy, small_params(60), 3);
  churn(a);
  churn(b);
  const auto pa = a.snapshot();
  const auto pb = b.snapshot();
  ASSERT_EQ(pa.partitions().size(), pb.partitions().size());
  for (std::size_t i = 0; i < pa.partitions().size(); ++i) {
    EXPECT_EQ(pa.partitions()[i].id, pb.partitions()[i].id);
    EXPECT_EQ(pa.partitions()[i].primary, pb.partitions()[i].primary);
    EXPECT_EQ(pa.partitions()[i].backup, pb.partitions()[i].backup);
    EXPECT_EQ(pa.partitions()[i].rules.size(), pb.partitions()[i].rules.size());
  }
}

}  // namespace
}  // namespace difane
