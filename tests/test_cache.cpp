#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "core/authority.hpp"
#include "core/difane_controller.hpp"
#include "core/system.hpp"
#include "partition/partitioner.hpp"
#include "util/contract.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

namespace difane {
namespace {

constexpr SwitchId kAuthority = 100;

Rule rule_with(RuleId id, Priority priority, Ternary match, Action action) {
  Rule r;
  r.id = id;
  r.priority = priority;
  r.match = match;
  r.action = action;
  return r;
}

// Nested dst-prefix chain with distinct actions per level + default.
RuleTable chain_policy() {
  RuleTable t;
  Ternary m32, m24, m16;
  match_prefix(m32, Field::kIpDst, make_ipv4(10, 1, 1, 1), 32);
  match_prefix(m24, Field::kIpDst, make_ipv4(10, 1, 1, 0), 24);
  match_prefix(m16, Field::kIpDst, make_ipv4(10, 1, 0, 0), 16);
  t.add(rule_with(0, 40, m32, Action::forward(3)));
  t.add(rule_with(1, 30, m24, Action::drop()));
  t.add(rule_with(2, 20, m16, Action::forward(2)));
  t.add(rule_with(3, 10, Ternary::wildcard(), Action::forward(0)));
  return t;
}

struct Harness {
  RuleTable policy;
  PartitionPlan plan;
  std::vector<std::unique_ptr<PartitionIndex>> indexes;
  AuthorityNode node;

  Harness(RuleTable p, CacheStrategy strategy, std::size_t capacity = 1000,
          std::uint32_t k = 2)
      : policy(std::move(p)),
        plan([&] {
          PartitionerParams params;
          params.capacity = capacity;
          return Partitioner(params).build(policy, k);
        }()),
        node(kAuthority, strategy) {
    RuleId base = 1u << 20;
    for (const auto& partition : plan.partitions()) {
      indexes.push_back(std::make_unique<PartitionIndex>(partition));
      node.bind(*indexes.back(), base, base + (1u << 22));
      base += 1u << 22;
    }
  }
};

// The central correctness property: with any strategy, the layered lookup
// (cache band, else redirect to authority) always yields the true policy
// winner's action, before and after any sequence of cache installs.
class CacheSemantics
    : public ::testing::TestWithParam<std::tuple<CacheStrategy, std::uint64_t>> {};

TEST_P(CacheSemantics, LayeredLookupMatchesPolicy) {
  const auto [strategy, seed] = GetParam();
  Harness h(classbench_like(400, seed), strategy, /*capacity=*/80, /*k=*/3);
  FlowTable cache(100000);
  Rng rng(seed ^ 0xc0ffee);
  double now = 0.0;

  auto true_action = [&](const BitVec& pkt) {
    const Rule* w = h.policy.match(pkt);
    ASSERT_NE(w, nullptr);  // policy has a default
  };
  (void)true_action;

  for (int round = 0; round < 1500; ++round) {
    now += 0.001;
    BitVec pkt;
    if (round % 2 == 0) {
      pkt = Ternary::wildcard().sample_point(rng);
    } else {
      pkt = h.policy.at(rng.uniform(0, h.policy.size() - 1)).match.sample_point(rng);
    }
    const Rule* winner = h.policy.match(pkt);
    ASSERT_NE(winner, nullptr);

    const FlowEntry* entry = cache.lookup(pkt, now);
    if (entry != nullptr && entry->rule.action.type != ActionType::kEncap) {
      // Terminal cache decision must be the policy's decision.
      ASSERT_TRUE(entry->rule.action == winner->action)
          << cache_strategy_name(strategy) << " round " << round << ": cache says "
          << entry->rule.action.to_string() << " policy says "
          << winner->action.to_string();
      continue;
    }
    // Miss or shadow redirect: the authority must agree with the policy and
    // its install must go through.
    const auto result = h.node.handle(pkt);
    ASSERT_TRUE(result.has_value());
    ASSERT_NE(result->winner, nullptr);
    EXPECT_TRUE(result->winner->action == winner->action);
    EXPECT_EQ(result->winner->origin_or_self(), winner->id);
    for (const auto& rule : result->install.rules) {
      cache.install(rule, Band::kCache, now, /*idle=*/30.0);
    }
    // Replay the same packet: it must now terminate in the cache with the
    // policy's action (every strategy caches at least the matched rule).
    const FlowEntry* warm = cache.lookup(pkt, now + 1e-4);
    ASSERT_NE(warm, nullptr);
    if (warm->rule.action.type != ActionType::kEncap) {
      EXPECT_TRUE(warm->rule.action == winner->action);
    }
  }
  // The cache saw real traffic; terminal hits must exist for every strategy.
  EXPECT_GT(cache.stats().hits_per_band[0], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSeeds, CacheSemantics,
    ::testing::Combine(::testing::Values(CacheStrategy::kMicroflow,
                                         CacheStrategy::kDependentSet,
                                         CacheStrategy::kCoverSet),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Cache, MicroflowInstallsExactlyOneExactRule) {
  Harness h(chain_policy(), CacheStrategy::kMicroflow, 1000, 1);
  const BitVec pkt = PacketBuilder().ip_dst(make_ipv4(10, 1, 1, 1)).build();
  const auto result = h.node.handle(pkt);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->install.rules.size(), 1u);
  const auto& rule = result->install.rules[0];
  EXPECT_EQ(rule.match.care_bits(), static_cast<int>(header_bits_used()));
  EXPECT_TRUE(rule.action == Action::forward(3));
  EXPECT_TRUE(rule.match.matches(pkt));
}

TEST(Cache, DependentSetDragsInWholeChain) {
  Harness h(chain_policy(), CacheStrategy::kDependentSet, 1000, 1);
  // Default-rule traffic: closure is default + /16 + /24 + /32 = 4 rules.
  Rng rng(5);
  BitVec pkt = PacketBuilder().ip_dst(make_ipv4(99, 0, 0, 1)).build();
  const auto result = h.node.handle(pkt);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->install.rules.size(), 4u);
  (void)rng;
}

TEST(Cache, CoverSetSplicesTheChain) {
  Harness h(chain_policy(), CacheStrategy::kCoverSet, 1000, 1);
  // Default-rule traffic: cover-set = default + one shadow for the /16 only.
  BitVec pkt = PacketBuilder().ip_dst(make_ipv4(99, 0, 0, 1)).build();
  const auto result = h.node.handle(pkt);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->install.rules.size(), 2u);
  const auto& shadow = result->install.rules[1];
  EXPECT_EQ(shadow.action.type, ActionType::kEncap);
  EXPECT_EQ(shadow.action.arg, kAuthority);
  // The shadow sits at the /16's priority, above the cached default.
  EXPECT_GT(shadow.priority, result->install.rules[0].priority);
}

TEST(Cache, CoverSetShadowRedirectsStolenTraffic) {
  Harness h(chain_policy(), CacheStrategy::kCoverSet, 1000, 1);
  FlowTable cache(1000);
  // Cache the default rule via a packet outside the chain.
  const BitVec outside = PacketBuilder().ip_dst(make_ipv4(99, 0, 0, 1)).build();
  const auto result = h.node.handle(outside);
  ASSERT_TRUE(result.has_value());
  for (const auto& rule : result->install.rules) {
    cache.install(rule, Band::kCache, 0.0);
  }
  // A packet the /24 drop rule owns must NOT be forwarded by the cached
  // default: it must hit the shadow redirect.
  const BitVec stolen = PacketBuilder().ip_dst(make_ipv4(10, 1, 1, 7)).build();
  const FlowEntry* entry = cache.lookup(stolen, 1.0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->rule.action.type, ActionType::kEncap);
}

TEST(Cache, CostsReflectStrategy) {
  Harness dep(chain_policy(), CacheStrategy::kDependentSet, 1000, 1);
  Harness cov(chain_policy(), CacheStrategy::kCoverSet, 1000, 1);
  Harness micro(chain_policy(), CacheStrategy::kMicroflow, 1000, 1);
  // One packet per chain level: /32 (prio 40), /24, /16, default.
  const BitVec packets[] = {
      PacketBuilder().ip_dst(make_ipv4(10, 1, 1, 1)).build(),
      PacketBuilder().ip_dst(make_ipv4(10, 1, 1, 7)).build(),
      PacketBuilder().ip_dst(make_ipv4(10, 1, 2, 1)).build(),
      PacketBuilder().ip_dst(make_ipv4(99, 0, 0, 1)).build()};
  // TCAM entries one cache decision installs for that level.
  const auto cost = [](Harness& h, const BitVec& packet) {
    const auto result = h.node.handle(packet);
    EXPECT_TRUE(result.has_value());
    return result ? result->install.rules.size() : 0u;
  };
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t dep_cost = cost(dep, packets[i]);
    EXPECT_EQ(dep_cost, i + 1) << "level " << i;  // the whole chain above it
    EXPECT_EQ(cost(micro, packets[i]), 1u) << "level " << i;
    EXPECT_LE(cost(cov, packets[i]), dep_cost) << "level " << i;
  }
  EXPECT_EQ(cost(cov, packets[3]), 2u);  // default + one shadow
}

TEST(Cache, HandleReturnsNulloptOutsideBoundPartitions) {
  // Nested chains cannot split (the broad rule rides every cut), so use a
  // generated ACL, which fans out into many partitions.
  const auto policy = classbench_like(120, 77);
  PartitionerParams params;
  params.capacity = 30;
  const auto plan = Partitioner(params).build(policy, 2);
  ASSERT_GT(plan.partitions().size(), 1u);
  const PartitionIndex index(plan.partitions()[0]);
  AuthorityNode node(kAuthority, CacheStrategy::kDependentSet);
  node.bind(index, 1u << 20, 1u << 22);  // bind only one partition
  // A packet in a different partition is not ours.
  Rng rng(9);
  bool saw_unbound = false;
  for (int i = 0; i < 200 && !saw_unbound; ++i) {
    const BitVec pkt = Ternary::wildcard().sample_point(rng);
    if (!plan.partitions()[0].region.matches(pkt)) {
      EXPECT_FALSE(node.handle(pkt).has_value());
      saw_unbound = true;
    }
  }
  EXPECT_TRUE(saw_unbound);
}

// The chain policy's one partition bound twice by a DifaneController — to a
// primary and to a backup — each binding with its own synthetic-id range.
struct ControllerHarness {
  RuleTable policy = chain_policy();
  Network net;
  TwoTierTopology topo = build_two_tier(net, 2, 2, 100, 100);
  DifaneController ctl;
  AuthorityNode* primary = nullptr;
  AuthorityNode* backup = nullptr;

  explicit ControllerHarness(DifaneControllerParams params)
      : ctl(net, policy, topo.core, params) {
    const auto& partitions = ctl.plan().partitions();
    EXPECT_EQ(partitions.size(), 1u);  // nested chains cannot split
    primary = ctl.node_at(ctl.authority_switch(partitions[0].primary));
    backup = ctl.node_at(ctl.authority_switch(partitions[0].backup));
    EXPECT_NE(primary, backup);
  }
};

TEST(Cache, CoverSetShadowIdsNeverAliasAcrossBindings) {
  // A cover-set binding's shadow ids span n^2 = 16 ids here, more than the
  // 5-id stride, the way a >2048-rule partition outgrows the default 2^22.
  // The next binding's range must start past them: with stride-spaced bases
  // the primary's shadow (parent 2, matched 3) and the backup's shadow
  // (parent 1, matched 2) both got id base + 11, and a cache band keyed by
  // id would overwrite one with the other.
  DifaneControllerParams params;
  params.cache_strategy = CacheStrategy::kCoverSet;
  params.synth_id_stride = 5;
  ControllerHarness h(params);
  const BitVec packets[] = {
      PacketBuilder().ip_dst(make_ipv4(99, 0, 0, 1)).build(),   // default
      PacketBuilder().ip_dst(make_ipv4(10, 1, 2, 1)).build(),   // the /16
      PacketBuilder().ip_dst(make_ipv4(10, 1, 1, 7)).build(),   // the /24
  };
  std::map<RuleId, Rule> by_id;
  std::size_t shadows = 0;
  for (AuthorityNode* node : {h.primary, h.backup}) {
    for (const BitVec& packet : packets) {
      const auto result = node->handle(packet);
      ASSERT_TRUE(result.has_value());
      for (const Rule& rule : result->install.rules) {
        if (rule.action.type == ActionType::kEncap) ++shadows;
        const auto [it, fresh] = by_id.emplace(rule.id, rule);
        if (fresh) continue;
        EXPECT_TRUE(it->second.match == rule.match &&
                    it->second.priority == rule.priority &&
                    it->second.action == rule.action)
            << "id " << rule.id << " names two cache rules: "
            << it->second.to_string() << " and " << rule.to_string();
      }
    }
  }
  EXPECT_EQ(shadows, 6u);  // one per packet per binding
}

TEST(Cache, BindingsOfOnePartitionShareOneIndex) {
  // The primary and the backup borrow the partition's one index, so its
  // tree and dependency graph are built once for both, and a live-migration
  // rebind borrows the same index again instead of building its own.
  ControllerHarness h(DifaneControllerParams{});
  const PartitionIndex* index = h.primary->bound(0);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(h.backup->bound(0), index);

  const BitVec packet = PacketBuilder().ip_dst(make_ipv4(10, 1, 2, 1)).build();
  ASSERT_TRUE(h.primary->handle(packet).has_value());
  ASSERT_TRUE(h.backup->handle(packet).has_value());
  const DependencyGraph* graph = &index->graph();
  EXPECT_EQ(&h.backup->bound(0)->graph(), graph);
  EXPECT_EQ(&h.backup->bound(0)->tree(), &index->tree());

  const AuthorityIndex backup = h.ctl.plan().partitions()[0].backup;
  h.ctl.unbind_partition(0, backup);
  EXPECT_EQ(h.backup->bound(0), nullptr);
  h.ctl.bind_partition(0, backup);
  ASSERT_EQ(h.backup->bound(0), index);
  EXPECT_EQ(&h.backup->bound(0)->graph(), graph);
  ASSERT_TRUE(h.backup->handle(packet).has_value());
}

TEST(Cache, SyntheticIdRangesFailLoudlyInsteadOfAliasing) {
  // A one-id stride leaves each microflow binding exactly one id: the second
  // install would take the next binding's first id, so it must fail a
  // contract check instead.
  DifaneControllerParams params;
  params.cache_strategy = CacheStrategy::kMicroflow;
  params.synth_id_stride = 1;
  ControllerHarness h(params);
  const BitVec first = PacketBuilder().ip_dst(make_ipv4(99, 0, 0, 1)).build();
  const BitVec second = PacketBuilder().ip_dst(make_ipv4(99, 0, 0, 2)).build();
  const auto result = h.primary->handle(first);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->install.rules.size(), 1u);
  EXPECT_EQ(result->install.rules[0].id, params.synth_id_base);
  EXPECT_THROW(h.primary->handle(second), contract_violation);

  // The two initial bindings exactly fill the ids below the largest RuleId,
  // so a live-migration rebind finds no room and must fail, not wrap.
  DifaneControllerParams full;
  full.cache_strategy = CacheStrategy::kMicroflow;
  full.synth_id_base = kInvalidRuleId - 2 * full.synth_id_stride;
  ControllerHarness packed(full);
  const auto home = packed.ctl.plan().partitions()[0].primary;
  packed.ctl.unbind_partition(0, home);
  EXPECT_THROW(packed.ctl.bind_partition(0, home), contract_violation);

  // No stride leaves each binding even one id.
  DifaneControllerParams high;
  high.synth_id_base = kInvalidRuleId - 1;
  EXPECT_THROW(ControllerHarness{high}, contract_violation);
}

TEST(Cache, ManyBindingsShrinkTheStrideInsteadOfRunningOutOfIds) {
  // 2^22-id ranges from 0x40000000 fit 767 bindings below the largest
  // RuleId. Microflow partitions of at most two rules, each bound to a
  // primary and a backup, need more: the controller shrinks the stride so
  // every binding still gets its own range.
  const auto policy = campus_like(900, 211);
  Network net;
  const auto topo = build_two_tier(net, 2, 2, 100, 100);
  DifaneControllerParams params;
  params.cache_strategy = CacheStrategy::kMicroflow;
  params.partitioner.capacity = 2;
  DifaneController ctl(net, policy, topo.core, params);
  const auto& partitions = ctl.plan().partitions();
  ASSERT_GT(2 * partitions.size(), 767u);

  // A microflow install takes its binding's first id. Bindings are laid out
  // back to back, so distinct first ids a constant distance apart, the last
  // range ending below kInvalidRuleId, mean the ranges are disjoint.
  std::vector<RuleId> firsts;
  Rng rng(212);
  for (const auto& partition : partitions) {
    const BitVec packet = partition.region.sample_point(rng);
    for (const auto authority : ctl.serving_set(partition)) {
      AuthorityNode* node = ctl.node_at(ctl.authority_switch(authority));
      const auto result = node->handle(packet);
      ASSERT_TRUE(result.has_value());
      ASSERT_EQ(result->partition, partition.id);
      ASSERT_EQ(result->install.rules.size(), 1u);
      firsts.push_back(result->install.rules[0].id);
    }
  }
  std::sort(firsts.begin(), firsts.end());
  ASSERT_EQ(firsts.size(), 2 * partitions.size());
  EXPECT_EQ(firsts.front(), params.synth_id_base);
  const RuleId stride = firsts[1] - firsts[0];
  EXPECT_GT(stride, 0u);
  EXPECT_LT(stride, params.synth_id_stride);
  for (std::size_t i = 1; i < firsts.size(); ++i) {
    ASSERT_EQ(firsts[i] - firsts[i - 1], stride) << "binding " << i;
  }
  EXPECT_LE(std::uint64_t{firsts.back()} + stride, kInvalidRuleId);
}

// A binding's per-rule counters are the authority band's entry counters:
// unbinding a partition retires them, as a switch reports a removed entry's
// counters, so query_flow_stats loses the copies but not the traffic.
TEST(Cache, BindingCountersSurviveUnbindInQueryFlowStats) {
  const auto policy = classbench_like(300, 5);
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.authority_count = 2;
  params.partitioner.capacity = 100;
  params.cache_strategy = CacheStrategy::kMicroflow;
  Scenario scenario(policy, params);
  TrafficParams tp;
  tp.seed = 5;
  tp.arrival_rate = 2000.0;
  tp.duration = 0.5;
  tp.ingress_count = 4;
  scenario.run(TrafficGenerator(policy, tp).generate());

  const auto before = scenario.query_flow_stats();
  const Partition& partition = scenario.plan()->partitions().at(0);
  AuthorityNode& node = *scenario.difane()->node_at(
      scenario.difane()->authority_switch(partition.primary));
  std::uint64_t resolved = 0;
  for (const auto& row : node.flow_stats()) resolved += row.packets;
  ASSERT_GT(resolved, 0u);

  scenario.difane()->unbind_partition(0, partition.primary);
  std::uint64_t retired = 0;
  for (const auto& row : node.flow_stats()) {
    if (row.installed_copies == 0) retired += row.packets;
  }
  EXPECT_GT(retired, 0u);
  std::map<RuleId, std::uint64_t> copies_gone;
  for (const auto& rule : partition.rules.rules()) ++copies_gone[rule.origin_or_self()];
  const auto after = scenario.query_flow_stats();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].origin, before[i].origin);
    EXPECT_EQ(after[i].packets, before[i].packets);
    EXPECT_EQ(after[i].bytes, before[i].bytes);
    EXPECT_EQ(after[i].installed_copies + copies_gone[after[i].origin],
              before[i].installed_copies);
  }
}

TEST(Cache, StrategyNames) {
  EXPECT_STREQ(cache_strategy_name(CacheStrategy::kMicroflow), "microflow");
  EXPECT_STREQ(cache_strategy_name(CacheStrategy::kDependentSet), "dependent-set");
  EXPECT_STREQ(cache_strategy_name(CacheStrategy::kCoverSet), "cover-set");
}

TEST(Cache, ElephantParamsDefaultsAreConservative) {
  // The defaults must be safe to embed in any ScenarioParams: disabled, and
  // with knobs that validate() accepts the moment someone flips `enabled`.
  const ElephantParams p;
  EXPECT_FALSE(p.enabled);
  EXPECT_GT(p.tracker_capacity, 0u);
  EXPECT_GT(p.threshold, 0u);
  EXPECT_GT(p.idle_timeout, 0.0);
  EXPECT_EQ(p.probation_idle_timeout, 0.0);  // inherit base timeout
  EXPECT_TRUE(p.proactive);
  EXPECT_FALSE(p.mice_bypass);
  EXPECT_GE(p.mice_min_packets, 2u);
}

TEST(Cache, ClassifyInstallDisabledAlwaysNormal) {
  ElephantParams p;  // enabled = false
  p.mice_bypass = true;
  for (const std::uint64_t g : {0ull, 1ull, 7ull, 8ull, 1000ull}) {
    EXPECT_EQ(classify_install(p, g), InstallClass::kNormal) << g;
  }
}

TEST(Cache, ClassifyInstallThresholdPromotesExactlyAtBoundary) {
  ElephantParams p;
  p.enabled = true;
  p.threshold = 8;
  EXPECT_EQ(classify_install(p, 7), InstallClass::kNormal);
  EXPECT_EQ(classify_install(p, 8), InstallClass::kElephant);
  EXPECT_EQ(classify_install(p, 9), InstallClass::kElephant);
}

TEST(Cache, ClassifyInstallMiceBypassOnlyBelowMinPackets) {
  ElephantParams p;
  p.enabled = true;
  p.threshold = 8;
  p.mice_bypass = true;
  p.mice_min_packets = 2;
  // First miss (guaranteed count 1, sampled after offering): bypass.
  EXPECT_EQ(classify_install(p, 1), InstallClass::kBypass);
  // Proven to return but not yet an elephant: probationary normal install.
  EXPECT_EQ(classify_install(p, 2), InstallClass::kNormal);
  EXPECT_EQ(classify_install(p, 7), InstallClass::kNormal);
  // Elephant beats bypass even under degenerate min_packets > threshold.
  p.mice_min_packets = 100;
  EXPECT_EQ(classify_install(p, 8), InstallClass::kElephant);
  EXPECT_EQ(classify_install(p, 3), InstallClass::kBypass);
}

TEST(Cache, InstallClassNames) {
  EXPECT_STREQ(install_class_name(InstallClass::kNormal), "normal");
  EXPECT_STREQ(install_class_name(InstallClass::kElephant), "elephant");
  EXPECT_STREQ(install_class_name(InstallClass::kBypass), "bypass");
}

}  // namespace
}  // namespace difane
