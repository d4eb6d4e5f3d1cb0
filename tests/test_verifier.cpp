#include <gtest/gtest.h>

#include "core/system.hpp"
#include "core/verifier.hpp"
#include "flowspace/header.hpp"
#include "util/rng.hpp"
#include "workload/rulegen.hpp"

namespace difane {
namespace {

ScenarioParams difane_params() {
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 4;
  params.core_switches = 2;
  params.authority_count = 2;
  params.edge_cache_capacity = 500;
  params.partitioner.capacity = 80;
  return params;
}

std::vector<SwitchId> edges(const Scenario& scenario) {
  std::vector<SwitchId> out;
  for (std::uint32_t i = 0; i < 4; ++i) out.push_back(scenario.ingress_switch(i));
  return out;
}

TEST(Verifier, FreshInstallIsClean) {
  const auto policy = classbench_like(500, 61);
  Scenario scenario(policy, difane_params());
  const auto report = verify_installed_state(scenario.net(), *scenario.difane(),
                                             policy, edges(scenario));
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(Verifier, CleanAfterTrafficAndCacheChurn) {
  const auto policy = classbench_like(400, 67);
  auto params = difane_params();
  params.edge_cache_capacity = 48;          // force churn
  params.timings.cache_idle_timeout = 0.1;
  params.cache_strategy = CacheStrategy::kCoverSet;
  Scenario scenario(policy, params);
  TrafficParams tp;
  tp.seed = 68;
  tp.flow_pool = 400;
  tp.arrival_rate = 2000.0;
  tp.duration = 1.0;
  TrafficGenerator gen(policy, tp);
  scenario.run(gen.generate());
  // Even with cached wildcard rules, shadows, and evictions in the tables,
  // the installed state must still implement the policy exactly.
  const auto report = verify_installed_state(scenario.net(), *scenario.difane(),
                                             policy, edges(scenario),
                                             scenario.end_clock());
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(Verifier, DetectsPlantedWrongAction) {
  const auto policy = classbench_like(300, 71);
  Scenario scenario(policy, difane_params());
  // Corrupt an ingress: plant a high-priority cache rule whose action
  // contradicts the policy (forward where the policy would sometimes drop).
  Rule evil;
  evil.id = 0xdead;
  evil.priority = std::numeric_limits<Priority>::max();
  evil.action = Action::forward(0);
  const SwitchId ingress = scenario.ingress_switch(0);
  scenario.net().sw(ingress).table().install(evil, Band::kCache, 0.0);
  const auto report = verify_installed_state(scenario.net(), *scenario.difane(),
                                             policy, {ingress});
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].outcome, VerifyOutcome::kWrongAction);
}

TEST(Verifier, DetectsBlackHoleWhenPartitionRulesMissing) {
  const auto policy = classbench_like(300, 73);
  Scenario scenario(policy, difane_params());
  const SwitchId ingress = scenario.ingress_switch(1);
  scenario.net().sw(ingress).table().clear_band(Band::kPartition);
  const auto report = verify_installed_state(scenario.net(), *scenario.difane(),
                                             policy, {ingress});
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].outcome, VerifyOutcome::kBlackHole);
}

TEST(Verifier, DetectsDanglingRedirect) {
  const auto policy = classbench_like(300, 79);
  Scenario scenario(policy, difane_params());
  const SwitchId ingress = scenario.ingress_switch(2);
  // Point a partition-band rule at a switch that is not an authority.
  Rule bogus;
  bogus.id = 0xbeef;
  bogus.priority = std::numeric_limits<Priority>::max();
  bogus.action = Action::encap(scenario.ingress_switch(3));
  scenario.net().sw(ingress).table().install(bogus, Band::kCache, 0.0);
  const auto report = verify_installed_state(scenario.net(), *scenario.difane(),
                                             policy, {ingress});
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].outcome, VerifyOutcome::kDanglingRedirect);
}

TEST(Verifier, CleanAfterFailover) {
  const auto policy = classbench_like(300, 83);
  Scenario scenario(policy, difane_params());
  const SwitchId victim = scenario.difane()->authority_switches()[0];
  scenario.net().set_failed(victim, true);
  scenario.difane()->handle_authority_failure(victim);
  const auto report = verify_installed_state(scenario.net(), *scenario.difane(),
                                             policy, edges(scenario));
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(Verifier, CheckLeavesAuthorityStateUntouched) {
  // The check reads each authority's bindings, but must not generate a
  // cache install: generating advances the binding's microflow ids, so a
  // verified run would answer the next redirect differently from its
  // unverified twin.
  const auto policy = classbench_like(300, 89);
  auto params = difane_params();
  params.cache_strategy = CacheStrategy::kMicroflow;
  TrafficParams tp;
  tp.seed = 90;
  tp.flow_pool = 200;
  tp.arrival_rate = 1000.0;
  tp.duration = 0.5;
  const auto flows = TrafficGenerator(policy, tp).generate();
  Scenario verified(policy, params);
  Scenario twin(policy, params);
  verified.run(flows);
  twin.run(flows);
  const auto report = verified.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();

  Rng rng(91);
  std::size_t installs = 0;
  for (int i = 0; i < 50; ++i) {
    const BitVec header = Ternary::wildcard().sample_point(rng);
    for (const SwitchId sw : verified.difane()->authority_switches()) {
      const auto a = verified.difane()->node_at(sw)->handle(header);
      const auto b = twin.difane()->node_at(sw)->handle(header);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a.has_value()) continue;
      ASSERT_EQ(a->install.rules.size(), b->install.rules.size());
      for (std::size_t r = 0; r < a->install.rules.size(); ++r) {
        EXPECT_EQ(a->install.rules[r].id, b->install.rules[r].id)
            << "authority " << sw << " sample " << i;
        ++installs;
      }
    }
  }
  EXPECT_GT(installs, 0u);
}

// One-header defects: `campus_like(120, 211)` on two edges and three
// authorities, so each partition has exactly one authority that does not
// serve it. A sampled check misses a defect on a single header.
ScenarioParams three_authorities() {
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 2;
  params.core_switches = 3;
  params.authority_count = 3;
  params.partitioner.capacity = 20;
  params.cache_strategy = CacheStrategy::kDependentSet;
  return params;
}

Rule exact_entry(const BitVec& header, Action action) {
  Rule rule;
  rule.id = 0x7fff0000;
  rule.priority = std::numeric_limits<Priority>::max();
  rule.match = exact_pattern(header);
  rule.action = action;
  return rule;
}

TEST(Verifier, FlagsMisdirectedExactRedirect) {
  const auto policy = campus_like(120, 211);
  Scenario scenario(policy, three_authorities());
  Rng rng(5);
  const BitVec header = Ternary::wildcard().sample_point(rng);
  const Partition& partition = scenario.difane()->plan().find(header);
  std::vector<SwitchId> strangers;
  for (const SwitchId sw : scenario.difane()->authority_switches()) {
    if (!scenario.difane()->node_at(sw)->serves(partition.id)) strangers.push_back(sw);
  }
  ASSERT_EQ(strangers.size(), 1u);
  const SwitchId ingress = scenario.ingress_switch(0);
  scenario.net().sw(ingress).table().install(
      exact_entry(header, Action::encap(strangers[0])), Band::kCache, 0.0);

  const auto report = scenario.verify_installed();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].outcome, VerifyOutcome::kDanglingRedirect);
  EXPECT_TRUE(report.violations[0].region.matches(header)) << report.summary();

  // The defect is real: the data plane drops the header at the stranger.
  FlowSpec flow;
  flow.header = header;
  flow.start = 0.001;
  const auto& stats = scenario.run({flow});
  EXPECT_EQ(stats.tracer.delivered(), 0u);
  EXPECT_EQ(stats.tracer.dropped(DropReason::kUnreachable), 1u);
}

TEST(Verifier, FlagsOneHeaderWrongAction) {
  const auto policy = campus_like(120, 211);
  Scenario scenario(policy, three_authorities());
  Rng rng(6);
  BitVec header = Ternary::wildcard().sample_point(rng);
  while (policy.match(header) == nullptr ||
         policy.match(header)->action.type != ActionType::kForward) {
    header = Ternary::wildcard().sample_point(rng);
  }
  const SwitchId ingress = scenario.ingress_switch(0);
  scenario.net().sw(ingress).table().install(exact_entry(header, Action::drop()),
                                             Band::kCache, 0.0);
  const auto report = scenario.verify_installed();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].outcome, VerifyOutcome::kWrongAction);
  EXPECT_TRUE(report.violations[0].region.matches(header)) << report.summary();
}

TEST(Verifier, FlagsPolicyThePlanWasNotBuiltFrom) {
  const auto policy = classbench_like(300, 97);
  Scenario scenario(policy, difane_params());
  // The same rules with one action flipped: every clipped copy of that rule
  // now disagrees with the policy it is checked against.
  std::vector<Rule> rules = policy.rules();
  rules[rules.size() / 2].action = rules[rules.size() / 2].action == Action::drop()
                                       ? Action::forward(1)
                                       : Action::drop();
  const RuleTable other(rules);
  const auto report = verify_installed_state(scenario.net(), *scenario.difane(), other,
                                             edges(scenario));
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  EXPECT_EQ(report.violations[0].outcome, VerifyOutcome::kBadPlan);
  EXPECT_EQ(report.violations[0].ingress, kInvalidSwitch);
}

TEST(Verifier, FlagsUnreachableAuthority) {
  const auto policy = classbench_like(300, 101);
  Scenario scenario(policy, difane_params());
  const SwitchId ingress = scenario.ingress_switch(0);
  for (const SwitchId sw : scenario.difane()->authority_switches()) {
    scenario.net().set_link_failed(ingress, sw, true);
  }
  const auto report = verify_installed_state(scenario.net(), *scenario.difane(),
                                             policy, {ingress});
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].outcome, VerifyOutcome::kUnreachable);
}

TEST(Verifier, CachedRuleNeedsItsParentsAhead) {
  const auto policy = campus_like(120, 211);
  Scenario scenario(policy, three_authorities());
  // The first clipped rule with a dependency parent.
  const DifaneController& ctl = *scenario.difane();
  std::optional<std::pair<std::size_t, std::uint32_t>> pick;
  for (std::size_t p = 0; !pick && p < ctl.plan().partitions().size(); ++p) {
    const auto& parents = ctl.partition_index(p).graph().parents;
    for (std::uint32_t r = 0; !pick && r < parents.size(); ++r) {
      if (!parents[r].empty()) pick.emplace(p, r);
    }
  }
  ASSERT_TRUE(pick.has_value());
  const auto [p, r] = *pick;
  const RuleTable& rules = ctl.plan().partitions()[p].rules;
  const DependencyGraph& graph = ctl.partition_index(p).graph();
  const SwitchId ingress = scenario.ingress_switch(0);
  auto& table = scenario.net().sw(ingress).table();
  // Alone, the cached rule decides headers its parents win.
  table.install(rules.at(r), Band::kCache, 0.0);
  const auto alone = verify_installed_state(scenario.net(), *scenario.difane(), policy,
                                            {ingress});
  ASSERT_FALSE(alone.clean());
  EXPECT_EQ(alone.violations[0].outcome, VerifyOutcome::kWrongAction);
  const std::string parent = "parent rule " + std::to_string(rules.at(graph.parents[r][0]).id);
  EXPECT_NE(alone.violations[0].detail.find(parent), std::string::npos) << alone.summary();
  // With its dependent set ahead of it, as dependent-set caching installs,
  // every overlap is claimed.
  for (const auto ancestor : ancestor_closure(graph, r)) {
    table.install(rules.at(ancestor), Band::kCache, 0.0);
  }
  const auto guarded = verify_installed_state(scenario.net(), *scenario.difane(),
                                              policy, {ingress});
  EXPECT_TRUE(guarded.clean()) << guarded.summary();
  // Ancestors that idle out leave at the next lookup's sweep, and the
  // sweep's cascade takes the entry that lists them as guards along.
  std::vector<RuleId> guards;
  for (const auto ancestor : ancestor_closure(graph, r)) {
    table.install(rules.at(ancestor), Band::kCache, 0.0, /*idle_timeout=*/1.0);
    guards.push_back(rules.at(ancestor).id);
  }
  table.install(rules.at(r), Band::kCache, 0.0, 0.0, 0.0, guards);
  const auto swept = verify_installed_state(scenario.net(), *scenario.difane(), policy,
                                            {ingress}, /*now=*/2.0);
  EXPECT_TRUE(swept.clean()) << swept.summary();
  // Without the guards nothing takes it along: it outlives its parents.
  table.install(rules.at(r), Band::kCache, 0.0);
  const auto orphan = verify_installed_state(scenario.net(), *scenario.difane(), policy,
                                             {ingress}, /*now=*/2.0);
  EXPECT_FALSE(orphan.clean());
}

TEST(Verifier, ExactEntriesAheadClaimTheirPoints) {
  const auto policy = campus_like(120, 211);
  Scenario scenario(policy, three_authorities());
  // Two headers a single used bit apart, both forwarded by the policy.
  Rng rng(7);
  BitVec lo;
  for (;;) {
    lo = Ternary::wildcard().sample_point(rng);
    lo.set(0, false);
    BitVec hi = lo;
    hi.set(0, true);
    const Rule* a = policy.match(lo);
    const Rule* b = policy.match(hi);
    if (a != nullptr && b != nullptr && a->action.type == ActionType::kForward &&
        b->action.type == ActionType::kForward) {
      break;
    }
  }
  BitVec hi = lo;
  hi.set(0, true);
  const SwitchId ingress = scenario.ingress_switch(0);
  auto& table = scenario.net().sw(ingress).table();
  const auto verify = [&] {
    return verify_installed_state(scenario.net(), *scenario.difane(), policy, {ingress});
  };
  // Behind it, a drop entry over both points; with bit 0 wildcarded it is
  // no exact entry, so it is peeled.
  Rule wrong;
  wrong.id = 0x7fff1000;
  wrong.priority = 0;
  BitVec care = used_bits_mask();
  care.set(0, false);
  wrong.match = Ternary(lo, care);
  wrong.action = Action::drop();
  table.install(wrong, Band::kCache, 0.0);
  Rule right_lo = exact_entry(lo, policy.match(lo)->action);
  table.install(right_lo, Band::kCache, 0.0);
  // One exact entry ahead claims one of the two points: still wrong at hi.
  const auto half = verify();
  ASSERT_FALSE(half.clean());
  EXPECT_TRUE(half.violations[0].region.matches(hi)) << half.summary();
  // Both points claimed: the drop entry never matches.
  Rule right_hi = exact_entry(hi, policy.match(hi)->action);
  right_hi.id = right_lo.id + 1;
  table.install(right_hi, Band::kCache, 0.0);
  const auto both = verify();
  EXPECT_TRUE(both.clean()) << both.summary();
  // An exact entry shadowed by an identical one ahead is never checked.
  Rule shadowed = exact_entry(lo, Action::drop());
  shadowed.id = right_hi.id + 1;
  table.install(shadowed, Band::kCache, 0.0);
  const auto shadow = verify();
  EXPECT_TRUE(shadow.clean()) << shadow.summary();
}

TEST(Verifier, StoppedPeelIsAViolation) {
  const auto policy = classbench_like(300, 103);
  Scenario scenario(policy, difane_params());
  const SwitchId ingress = scenario.ingress_switch(0);
  auto& table = scenario.net().sw(ingress).table();
  // Three punting entries that each pin 20 bits of a different field: the
  // part of the full space they leave is 20^3 pieces, past the peel bound.
  const Field fields[] = {Field::kIpSrc, Field::kIpDst, Field::kEthSrc};
  RuleId id = 0x7fff2000;
  for (const Field field : fields) {
    Rule punt;
    punt.id = id++;
    punt.priority = std::numeric_limits<Priority>::max();
    const auto& spec = field_spec(field);
    BitVec value;
    BitVec care;
    for (std::size_t b = 0; b < 20; ++b) {
      value.set(spec.offset + b, b % 2 == 0);
      care.set(spec.offset + b, true);
    }
    punt.match = Ternary(value, care);
    punt.action = Action::to_controller();
    table.install(punt, Band::kCache, 0.0);
  }
  Rule drop_all;
  drop_all.id = id;
  drop_all.priority = 0;
  drop_all.action = Action::drop();
  table.install(drop_all, Band::kCache, 0.0);
  const auto report = verify_installed_state(scenario.net(), *scenario.difane(),
                                             policy, {ingress});
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.violations[0].detail.find("not proven safe"), std::string::npos)
      << report.summary();
}

// Region-level planted defects on small campus policies: each violation
// carries a witness region.
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
  const auto report = verify_installed_state(scenario.net(), *scenario.difane(), policy,
                                             {scenario.ingress_switch(0)});
  EXPECT_TRUE(report.clean()) << report.summary();
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
        verify_installed_state(scenario.net(), *scenario.difane(), policy,
                               {scenario.ingress_switch(0)}, scenario.end_clock());
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
  const auto report =
      verify_installed_state(scenario.net(), *scenario.difane(), policy, {ingress});
  ASSERT_FALSE(report.clean());
  const VerifyViolation& v = report.violations[0];
  EXPECT_NE(v.detail.find("switch decides fwd(0)"), std::string::npos) << v.detail;
  // The witness region lies inside the corrupted predicate.
  EXPECT_TRUE(intersects(v.region, evil.match));
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

  const auto report =
      verify_installed_state(scenario.net(), *scenario.difane(), policy, {ingress});
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(report.violations[0].region.matches(other)) << report.summary();
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
  const auto report =
      verify_installed_state(scenario.net(), *scenario.difane(), policy, {ingress});
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.violations[0].detail.find("matches nothing"), std::string::npos);
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
  const auto report =
      verify_installed_state(scenario.net(), *scenario.difane(), policy, {ingress});
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.violations[0].detail.find("non-authority"), std::string::npos);
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

  const auto before = verify_installed_state(scenario.net(), *scenario.difane(), policy,
                                             {ingress}, /*now=*/0.5);
  ASSERT_FALSE(before.clean());

  // Past its idle timeout the entry is still in the table (expiry is lazy)
  // but can no longer match, so the data plane it describes is clean.
  ASSERT_EQ(table.entries(Band::kCache).size(), 1u);
  const auto after = verify_installed_state(scenario.net(), *scenario.difane(), policy,
                                            {ingress}, /*now=*/2.0);
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
  const auto report =
      verify_installed_state(scenario.net(), *scenario.difane(), policy, {ingress});
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.violations[0].detail.find("failed switch"), std::string::npos)
      << report.violations[0].detail;

  // Failover re-points the partition rules at the live backup.
  scenario.difane()->handle_authority_failure(dead);
  const auto healed =
      verify_installed_state(scenario.net(), *scenario.difane(), policy, {ingress});
  EXPECT_TRUE(healed.clean()) << healed.summary();
}

}  // namespace
}  // namespace difane
