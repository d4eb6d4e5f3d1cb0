#include <gtest/gtest.h>

#include "core/system.hpp"
#include "core/verifier.hpp"
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
  EXPECT_EQ(report.ok, report.samples);
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
                                             policy, edges(scenario));
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

TEST(Verifier, SampledCheckLeavesAuthorityStateUntouched) {
  // The sampled walk resolves each redirect the way the authority does, but
  // must not generate the cache install: generating builds dependency graphs
  // and advances the binding's microflow ids, so a verified run would answer
  // the next redirect differently from its unverified twin.
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
  const auto report = verified.verify_installed(200, 3);
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

}  // namespace
}  // namespace difane
