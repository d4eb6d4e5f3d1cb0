// Authority replication: hot partitions served by several switches, with
// ingresses spreading redirects across live replicas.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "core/verifier.hpp"
#include "workload/rulegen.hpp"

namespace difane {
namespace {

ScenarioParams replicated_params(std::uint32_t replicas) {
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 4;
  params.core_switches = 4;
  params.authority_count = 4;
  params.authority_replicas = replicas;
  params.edge_cache_capacity = 1u << 18;
  params.partitioner.capacity = 200;
  params.cache_strategy = CacheStrategy::kMicroflow;  // keep redirects flowing
  return params;
}

std::vector<FlowSpec> storm(const RuleTable& policy, double rate, double duration,
                            std::uint64_t seed) {
  TrafficParams tp;
  tp.seed = seed;
  tp.flow_pool = 1u << 20;
  tp.zipf_s = 0.0;
  tp.arrival_rate = rate;
  tp.duration = duration;
  tp.mean_packets = 1.0;
  tp.max_packets = 1.0;
  tp.ingress_count = 4;
  TrafficGenerator gen(policy, tp);
  return gen.generate();
}

TEST(Replication, SemanticsPreservedWithReplicas) {
  const auto policy = classbench_like(400, 101);
  Scenario scenario(policy, replicated_params(3));
  const auto flows = storm(policy, 2000.0, 0.5, 101);
  const auto& stats = scenario.run(flows);
  EXPECT_EQ(stats.tracer.delivered() + stats.tracer.dropped(DropReason::kPolicyDrop),
            stats.tracer.injected());
  const auto report = verify_installed_state(
      scenario.net(), *scenario.difane(), policy,
      {scenario.ingress_switch(0), scenario.ingress_switch(1),
       scenario.ingress_switch(2), scenario.ingress_switch(3)});
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(Replication, SpreadsRedirectLoadAcrossReplicas) {
  const auto policy = classbench_like(400, 103);
  Scenario one(policy, replicated_params(1));
  Scenario four(policy, replicated_params(4));
  const auto flows = storm(policy, 4000.0, 0.5, 103);
  one.run(flows);
  four.run(flows);
  auto authority_hit_spread = [](Scenario& scenario) {
    // Count redirected work per authority switch via the packets its
    // bindings (its authority band) resolved.
    std::vector<std::uint64_t> hits;
    for (const auto sw : scenario.difane()->authority_switches()) {
      std::uint64_t packets = 0;
      for (const auto& row : scenario.difane()->node_at(sw)->flow_stats()) {
        packets += row.packets;
      }
      hits.push_back(packets);
    }
    std::sort(hits.begin(), hits.end());
    return hits;
  };
  const auto spread_one = authority_hit_spread(one);
  const auto spread_four = authority_hit_spread(four);
  // With replication, the busiest switch carries less than without.
  EXPECT_LT(spread_four.back(), spread_one.back());
  // And every switch participates.
  EXPECT_GT(spread_four.front(), 0u);
}

TEST(Replication, RaisesThroughputUnderHotPartitionOverload) {
  // Concentrate all setup load inside ONE partition's region: without
  // replication its single authority switch saturates at ~800K flows/s.
  const auto policy = classbench_like(400, 107);
  Scenario plain(policy, replicated_params(1));
  Scenario replicated(policy, replicated_params(4));
  // Same policy + partitioner => identical regions in both plans.
  const Ternary hot_region = plain.plan()->partitions()[0].region;
  Rng rng(107);
  std::vector<FlowSpec> flows;
  double t = 0.0;
  std::uint64_t id = 0;
  while (t < 0.04) {
    t += rng.exponential(1.6e6);  // 2x one authority switch's capacity
    FlowSpec f;
    f.id = id++;
    f.header = hot_region.sample_point(rng);
    f.start = t;
    f.packets = 1;
    f.ingress_index = static_cast<std::uint32_t>(id % 4);
    flows.push_back(std::move(f));
  }
  const auto done_plain = plain.run(flows).setup_completions.total();
  const auto done_replicated = replicated.run(flows).setup_completions.total();
  EXPECT_GT(done_replicated, done_plain + done_plain / 2)
      << "plain=" << done_plain << " replicated=" << done_replicated;
}

TEST(Replication, ClampedToAuthorityCount) {
  const auto policy = classbench_like(100, 109);
  auto params = replicated_params(64);  // far more than 4 authorities
  Scenario scenario(policy, params);    // must not throw / overflow
  const auto flows = storm(policy, 500.0, 0.2, 109);
  const auto& stats = scenario.run(flows);
  EXPECT_EQ(stats.tracer.in_flight(), 0);
}

TEST(Replication, FailoverWithReplicasKeepsServing) {
  const auto policy = classbench_like(300, 113);
  auto params = replicated_params(2);
  params.timings.failover_detect = 0.05;
  AuthorityCrash crash;  // authority 0, never restarted
  crash.at = 0.5;
  params.faults.crashes.push_back(crash);
  Scenario scenario(policy, params);
  const auto flows = storm(policy, 2000.0, 1.0, 113);
  const auto& stats = scenario.run(flows);
  const double completion = static_cast<double>(stats.setup_completions.total()) /
                            static_cast<double>(flows.size());
  EXPECT_GT(completion, 0.9);
}

}  // namespace
}  // namespace difane
