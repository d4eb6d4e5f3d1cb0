// Line-topology scenarios: DIFANE on a chain, where the authority detour is
// a real walk rather than a free stop at the core.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/system.hpp"
#include "core/verifier.hpp"
#include "workload/rulegen.hpp"

namespace difane {
namespace {

ScenarioParams line_params(std::size_t length, std::uint32_t authorities) {
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.topology = TopologyKind::kLine;
  params.edge_switches = length;
  params.core_switches = authorities;
  params.authority_count = authorities;
  params.edge_cache_capacity = 1u << 16;
  params.partitioner.capacity = 200;
  return params;
}

std::vector<FlowSpec> traffic(const RuleTable& policy, std::uint32_t ingresses,
                              std::uint64_t seed, double zipf = 0.0) {
  TrafficParams tp;
  tp.seed = seed;
  tp.flow_pool = 1u << 18;
  tp.zipf_s = zipf;
  tp.arrival_rate = 1500.0;
  tp.duration = 1.0;
  tp.mean_packets = 2.0;
  tp.packet_gap = 0.01;
  tp.ingress_count = ingresses;
  TrafficGenerator gen(policy, tp);
  return gen.generate();
}

TEST(LineTopology, RunsCleanAndConserves) {
  const auto policy = classbench_like(300, 131);
  Scenario scenario(policy, line_params(12, 2));
  const auto& stats = scenario.run(traffic(policy, 12, 131));
  EXPECT_EQ(stats.tracer.in_flight(), 0);
  EXPECT_EQ(stats.tracer.delivered() + stats.tracer.dropped(DropReason::kPolicyDrop),
            stats.tracer.injected());
}

TEST(LineTopology, InstalledStateVerifies) {
  const auto policy = classbench_like(300, 137);
  Scenario scenario(policy, line_params(8, 2));
  std::vector<SwitchId> ingresses;
  for (std::uint32_t i = 0; i < 8; ++i) ingresses.push_back(scenario.ingress_switch(i));
  const auto report = verify_installed_state(scenario.net(), *scenario.difane(),
                                             policy, ingresses);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(LineTopology, DetourStretchExceedsTwoTier) {
  const auto policy = classbench_like(300, 139);
  Scenario line(policy, line_params(16, 1));
  ScenarioParams twotier;
  twotier.mode = Mode::kDifane;
  twotier.edge_switches = 16;
  twotier.core_switches = 2;
  twotier.authority_count = 1;
  twotier.edge_cache_capacity = 1u << 16;
  twotier.partitioner.capacity = 200;
  Scenario clos(policy, twotier);
  const auto& line_stats = line.run(traffic(policy, 16, 139));
  const auto& clos_stats = clos.run(traffic(policy, 16, 139));
  ASSERT_GT(line_stats.stretch.count(), 0u);
  ASSERT_GT(clos_stats.stretch.count(), 0u);
  // On the chain, redirected first packets detour through the single
  // midpoint authority: p99 stretch well above the Clos's 2.0 bound.
  EXPECT_GT(line_stats.stretch.percentile(0.99),
            clos_stats.stretch.percentile(0.99));
}

// An ingress that is also an authority switch matches its bindings after
// its cache band and before its partition band, and each such local hit
// counts against the bound rule as a redirect does. The values were
// captured when the authority band was a FlowTable band holding copies of
// the rules; they must not move.
TEST(LineTopology, LocalHitsCountAgainstTheBindings) {
  const auto policy = classbench_like(30, 137);
  ScenarioParams params = line_params(6, 2);
  params.partitioner.capacity = 10;
  Scenario scenario(policy, params);
  TrafficParams tp;
  tp.seed = 137;
  tp.flow_pool = 1u << 18;
  tp.arrival_rate = 150.0;
  tp.duration = 1.0;
  tp.mean_packets = 2.0;
  tp.packet_gap = 0.01;
  tp.ingress_count = 6;
  const auto& stats = scenario.run(TrafficGenerator(policy, tp).generate());
  EXPECT_EQ(stats.tracer.injected(), 200u);
  EXPECT_EQ(stats.tracer.delivered(), 161u);
  EXPECT_EQ(stats.tracer.dropped(DropReason::kPolicyDrop), 39u);
  EXPECT_EQ(stats.ingress_cache_hits, 87u);
  EXPECT_EQ(stats.ingress_local_hits, 75u);
  EXPECT_EQ(stats.redirects, 38u);
  // {origin, packets, bytes, installed_copies} per policy rule.
  const std::vector<std::array<std::uint64_t, 4>> want = {
      {0, 1, 100, 3},    {1, 11, 1100, 6},  {2, 3, 300, 6},    {3, 3, 300, 6},
      {4, 0, 0, 6},      {5, 10, 1000, 6},  {6, 15, 1500, 6},  {7, 3, 300, 6},
      {8, 2, 200, 6},    {9, 1, 100, 6},    {10, 10, 1000, 6}, {11, 20, 2000, 5},
      {12, 10, 1000, 6}, {13, 8, 800, 6},   {14, 3, 300, 6},   {15, 6, 600, 6},
      {16, 15, 1500, 6}, {17, 7, 700, 5},   {18, 4, 400, 5},   {19, 6, 600, 6},
      {20, 2, 200, 6},   {21, 6, 600, 5},   {22, 8, 800, 5},   {23, 2, 200, 6},
      {24, 8, 800, 6},   {25, 1, 100, 6},   {26, 2, 200, 4},   {27, 3, 300, 5},
      {28, 5, 500, 4},   {29, 25, 2500, 17}};
  std::vector<std::array<std::uint64_t, 4>> got;
  for (const auto& row : scenario.query_flow_stats()) {
    got.push_back({row.origin, row.packets, row.bytes, row.installed_copies});
  }
  EXPECT_EQ(got, want);
}

TEST(LineTopology, AuthorityPositionsSpacedAndDistinct) {
  const auto policy = classbench_like(100, 149);
  Scenario scenario(policy, line_params(16, 4));
  const auto& authorities = scenario.difane()->authority_switches();
  ASSERT_EQ(authorities.size(), 4u);
  std::set<SwitchId> unique(authorities.begin(), authorities.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(LineTopology, BadAuthorityCountRejected) {
  const auto policy = classbench_like(50, 151);
  EXPECT_THROW(Scenario(policy, line_params(4, 5)), ConfigError);
}

}  // namespace
}  // namespace difane
