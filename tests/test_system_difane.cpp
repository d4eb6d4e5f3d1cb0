#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hpp"
#include "workload/rulegen.hpp"

namespace difane {
namespace {

ScenarioParams difane_params(std::uint32_t authorities = 1,
                             CacheStrategy strategy = CacheStrategy::kDependentSet) {
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 4;
  params.core_switches = std::max<std::size_t>(2, authorities);
  params.authority_count = authorities;
  params.edge_cache_capacity = 5000;
  params.partitioner.capacity = 200;
  params.cache_strategy = strategy;
  return params;
}

std::vector<FlowSpec> make_flows(const RuleTable& policy, std::size_t roughly,
                                 std::uint64_t seed, std::size_t pool = 200) {
  TrafficParams params;
  params.seed = seed;
  params.flow_pool = pool;
  params.arrival_rate = static_cast<double>(roughly);
  params.duration = 1.0;
  params.mean_packets = 5.0;
  params.ingress_count = 4;
  TrafficGenerator gen(policy, params);
  return gen.generate();
}

TEST(SystemDifane, SetupInstallsAllRuleKinds) {
  const auto policy = classbench_like(600, 3);
  Scenario scenario(policy, difane_params(2));
  ASSERT_NE(scenario.plan(), nullptr);
  const auto& plan = *scenario.plan();
  EXPECT_GE(plan.partitions().size(), 1u);
  // Every switch holds one partition rule per partition, and no flow table
  // holds an authority-band entry: the bindings are the authority band.
  for (SwitchId id = 0; id < scenario.net().switch_count(); ++id) {
    EXPECT_EQ(scenario.net().sw(id).table().size(Band::kPartition),
              plan.partitions().size());
    EXPECT_EQ(scenario.net().sw(id).table().size(Band::kAuthority), 0u);
  }
  // The authority switches bind primary + backup copies; edges bind none.
  std::size_t bound_rules = 0;
  for (const SwitchId sw : scenario.difane()->authority_switches()) {
    bound_rules += scenario.difane()->node_at(sw)->rule_count();
  }
  EXPECT_EQ(bound_rules, 2 * plan.total_rules());
  EXPECT_EQ(scenario.difane()->node_at(scenario.ingress_switch(0)), nullptr);
}

TEST(SystemDifane, AllFirstPacketsReachDisposition) {
  const auto policy = classbench_like(400, 7);
  Scenario scenario(policy, difane_params(2));
  const auto flows = make_flows(policy, 2000, 7);
  const auto& stats = scenario.run(flows);
  EXPECT_EQ(stats.tracer.in_flight(), 0);
  // No overload at this rate: every flow completes setup.
  EXPECT_EQ(stats.setup_completions.total(), flows.size());
  EXPECT_EQ(stats.queue_rejects, 0u);
  // Packets either delivered or policy-dropped; no stray losses.
  EXPECT_EQ(stats.tracer.dropped(DropReason::kNoRule), 0u);
  EXPECT_EQ(stats.tracer.dropped(DropReason::kTtlExceeded), 0u);
  EXPECT_EQ(stats.tracer.dropped(DropReason::kUnreachable), 0u);
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped(DropReason::kPolicyDrop) +
                stats.tracer.dropped(DropReason::kControllerQueue));
}

TEST(SystemDifane, CacheWarmsUpUnderZipfTraffic) {
  const auto policy = classbench_like(400, 11);
  Scenario scenario(policy, difane_params(2));
  const auto flows = make_flows(policy, 3000, 11, /*pool=*/100);
  const auto& stats = scenario.run(flows);
  // Repeated flows hit the warm cache far more often than they redirect.
  EXPECT_GT(stats.ingress_cache_hits, stats.redirects);
  EXPECT_GT(stats.cache_installs, 0u);
  EXPECT_GT(stats.cache_hit_fraction(), 0.5);
}

TEST(SystemDifane, FirstPacketsStayInDataPlaneAndAreFast) {
  const auto policy = classbench_like(300, 13);
  Scenario scenario(policy, difane_params(1));
  const auto flows = make_flows(policy, 1000, 13);
  const auto& stats = scenario.run(flows);
  ASSERT_GT(stats.tracer.first_packet_delay().count(), 0u);
  // Data-plane redirection: sub-millisecond first-packet delay (the paper's
  // headline vs ~10ms through NOX).
  EXPECT_LT(stats.tracer.first_packet_delay().percentile(0.5), 2e-3);
}

TEST(SystemDifane, StretchIsBoundedByDetour) {
  const auto policy = classbench_like(300, 17);
  Scenario scenario(policy, difane_params(2));
  const auto flows = make_flows(policy, 1000, 17);
  const auto& stats = scenario.run(flows);
  ASSERT_GT(stats.stretch.count(), 0u);
  // Shortest edge-to-edge path is 2 hops; the authority detour costs at most
  // a couple extra hops in a two-tier network.
  EXPECT_GE(stats.stretch.percentile(0.5), 1.0);
  EXPECT_LE(stats.stretch.percentile(1.0), 3.0);
}

TEST(SystemDifane, SemanticsMatchPolicyPerFlow) {
  // Deterministic check: one flow per pool header, verify disposition kind
  // against the policy's winner action.
  const auto policy = classbench_like(300, 19);
  Scenario scenario(policy, difane_params(2, CacheStrategy::kCoverSet));
  TrafficParams tp;
  tp.seed = 19;
  tp.flow_pool = 300;
  tp.arrival_rate = 300.0;
  tp.duration = 1.0;
  tp.mean_packets = 1.0;
  tp.max_packets = 1.0;
  TrafficGenerator gen(policy, tp);
  const auto flows = gen.generate();
  std::size_t expect_drops = 0;
  for (const auto& flow : flows) {
    const Rule* winner = policy.match(flow.header);
    ASSERT_NE(winner, nullptr);
    if (winner->action.type == ActionType::kDrop) ++expect_drops;
  }
  const auto& stats = scenario.run(flows);
  EXPECT_EQ(stats.tracer.dropped(DropReason::kPolicyDrop), expect_drops);
  EXPECT_EQ(stats.tracer.delivered() +
                stats.tracer.dropped(DropReason::kPolicyDrop),
            stats.tracer.injected());
}

TEST(SystemDifane, EveryStrategyPreservesDispositions) {
  const auto policy = classbench_like(250, 23);
  TrafficParams tp;
  tp.seed = 23;
  tp.flow_pool = 60;  // heavy reuse to exercise cached paths
  tp.arrival_rate = 2000.0;
  tp.duration = 0.5;
  tp.mean_packets = 3.0;
  std::optional<std::uint64_t> expected_drops;
  for (const auto strategy : {CacheStrategy::kMicroflow, CacheStrategy::kDependentSet,
                              CacheStrategy::kCoverSet}) {
    Scenario scenario(policy, difane_params(2, strategy));
    TrafficGenerator gen(policy, tp);
    const auto& stats = scenario.run(gen.generate());
    const auto drops = stats.tracer.dropped(DropReason::kPolicyDrop);
    EXPECT_EQ(stats.tracer.delivered() + drops, stats.tracer.injected())
        << cache_strategy_name(strategy);
    if (!expected_drops.has_value()) {
      expected_drops = drops;
    } else {
      // Same traffic, same policy: identical dispositions across strategies.
      EXPECT_EQ(drops, *expected_drops) << cache_strategy_name(strategy);
    }
  }
}

TEST(SystemDifane, AuthorityFailureLosesOnlyDetectionWindowTraffic) {
  const auto policy = classbench_like(300, 29);
  // Microflow caching + uniform popularity: every distinct flow redirects,
  // keeping the authority switches on the packet path throughout the run.
  auto params = difane_params(2, CacheStrategy::kMicroflow);
  params.timings.failover_detect = 0.05;
  AuthorityCrash crash;  // authority 0, never restarted
  crash.at = 0.5;
  params.faults.crashes.push_back(crash);
  Scenario scenario(policy, params);
  TrafficParams tp;
  tp.seed = 29;
  tp.flow_pool = 100000;
  tp.zipf_s = 0.0;
  tp.arrival_rate = 2000.0;
  tp.duration = 1.0;
  tp.mean_packets = 1.0;
  tp.max_packets = 1.0;
  tp.ingress_count = 4;
  TrafficGenerator gen(policy, tp);
  const auto& stats = scenario.run(gen.generate());
  // Some packets died during the detection window — either at the failed
  // switch or because routing toward it had no path.
  EXPECT_GT(stats.tracer.dropped(DropReason::kSwitchFailed) +
                stats.tracer.dropped(DropReason::kUnreachable),
            0u);
  // …but after re-pointing, the backup serves: the vast majority completed.
  const double completion = static_cast<double>(stats.setup_completions.total()) /
                            static_cast<double>(gen.generate().size());
  EXPECT_GT(completion, 0.85);
}

TEST(SystemDifane, PendingArrivalsArePerFlowNotPerPacket) {
  // Arrivals stream: a packet schedules its flow's next one when it fires,
  // and a flow's first packet schedules its ingress's next start, so before
  // the first arrival the engine holds one start per ingress, not one event
  // per flow or per packet of the run.
  const auto policy = classbench_like(400, 7);
  const auto params = difane_params(2);
  Scenario scenario(policy, params);
  const auto flows = make_flows(policy, 500, 7);
  std::uint64_t packets = 0;
  for (const auto& flow : flows) packets += flow.packets;
  ASSERT_GT(packets, 2 * flows.size());
  ASSERT_GT(flows.size(), 10 * params.edge_switches);
  Engine& engine = scenario.net().engine();
  const std::size_t before = engine.pending();
  std::size_t at_start = 0;
  engine.at(0.0, [&] { at_start = engine.pending(); });
  const auto& stats = scenario.run(flows);
  EXPECT_LE(at_start, before + flows.size());
  EXPECT_LE(at_start, before + params.edge_switches);
  EXPECT_EQ(stats.tracer.injected(), packets);
}

TEST(SystemDifane, ShuffledFlowListRunsAsItsStableSortByStart) {
  // Each ingress streams its flow starts from a list stably sorted by start,
  // so the flow vector need not be sorted. A shuffled list runs exactly as
  // the same list stably sorted by start, which keeps the order of the
  // eight flows at ingress 1 whose starts are exactly equal.
  const auto policy = classbench_like(400, 9);
  auto shuffled = make_flows(policy, 500, 9);
  ASSERT_GT(shuffled.size(), 100u);
  for (std::size_t i = 0; i < 8; ++i) {
    FlowSpec& flow = shuffled[40 + 5 * i];
    flow.start = shuffled[40].start;
    flow.ingress_index = 1;
  }
  std::mt19937_64 rng(9);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  const auto by_start = [](const FlowSpec& a, const FlowSpec& b) {
    return a.start < b.start;
  };
  ASSERT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end(), by_start));
  auto sorted = shuffled;
  std::stable_sort(sorted.begin(), sorted.end(), by_start);
  const auto run_once = [&](const std::vector<FlowSpec>& flows) {
    Scenario scenario(policy, difane_params(2));
    const auto& stats = scenario.run(flows);
    EXPECT_GT(stats.redirects, 0u);
    auto report = stats.snapshot("shuffled");
    report.git_rev = "fixed";
    report.wall_seconds = 0.0;
    return report.to_json_string();
  };
  EXPECT_EQ(run_once(shuffled), run_once(sorted));
}

TEST(SystemDifane, EndOfRunClockExpiresIdleEntries) {
  // cache_entries_final counts the cache entries live at the end-of-run
  // clock, the time of the run's last event. Read at t=0 instead, no entry
  // would have idled out yet.
  RuleGenParams rg;
  rg.num_rules = 250;
  rg.seed = 7;
  const auto policy = generate_policy(rg);
  TrafficParams tp;
  tp.seed = 28;
  tp.flow_pool = 400;
  tp.zipf_s = 0.9;
  tp.arrival_rate = 4000.0;
  tp.duration = 0.25;
  tp.mean_packets = 3.0;
  auto params = difane_params(4);
  params.edge_switches = 8;
  params.core_switches = 4;
  params.edge_cache_capacity = 400;
  params.partitioner.capacity = 300;
  params.timings.cache_idle_timeout = 0.001;
  Scenario scenario(policy, params);
  const auto& stats = scenario.run(TrafficGenerator(policy, tp).generate());
  EXPECT_GT(stats.cache_installs, 100u);
  EXPECT_GT(scenario.end_clock(), 0.2);
  EXPECT_LT(stats.cache_entries_final, 10u);  // nearly every entry idled out
}

TEST(SystemDifane, RunRejectsBadFlowTimingsBeforeSchedulingAnything) {
  // Streamed arrivals need each flow's packets in time order, from a start
  // no earlier than the clock, so a bad flow fails up front, naming its id,
  // before any flow is scheduled.
  const auto policy = classbench_like(200, 5);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, double>> bad = {
      {1.0, -0.001}, {1.0, inf}, {1.0, nan}, {-1.0, 0.001}, {inf, 0.001}, {nan, 0.001}};
  for (const auto& [start, gap] : bad) {
    Scenario scenario(policy, difane_params(1));
    auto flows = make_flows(policy, 100, 5);
    ASSERT_GT(flows.size(), 2u);
    FlowSpec& flow = flows[flows.size() / 2];
    flow.start = start;
    flow.packet_gap = gap;
    flow.packets = 5;
    const std::size_t pending = scenario.net().engine().pending();
    try {
      scenario.run(flows);
      ADD_FAILURE() << "accepted start " << start << ", packet_gap " << gap;
    } catch (const contract_violation& e) {
      EXPECT_NE(std::string(e.what()).find("flow " + std::to_string(flow.id) + " "),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(scenario.net().engine().pending(), pending);
    EXPECT_EQ(scenario.stats().tracer.injected(), 0u);
  }
}

// Redirects queued at an authority switch when it crashes die with it. A
// crashed switch that kept resolving them sent cache installs after its
// death, and the heartbeat monitor took each one for liveness: at a 0.4 ms
// heartbeat it declared the still-failed switch recovered and the restart
// handler aborted the run.
TEST(SystemDifane, CrashedAuthorityResolvesNothingItQueued) {
  const auto policy = classbench_like(200, 3);
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.authority_count = 2;
  params.cache_strategy = CacheStrategy::kMicroflow;
  params.timings.authority_service = 1e-3;  // a backlog builds at each authority
  params.timings.heartbeat_interval = 4e-4;
  params.timings.heartbeat_miss = 2;
  params.timings.heartbeat_horizon = 0.2;
  AuthorityCrash crash;
  crash.authority_index = 0;
  crash.at = 0.05;  // no restart
  params.faults.crashes.push_back(crash);
  Scenario scenario(policy, params);
  Rng rng(9);
  std::vector<FlowSpec> flows;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    FlowSpec flow;
    flow.id = i;
    flow.header = policy.at(rng.uniform(0, policy.size() - 1)).match.sample_point(rng);
    flow.start = 0.1 * static_cast<double>(i) / 4000.0;
    flow.packets = 1;
    flow.ingress_index = static_cast<std::uint32_t>(i % 4);
    flows.push_back(std::move(flow));
  }
  const auto& stats = scenario.run(flows);
  EXPECT_EQ(stats.failovers_detected, 1u);
  EXPECT_EQ(stats.recoveries_detected, 0u);
  EXPECT_EQ(stats.spurious_failovers, 0u);
  EXPECT_GT(stats.tracer.dropped(DropReason::kSwitchFailed), 0u);
  EXPECT_EQ(stats.tracer.in_flight(), 0);
}

TEST(SystemDifane, ZeroAuthorityCountRejected) {
  const auto policy = classbench_like(50, 31);
  auto params = difane_params(1);
  params.authority_count = 0;
  EXPECT_THROW(Scenario(policy, params), ConfigError);
}

}  // namespace
}  // namespace difane
