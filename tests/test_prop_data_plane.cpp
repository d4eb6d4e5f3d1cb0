// Property suite for the fault-free DIFANE data plane: random policies,
// traffic and small two-tier networks under every installing cache strategy,
// with and without reliable control channels, and in two fifths of the cases
// the elephant-aware install policy (probation timeouts, proactive installs,
// mice bypass). The chaos suites run elephants only under at least 10%
// message loss plus an authority crash; this is their fault-free baseline.
//
// Three guarantees per case:
//  * Conservation: every injected packet is delivered or drop-counted.
//  * Convergence: the installed state is verifier-clean at the end-of-run
//    clock.
//  * Replay: a second run of the same case gives a byte-identical report.
// Replay a failure with DIFANE_PROPTEST_REPLAY=0x<seed>.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "proptest/property.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

namespace difane {
namespace {

struct DataPlaneCase {
  RuleTable policy;
  std::vector<FlowSpec> flows;
  ScenarioParams params;
};

DataPlaneCase gen_data_plane_case(proptest::PropertyContext& ctx) {
  RuleGenParams rg;
  rg.num_rules = static_cast<std::size_t>(ctx.rng.uniform(60, 250));
  rg.seed = ctx.rng.next_u64();
  DataPlaneCase c{generate_policy(rg), {}, {}};

  TrafficParams tp;
  tp.seed = ctx.rng.next_u64();
  tp.flow_pool = static_cast<std::size_t>(ctx.rng.uniform(80, 400));
  tp.zipf_s = ctx.rng.uniform01() * 1.2;
  tp.arrival_rate = 1000.0 + ctx.rng.uniform01() * 5000.0;
  tp.duration = 0.05 + ctx.rng.uniform01() * 0.15;
  tp.mean_packets = 1.0 + ctx.rng.uniform01() * 3.0;
  tp.packet_gap = 0.001 + ctx.rng.uniform01() * 0.03;
  tp.ingress_count = static_cast<std::uint32_t>(ctx.rng.uniform(1, 6));
  c.flows = TrafficGenerator(c.policy, tp).generate();

  ScenarioParams& p = c.params;
  p.edge_switches = static_cast<std::size_t>(ctx.rng.uniform(2, 6));
  p.core_switches = 4;
  p.authority_count = static_cast<std::uint32_t>(ctx.rng.uniform(1, 4));
  p.edge_cache_capacity = static_cast<std::size_t>(ctx.rng.uniform(32, 400));
  p.partitioner.capacity = static_cast<std::size_t>(ctx.rng.uniform(40, 200));
  static constexpr CacheStrategy kStrategies[] = {
      CacheStrategy::kMicroflow, CacheStrategy::kDependentSet,
      CacheStrategy::kCoverSet};
  p.cache_strategy = kStrategies[ctx.rng.uniform(0, 2)];
  p.timings.cache_idle_timeout = ctx.rng.bernoulli(0.5) ? 0.02 : 10.0;
  p.reliable_ctrl = ctx.rng.bernoulli(0.5);
  if (ctx.rng.bernoulli(0.4)) {
    auto& e = p.elephants;
    e.enabled = true;
    e.tracker_capacity = 64;
    e.threshold = 2 + ctx.rng.uniform(0, 2);
    e.idle_timeout = 0.05 + ctx.rng.uniform01() * 0.15;
    e.probation_idle_timeout = ctx.rng.bernoulli(0.5) ? 0.01 : 0.0;
    e.proactive = ctx.rng.bernoulli(0.5);
    e.mice_bypass = ctx.rng.bernoulli(0.5);
    e.mice_min_packets = 2;
  }
  return c;
}

DIFANE_PROPERTY(FaultFreeDataPlaneConservesVerifiesAndReplays, 60) {
  const DataPlaneCase c = gen_data_plane_case(ctx);
  const auto tag = [&]() {
    std::ostringstream os;
    os << "seed 0x" << std::hex << ctx.case_seed << std::dec << " authorities "
       << c.params.authority_count << " strategy "
       << cache_strategy_name(c.params.cache_strategy) << " reliable "
       << c.params.reliable_ctrl << " elephants " << c.params.elephants.enabled;
    return os.str();
  };
  const auto run_once = [&]() {
    Scenario scenario(c.policy, c.params);
    const ScenarioStats stats = scenario.run(c.flows);  // copy: dies with scenario
    auto report = stats.snapshot("data-plane");
    report.git_rev = "fixed";
    report.wall_seconds = 0.0;
    const VerifyReport verify = scenario.verify_installed();
    EXPECT_TRUE(verify.clean()) << tag() << "\n" << verify.summary();
    EXPECT_GT(stats.tracer.injected(), 0u) << tag();
    EXPECT_EQ(stats.tracer.in_flight(), 0) << tag();
    EXPECT_EQ(stats.tracer.injected(),
              stats.tracer.delivered() + stats.tracer.dropped())
        << tag();
    return report.to_json_string();
  };
  EXPECT_EQ(run_once(), run_once()) << tag() << ": replay not byte-identical";
}

// One authority, dependent-set groups of 28 and 29 rules on a reliable wire
// with no faults: the install of clipped rule 203 evicted its own parent
// 184, and 211 landed after its parent 177 had left, so ingress 4 forwarded
// what both parents drop. The flow table now refuses an entry whose guards
// are absent, before and after making its room.
TEST(DataPlaneRegression, GroupInstallKeepsEveryRuleWithItsParents) {
  proptest::run_case(0xea938481ed7283c9ULL,
                     FaultFreeDataPlaneConservesVerifiesAndReplays_PropertyBody);
}

}  // namespace
}  // namespace difane
