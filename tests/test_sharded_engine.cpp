// The sharded conservative-window executor: window maths, deterministic
// cross-shard delivery, the clamping contract, and the Scenario-level
// guarantees for the one configuration it runs (the fault-free DIFANE data
// plane) — threads=1 is byte-identical to the classic engine, threads=N is
// seed-stable (same seed + thread count => identical report), and both
// conserve packets and converge to a verifier-clean installed state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "engine/sharded.hpp"
#include "proptest/property.hpp"
#include "util/contract.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

namespace difane {
namespace {

// ---------------------------------------------------------------------------
// Executor unit tests

// One shard, no workers: execution must match a plain Engine event for event.
TEST(ShardedExecutor, SingleShardMatchesSerialEngine) {
  std::vector<std::pair<int, double>> serial, sharded;

  Engine plain;
  for (int i = 0; i < 5; ++i) {
    plain.at(0.1 * i, [&serial, i, &plain]() {
      serial.emplace_back(i, plain.now());
    });
  }
  plain.run();

  Engine global;
  shard::Executor exec(1, 1, 0.05, &global);
  for (int i = 0; i < 5; ++i) {
    exec.schedule(0, 0.1 * i, [&sharded, i, &exec]() {
      sharded.emplace_back(i, exec.context_engine().now());
    });
  }
  exec.run();
  EXPECT_EQ(serial, sharded);
}

// A cross-shard event scheduled with no latency of its own lands at the next
// window boundary, never inside the window that emitted it.
TEST(ShardedExecutor, LatencyFreeCrossShardDispatchClampsToWindowEnd) {
  const double lookahead = 0.010;
  Engine global;
  shard::Executor exec(2, 1, lookahead, &global);

  double received_at = -1.0;
  exec.schedule(0, 0.001, [&exec, &received_at]() {
    // Shard 0, time 0.001: hand shard 1 an event "now".
    exec.schedule(1, exec.context_engine().now(),
                  [&exec, &received_at]() {
                    received_at = exec.context_engine().now();
                  });
  });
  exec.run();
  // First window end = 0.001 + lookahead; the dispatch pays the boundary.
  EXPECT_GE(received_at, 0.001);
  EXPECT_LE(received_at, 0.001 + lookahead);
  EXPECT_GT(exec.cross_messages(), 0u);
}

// A cross-shard event that pays at least the lookahead (a packet hop) is
// delivered exactly when requested — the clamp can never move it.
TEST(ShardedExecutor, LookaheadPayingEventsAreNeverClamped) {
  const double lookahead = 0.010;
  Engine global;
  shard::Executor exec(2, 1, lookahead, &global);

  std::vector<double> arrivals;
  for (int i = 0; i < 4; ++i) {
    exec.schedule(0, 0.002 * i, [&exec, &arrivals, lookahead]() {
      const double depart = exec.context_engine().now();
      exec.schedule(1, depart + lookahead, [&exec, &arrivals]() {
        arrivals.push_back(exec.context_engine().now());
      });
    });
  }
  exec.run();
  ASSERT_EQ(arrivals.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(arrivals[i], 0.002 * i + lookahead);
  }
}

// Global events at time T run before shard events at T: a global state flip
// at T must be visible to every shard event stamped T.
TEST(ShardedExecutor, GlobalEventsRunBeforeShardEventsAtTheSameTime) {
  Engine global;
  shard::Executor exec(2, 1, 0.010, &global);

  std::vector<std::string> order;
  global.at(0.005, [&order]() { order.push_back("global@5ms"); });
  exec.schedule(0, 0.005, [&order]() { order.push_back("shard0@5ms"); });
  exec.schedule(1, 0.001, [&order]() { order.push_back("shard1@1ms"); });
  exec.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "shard1@1ms");
  EXPECT_EQ(order[1], "global@5ms");
  EXPECT_EQ(order[2], "shard0@5ms");
}

// The same schedule replayed through a multi-worker executor produces the
// same per-shard execution traces every time, regardless of OS thread
// scheduling. (Traces are collected per shard — each vector is written only
// by its owning shard — because that is the executor's determinism unit: a
// global interleaving across concurrent workers is not defined.)
TEST(ShardedExecutor, MultiThreadedRunIsDeterministic) {
  const auto trace_once = []() {
    Engine global;
    shard::Executor exec(4, 4, 0.010, &global);
    std::vector<std::vector<std::pair<int, double>>> traces(4);
    const auto record = [&exec, &traces](int tag) {
      traces[shard::current_shard()].emplace_back(
          tag, exec.context_engine().now());
    };
    // A little mesh: every shard pings neighbours with lookahead latency,
    // plus latency-free control handoffs that clamp at window boundaries.
    for (std::uint32_t s = 0; s < 4; ++s) {
      exec.schedule(s, 0.001 * (s + 1), [&exec, &record, s]() {
        const double now = exec.context_engine().now();
        record(static_cast<int>(s));
        exec.schedule((s + 1) % 4, now + 0.010, [&record, s]() {
          record(100 + static_cast<int>(s));
        });
        exec.schedule((s + 2) % 4, now, [&record, s]() {
          record(200 + static_cast<int>(s));
        });
      });
    }
    exec.run();
    return traces;
  };
  const auto first = trace_once();
  std::size_t total = 0;
  for (const auto& t : first) total += t.size();
  ASSERT_EQ(total, 12u);
  for (int rep = 0; rep < 3; ++rep) EXPECT_EQ(trace_once(), first);
}

// ---------------------------------------------------------------------------
// Work stealing

// Busy-wait so a shard's events take real wall time without sleeping (a
// sleeping worker would let the OS re-order wakeups arbitrarily).
void spin_for_us(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Two workers, four shards, all the heavy work homed on worker 1 (shards 1
// and 3). Worker 0 drains its trivial homes and must pick up worker 1's
// second shard through the steal pass. Stealing is timing-dependent by
// design, so the assertion is probabilistic with overwhelming odds: ~100
// windows per run, each leaving a stealable shard while the other grinds,
// retried a few times before declaring failure. (That steals never change a
// shard's trace is pinned by MultiThreadedRunIsDeterministic above.)
TEST(WorkStealing, SkewedLoadGetsStolen) {
  const auto skewed_run = []() {
    Engine global;
    shard::Executor exec(4, 2, 0.001, &global);
    std::atomic<int> ran{0};
    for (int k = 0; k < 100; ++k) {
      const double at = 0.0005 + 0.001 * k;
      exec.schedule(0, at, [&ran]() { ran.fetch_add(1); });
      for (std::uint32_t s : {1u, 3u}) {
        exec.schedule(s, at, [&ran]() {
          spin_for_us(50);
          ran.fetch_add(1);
        });
      }
    }
    exec.run();
    EXPECT_EQ(ran.load(), 300);
    return exec.shards_stolen();
  };

  std::uint64_t stolen = 0;
  for (int attempt = 0; attempt < 5 && stolen == 0; ++attempt) {
    stolen = skewed_run();
  }
  EXPECT_GT(stolen, 0u) << "no steal observed across 5 skewed runs";
}

// ---------------------------------------------------------------------------
// Scenario-level parallel execution

RuleTable policy_for_threads(std::uint64_t seed = 7) {
  RuleGenParams params;
  params.num_rules = 250;
  params.seed = seed;
  return generate_policy(params);
}

std::vector<FlowSpec> traffic_for_threads(const RuleTable& policy,
                                          std::uint64_t seed) {
  TrafficParams tp;
  tp.seed = seed;
  tp.flow_pool = 400;
  tp.zipf_s = 0.9;
  tp.arrival_rate = 4000.0;
  tp.duration = 0.25;
  tp.mean_packets = 3.0;
  TrafficGenerator gen(policy, tp);
  return gen.generate();
}

ScenarioParams threads_params(std::size_t threads) {
  ScenarioParams params;
  params.edge_switches = 8;
  params.core_switches = 4;
  params.authority_count = 4;
  params.edge_cache_capacity = 400;
  params.partitioner.capacity = 300;
  params.threads = threads;
  return params;
}

TEST(ScenarioThreads, ValidateRejectsMisWires) {
  const auto field_of = [](const ScenarioParams& params) -> std::string {
    try {
      params.validate();
    } catch (const ConfigError& e) {
      return e.field();
    }
    return "";
  };
  auto params = threads_params(0);
  EXPECT_EQ(field_of(params), "threads");
  params = threads_params(4);
  params.link.latency = 0.0;  // no lookahead => no conservative window
  EXPECT_EQ(field_of(params), "threads");
  params = threads_params(4);
  EXPECT_NO_THROW(params.validate());

  // The executor runs the fault-free DIFANE data plane only. Each feature
  // below is otherwise valid — it passes at threads=1 — and is rejected
  // naming `threads` at threads=4.
  const auto expect_serial_only = [&](const ScenarioParams& base,
                                      const char* feature) {
    ScenarioParams serial = base;
    serial.threads = 1;
    EXPECT_NO_THROW(serial.validate()) << feature;
    EXPECT_EQ(field_of(base), "threads") << feature;
  };
  params = threads_params(4);
  params.mode = Mode::kNox;
  expect_serial_only(params, "NOX mode");

  params = threads_params(4);
  params.faults.msg_loss = 0.1;
  params.reliable_ctrl = true;
  expect_serial_only(params, "fault plan");

  params = threads_params(4);
  params.timings.heartbeat_interval = 0.01;
  params.timings.heartbeat_horizon = 1.0;
  expect_serial_only(params, "heartbeat detection");

  params = threads_params(4);
  params.measurement.enabled = true;
  params.measurement.export_interval = 0.05;
  params.measurement.export_horizon = 1.0;
  expect_serial_only(params, "measurement");

  params = threads_params(4);
  params.migration.enabled = true;
  params.reliable_ctrl = true;
  expect_serial_only(params, "migration");
}

// Conservation and a verifier-clean final state under parallel execution.
TEST(ScenarioThreads, DifaneParallelRunConservesPacketsAndVerifies) {
  const auto policy = policy_for_threads();
  const auto flows = traffic_for_threads(policy, 21);
  Scenario scenario(policy, threads_params(4));
  const auto& stats = scenario.run(flows);
  EXPECT_GT(stats.tracer.injected(), 0u);
  EXPECT_GT(stats.tracer.delivered(), 0u);
  EXPECT_EQ(stats.tracer.in_flight(), 0);
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped());
  const auto report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// Two replicas serve every partition, on different shards (authorities are
// spread round-robin across them). Flows enter at all eight edges, which
// split each partition's redirects between its replicas, and arrive about
// 20 per 100 us window, so two shards first-touch a partition's shared tree
// and dependency graph in the same window. Each is built once, under a
// once-guard. TSan runs this suite.
TEST(ScenarioThreads, ReplicasOnTwoShardsShareOnePartitionIndex) {
  const auto policy = policy_for_threads();
  TrafficParams tp;
  tp.seed = 29;
  tp.flow_pool = 2000;
  tp.arrival_rate = 200000.0;
  tp.duration = 0.01;
  tp.mean_packets = 2.0;
  tp.ingress_count = 8;
  const auto flows = TrafficGenerator(policy, tp).generate();
  auto params = threads_params(4);
  params.authority_replicas = 2;
  const auto run_once = [&]() {
    Scenario scenario(policy, params);
    const auto& stats = scenario.run(flows);
    EXPECT_GT(stats.redirects, 0u);
    EXPECT_EQ(stats.tracer.in_flight(), 0);
    EXPECT_EQ(stats.tracer.injected(),
              stats.tracer.delivered() + stats.tracer.dropped());
    const auto verify = scenario.verify_installed();
    EXPECT_TRUE(verify.clean()) << verify.summary();
    auto report = stats.snapshot("replicas");
    report.git_rev = "fixed";
    report.wall_seconds = 0.0;
    return report.to_json_string();
  };
  const std::string first = run_once();
  EXPECT_EQ(run_once(), first);
}

// Seed stability: the same (seed, threads) pair replays byte-identically.
TEST(ScenarioThreads, ParallelRunIsSeedStable) {
  const auto policy = policy_for_threads();
  const auto flows = traffic_for_threads(policy, 23);
  const auto run_once = [&]() {
    Scenario scenario(policy, threads_params(4));
    auto report = scenario.run(flows).snapshot("threads");
    report.git_rev = "fixed";
    report.wall_seconds = 0.0;
    return report.to_json_string();
  };
  const std::string first = run_once();
  EXPECT_EQ(run_once(), first);
}

// Each ingress streams its flow starts from a list stably sorted by start;
// under the executor each list's cursor is written from its ingress's shard
// thread. Flows enter at all eight edges. A shuffled flow list, with eight
// exactly equal starts at ingress 1, runs exactly as the same list stably
// sorted by start. TSan runs this suite.
TEST(ScenarioThreads, ShuffledFlowListRunsAsItsStableSortByStart) {
  const auto policy = policy_for_threads();
  TrafficParams tp;
  tp.seed = 31;
  tp.flow_pool = 400;
  tp.zipf_s = 0.9;
  tp.arrival_rate = 4000.0;
  tp.duration = 0.25;
  tp.mean_packets = 3.0;
  tp.ingress_count = 8;
  auto shuffled = TrafficGenerator(policy, tp).generate();
  ASSERT_GT(shuffled.size(), 100u);
  for (std::size_t i = 0; i < 8; ++i) {
    FlowSpec& flow = shuffled[40 + 5 * i];
    flow.start = shuffled[40].start;
    flow.ingress_index = 1;
  }
  std::mt19937_64 rng(31);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  const auto by_start = [](const FlowSpec& a, const FlowSpec& b) {
    return a.start < b.start;
  };
  ASSERT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end(), by_start));
  auto sorted = shuffled;
  std::stable_sort(sorted.begin(), sorted.end(), by_start);
  const auto run_once = [&](const std::vector<FlowSpec>& flows) {
    Scenario scenario(policy, threads_params(4));
    const auto& stats = scenario.run(flows);
    EXPECT_GT(stats.redirects, 0u);
    EXPECT_EQ(stats.tracer.in_flight(), 0);
    auto report = stats.snapshot("shuffled");
    report.git_rev = "fixed";
    report.wall_seconds = 0.0;
    return report.to_json_string();
  };
  EXPECT_EQ(run_once(shuffled), run_once(sorted));
}

// threads=1 must take the legacy code path bit for bit: the report matches a
// default-constructed (no threads field touched) scenario exactly.
TEST(ScenarioThreads, ThreadsOneIsByteIdenticalToLegacy) {
  const auto policy = policy_for_threads();
  const auto flows = traffic_for_threads(policy, 24);
  const auto run_once = [&](std::size_t threads) {
    auto params = threads_params(1);
    params.threads = threads;
    Scenario scenario(policy, params);
    auto report = scenario.run(flows).snapshot("legacy");
    report.git_rev = "fixed";
    report.wall_seconds = 0.0;
    return report.to_json_string();
  };
  EXPECT_EQ(run_once(1), run_once(1));
}

// The end-of-run clock is the latest event on any engine. Under the executor
// the global engine advances only on global events, so reading its clock
// after a threads=4 run would judge occupancy (and verify_installed) at
// t=0, where no idled-out cache entry has expired yet.
TEST(ScenarioThreads, EndOfRunClockExpiresIdleEntries) {
  const auto policy = policy_for_threads();
  const auto flows = traffic_for_threads(policy, 28);
  const auto final_entries = [&](std::size_t threads) {
    auto params = threads_params(threads);
    params.timings.cache_idle_timeout = 0.001;
    Scenario scenario(policy, params);
    return scenario.run(flows).cache_entries_final;
  };
  const std::uint64_t serial = final_entries(1);
  EXPECT_LT(serial, 10u);  // nearly every entry idled out before the end
  EXPECT_EQ(final_entries(4), serial);
}

// ---------------------------------------------------------------------------
// Parallel data-plane differential

// A random fault-free DIFANE configuration — the one the executor runs — with
// enough traffic that every window carries cross-shard packet hops and
// install dispatches.
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

// threads=1 vs threads=4 on the same case. The two runs are not numerically
// identical (cross-shard control dispatches pay the window-boundary clamp),
// so the differential checks what must survive any legal scheduling: the
// same packets in, every one delivered or drop-counted, and a verifier-clean
// installed state at the end-of-run clock. Two threads=4 runs must also
// agree byte for byte. Replay a failure with DIFANE_PROPTEST_REPLAY=0x<seed>.
DIFANE_PROPERTY(ParallelDataPlaneDifferential, 60) {
  const DataPlaneCase c = gen_data_plane_case(ctx);
  const auto tag = [&]() {
    std::ostringstream os;
    os << "seed 0x" << std::hex << ctx.case_seed << std::dec << " authorities "
       << c.params.authority_count << " strategy "
       << cache_strategy_name(c.params.cache_strategy) << " reliable "
       << c.params.reliable_ctrl << " elephants " << c.params.elephants.enabled;
    return os.str();
  };
  const auto run_with = [&](std::size_t threads) {
    ScenarioParams params = c.params;
    params.threads = threads;
    Scenario scenario(c.policy, params);
    const ScenarioStats stats = scenario.run(c.flows);  // copy: dies with scenario
    auto report = stats.snapshot("parallel-data-plane");
    report.git_rev = "fixed";
    report.wall_seconds = 0.0;
    const VerifyReport verify = scenario.verify_installed(80, ctx.case_seed);
    EXPECT_TRUE(verify.clean())
        << tag() << " threads " << threads << "\n" << verify.summary();
    EXPECT_EQ(stats.tracer.in_flight(), 0) << tag() << " threads " << threads;
    EXPECT_EQ(stats.tracer.injected(),
              stats.tracer.delivered() + stats.tracer.dropped())
        << tag() << " threads " << threads;
    return std::make_pair(stats.tracer.injected(), report.to_json_string());
  };
  const auto [serial_injected, serial_snapshot] = run_with(1);
  const auto [parallel_injected, parallel_snapshot] = run_with(4);
  EXPECT_GT(serial_injected, 0u) << tag();
  EXPECT_EQ(serial_injected, parallel_injected) << tag();
  EXPECT_EQ(run_with(4).second, parallel_snapshot)
      << tag() << ": threads=4 not seed-stable";
}

}  // namespace
}  // namespace difane
