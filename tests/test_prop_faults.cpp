// Chaos property suite (`ctest -L chaos`): random (seed, FaultPlan) pairs
// against the full DIFANE scenario — control-message loss/duplication/
// jitter, failed cache installs, and an authority crash (sometimes with a
// restart) detected by heartbeats, all over reliable control channels.
//
// Three guarantees, each a property:
//  * Conservation: every injected packet is delivered or drop-counted
//    exactly once, no matter what the fault plan does.
//  * Convergence: after the run quiesces, the installed-state verifier
//    finds zero black holes, dangling redirects, or wrong actions —
//    the acceptance bar for "the system recovered".
//  * Replay: the same (seed, plan) reproduces a byte-identical metrics
//    report, so any chaos failure replays from its printed case seed
//    (DIFANE_PROPTEST_REPLAY=0x<seed> <binary>).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/system.hpp"
#include "proptest/gen.hpp"
#include "proptest/property.hpp"

namespace difane {
namespace {

struct ChaosCase {
  ScenarioParams params;
  std::vector<FlowSpec> flows;
  RuleTable policy;
};

// A random small DIFANE scenario with two authorities (so a permanent crash
// still leaves a live replica to fail over to), reliable control channels,
// heartbeat detection, and a fault plan whose message loss is at least 10% —
// the acceptance bar deliberately sits inside the generated range.
ChaosCase gen_chaos_case(Rng& rng, std::uint64_t case_seed) {
  ChaosCase c;

  proptest::TableGenParams tg;
  tg.max_rules = 24;
  tg.add_default = true;
  c.policy = proptest::gen_table(rng, tg);
  const auto packets = proptest::gen_packets(rng, c.policy, 24);

  auto& p = c.params;
  p.mode = Mode::kDifane;
  p.topology = TopologyKind::kTwoTier;
  p.edge_switches = 2 + rng.uniform(0, 1);
  p.core_switches = 2;
  p.authority_count = 2;
  p.edge_cache_capacity = 32 << rng.uniform(0, 2);
  p.partitioner.capacity = 16;
  static constexpr CacheStrategy kStrategies[] = {
      CacheStrategy::kMicroflow, CacheStrategy::kDependentSet,
      CacheStrategy::kCoverSet};
  p.cache_strategy = kStrategies[rng.uniform(0, 2)];
  p.timings.cache_idle_timeout = rng.bernoulli(0.3) ? 0.05 : 10.0;

  p.reliable_ctrl = true;
  p.faults.seed = case_seed;
  p.faults.msg_loss = 0.1 + rng.uniform01() * 0.25;  // >= 10% by construction
  p.faults.msg_dup = rng.uniform01() * 0.2;
  p.faults.msg_jitter_prob = rng.uniform01() * 0.4;
  p.faults.msg_jitter_max = rng.uniform01() * 2e-3;
  p.faults.install_fail = rng.uniform01() * 0.2;

  c.flows = proptest::flows_from_packets(
      packets, static_cast<std::uint32_t>(p.edge_switches));

  // Crash authority 0 mid-trace; restart it later in two thirds of the
  // cases. Heartbeats (sometimes themselves lost) detect both transitions.
  AuthorityCrash crash;
  crash.authority_index = 0;
  crash.at = 0.03 + rng.uniform01() * 0.04;
  crash.restart_at = rng.bernoulli(0.67) ? crash.at + 0.04 + rng.uniform01() * 0.04
                                         : -1.0;
  p.faults.crashes.push_back(crash);

  p.timings.heartbeat_interval = 0.015 + rng.uniform01() * 0.015;
  p.timings.heartbeat_miss = 2 + static_cast<std::uint32_t>(rng.uniform(0, 1));
  p.timings.heartbeat_horizon = 1.0;

  // In two fifths of the cases, run the elephant-aware install policy under
  // the same faults: a tiny promotion threshold so the sketch actually fires
  // on these short traces, random mice-bypass/probation/proactive knobs. The
  // conservation and verifier properties below must hold regardless — in
  // particular, a bypassed mouse must still be delivered via the authority
  // path (bypass skips the install, never the packet).
  if (rng.bernoulli(0.4)) {
    auto& e = p.elephants;
    e.enabled = true;
    e.tracker_capacity = 64;
    e.threshold = 2 + rng.uniform(0, 2);
    e.idle_timeout = 0.05 + rng.uniform01() * 0.15;
    e.probation_idle_timeout = rng.bernoulli(0.5) ? 0.01 : 0.0;
    e.proactive = rng.bernoulli(0.5);
    e.mice_bypass = rng.bernoulli(0.5);
    e.mice_min_packets = 2;
  }
  return c;
}

DIFANE_PROPERTY(ChaosConservation, 50) {
  ChaosCase c = gen_chaos_case(ctx.rng, ctx.case_seed);
  Scenario scenario(c.policy, c.params);
  const auto& stats = scenario.run(c.flows);

  // Every packet is delivered, policy-dropped, or loss-counted exactly once.
  EXPECT_EQ(stats.tracer.in_flight(), 0)
      << "seed 0x" << std::hex << ctx.case_seed << std::dec << " "
      << c.params.faults.to_string() << "\ninjected " << stats.tracer.injected()
      << " delivered " << stats.tracer.delivered() << " dropped "
      << stats.tracer.dropped();
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped());
  // The crash itself always happens and is always counted.
  EXPECT_EQ(stats.authority_crashes, 1u);
  EXPECT_EQ(stats.authority_restarts,
            c.params.faults.crashes[0].restart_at >= 0.0 ? 1u : 0u);
}

DIFANE_PROPERTY(ChaosVerifierCleanAfterQuiescence, 135) {
  ChaosCase c = gen_chaos_case(ctx.rng, ctx.case_seed);
  Scenario scenario(c.policy, c.params);
  const auto& stats = scenario.run(c.flows);
  std::ostringstream os;
  os << "seed 0x" << std::hex << ctx.case_seed << std::dec << " "
     << c.params.faults.to_string();
  const std::string tag = os.str();

  // Quiesced (run() drains the engine): every packet is accounted for and
  // the scripted crash/restart happened exactly as planned.
  EXPECT_EQ(stats.tracer.in_flight(), 0) << tag;
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped())
      << tag;
  EXPECT_EQ(stats.authority_crashes, 1u) << tag;
  EXPECT_EQ(stats.authority_restarts,
            c.params.faults.crashes[0].restart_at >= 0.0 ? 1u : 0u)
      << tag;
  // The installed state the packets actually see must be fully consistent
  // again: with a second authority to fail over to — and a restart path when
  // the plan revives the first — no violation is acceptable.
  const VerifyReport report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << tag << "\n" << report.summary();
}

DIFANE_PROPERTY(ChaosReplayByteIdentical, 20) {
  ChaosCase c = gen_chaos_case(ctx.rng, ctx.case_seed);
  const auto run_once = [&] {
    Scenario scenario(c.policy, c.params);
    auto report = scenario.run(c.flows).snapshot("CHAOS");
    report.git_rev = "fixed";  // the two host-dependent fields
    report.wall_seconds = 0.0;
    return report.to_json_string();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second) << "seed 0x" << std::hex << ctx.case_seed << std::dec
                           << " " << c.params.faults.to_string();
}

// Named regression, one case of the property above at a fixed seed: a
// spurious failover of switch 0, then its real crash at 0.054 s; a message
// it sent before the crash, heard after, made the heartbeat monitor declare
// it recovered while it was down, and the restart handler threw. The
// monitor now recovers no switch that is still down.
TEST(ChaosRegression, StaleMessageRecoversNoFailedSwitch) {
  proptest::run_case(0x37348c1cbeee2343ULL,
                     ChaosVerifierCleanAfterQuiescence_PropertyBody);
}

// Deterministic anchor: one pinned (seed, plan) that provably exercises the
// whole machinery — losses happen, retransmissions recover them, heartbeats
// detect the crash and the restart — and still converges. The probabilistic
// properties above could in principle draw plans where some counter stays
// zero; this case cannot.
TEST(Chaos, FixedSeedLossyFailoverConverges) {
  Rng rng(0xc4a05u);
  ChaosCase c = gen_chaos_case(rng, 0xc4a05u);
  c.params.faults.msg_loss = 0.25;
  c.params.faults.crashes[0].restart_at = c.params.faults.crashes[0].at + 0.06;

  Scenario scenario(c.policy, c.params);
  const auto& stats = scenario.run(c.flows);

  EXPECT_GT(stats.msgs_lost, 0u);
  EXPECT_GT(stats.ctrl_retransmits, 0u);
  EXPECT_GT(stats.ctrl_acks, 0u);
  EXPECT_GT(stats.heartbeats_heard, 0u);
  EXPECT_GE(stats.failovers_detected, 1u);   // the crash was noticed
  EXPECT_GE(stats.recoveries_detected, 1u);  // so was the restart
  EXPECT_EQ(stats.authority_crashes, 1u);
  EXPECT_EQ(stats.authority_restarts, 1u);
  EXPECT_EQ(stats.tracer.in_flight(), 0);

  const VerifyReport report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();

  // The snapshot carries the fault counters (the bench pipeline and the
  // baseline gate read them from here).
  const auto snap = stats.snapshot("CHAOS");
  EXPECT_EQ(snap.metrics.at("msgs_lost"), static_cast<double>(stats.msgs_lost));
  EXPECT_EQ(snap.metrics.at("ctrl_retransmits"),
            static_cast<double>(stats.ctrl_retransmits));
  EXPECT_EQ(snap.metrics.at("failovers_detected"),
            static_cast<double>(stats.failovers_detected));
}

// Link flaps: cut an edge-to-core link mid-trace and restore it. Packets
// must never vanish (conservation) — they are either rerouted or counted as
// unreachable — and the run must still drain.
TEST(Chaos, LinkFlapConservesPackets) {
  Rng rng(0xf1a9u);
  ChaosCase c = gen_chaos_case(rng, 0xf1a9u);
  c.params.faults.crashes.clear();

  // Wire the flap between the first edge switch and the first core switch;
  // in the two-tier topology edges are 0..E-1 and cores E..E+C-1.
  LinkFlap flap;
  flap.a = 0;
  flap.b = static_cast<SwitchId>(c.params.edge_switches);
  flap.down_at = 0.03;
  flap.up_at = 0.08;
  c.params.faults.link_flaps.push_back(flap);

  Scenario scenario(c.policy, c.params);
  const auto& stats = scenario.run(c.flows);
  EXPECT_EQ(stats.link_flaps, 1u);
  EXPECT_EQ(stats.tracer.in_flight(), 0);

  const VerifyReport report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// A crash wipes the authority's heavy-hitter summary (soft state: the switch
// reboots empty). Elephants that were detected before the crash must be
// *re*-detected and re-installed afterwards — by the failover target while
// the authority is down, or by the restarted authority itself. Heavy flows
// here re-miss on every packet (the elephant pin is shorter than the packet
// gap, deliberately), so detection keeps being exercised across the crash,
// the failover, and the restart, all at 15% control-message loss.
TEST(Chaos, ElephantRedetectedAfterCrash) {
  Rng rng(0xe1e94a7u);
  ChaosCase c = gen_chaos_case(rng, 0xe1e94a7u);
  c.params.faults.msg_loss = 0.15;
  c.params.faults.install_fail = 0.0;
  c.params.faults.crashes.clear();
  AuthorityCrash crash;
  crash.authority_index = 0;
  crash.at = 0.05;
  crash.restart_at = 0.12;
  c.params.faults.crashes.push_back(crash);

  auto& e = c.params.elephants;
  e.enabled = true;
  e.tracker_capacity = 64;
  e.threshold = 3;
  // Pin shorter than the 5ms packet gap: every packet of a heavy flow goes
  // back to its authority, so the tracker sees the flow before AND after the
  // crash resets it.
  e.idle_timeout = 0.004;
  e.probation_idle_timeout = 0.0;
  e.proactive = true;
  e.mice_bypass = true;
  e.mice_min_packets = 2;
  c.params.timings.cache_idle_timeout = 0.004;

  // 10 heavy flows (40 packets each, spanning the whole fault window) plus a
  // trail of one-packet mice for the bypass counter.
  const auto headers = proptest::gen_packets(rng, c.policy, 30);
  c.flows.clear();
  for (std::size_t i = 0; i < headers.size(); ++i) {
    FlowSpec f;
    f.id = i;
    f.header = headers[i];
    f.ingress_index = static_cast<std::uint32_t>(i % c.params.edge_switches);
    if (i < 10) {
      f.start = 0.001 * static_cast<double>(i);
      f.packets = 40;
      f.packet_gap = 0.005;
    } else {
      f.start = 0.01 + 0.006 * static_cast<double>(i);
      f.packets = 1;
    }
    c.flows.push_back(std::move(f));
  }

  Scenario scenario(c.policy, c.params);
  const auto& stats = scenario.run(c.flows);

  EXPECT_EQ(stats.authority_crashes, 1u);
  EXPECT_EQ(stats.authority_restarts, 1u);
  // Each heavy flow is promoted once where it first crosses the threshold;
  // flows owned by the crashed authority cross it again on a fresh tracker
  // after the crash. More promotions than heavy flows == re-detection.
  EXPECT_GT(stats.elephant_promotions, 10u);
  EXPECT_GT(stats.elephant_installs, 0u);
  EXPECT_GT(stats.mice_bypassed, 0u);
  // Mice-bypass never strands a packet: bypassed flows are still forwarded
  // through the authority path and land in the conservation totals.
  EXPECT_EQ(stats.tracer.in_flight(), 0);
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped());

  const VerifyReport report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// Mice-bypass under ≥10% loss, all-mice traffic: every install decision is a
// bypass, no cache entry is ever spent, and yet every packet is delivered or
// loss-accounted — the bypass skips the TCAM write, never the packet.
TEST(Chaos, MiceBypassConservesAllMice) {
  Rng rng(0xb19a55u);
  ChaosCase c = gen_chaos_case(rng, 0xb19a55u);
  c.params.faults.msg_loss = 0.2;
  c.params.faults.crashes.clear();

  auto& e = c.params.elephants;
  e.enabled = true;
  e.tracker_capacity = 64;
  e.threshold = 8;
  e.idle_timeout = 0.05;
  e.probation_idle_timeout = 0.0;
  e.proactive = true;
  e.mice_bypass = true;
  e.mice_min_packets = 2;

  const auto headers = proptest::gen_packets(rng, c.policy, 40);
  c.flows.clear();
  for (std::size_t i = 0; i < headers.size(); ++i) {
    FlowSpec f;
    f.id = i;
    f.header = headers[i];
    f.start = 0.002 * static_cast<double>(i);
    f.packets = 1;  // one-packet flows: all mice, by construction
    f.ingress_index = static_cast<std::uint32_t>(i % c.params.edge_switches);
    c.flows.push_back(std::move(f));
  }

  Scenario scenario(c.policy, c.params);
  const auto& stats = scenario.run(c.flows);

  EXPECT_GT(stats.mice_bypassed, 0u);
  EXPECT_EQ(stats.elephant_promotions, 0u);
  EXPECT_EQ(stats.tracer.in_flight(), 0);
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped());

  const VerifyReport report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// Telemetry under chaos: run the measurement plane through the same random
// fault plans (lossy/duplicating/jittering wire, failed installs, an
// authority crash + failover — whose cached-redirect purge flushes pending
// counter state through the removal listener). Sampled counts must be
// conserved no matter what the plan does: everything a switch counted either
// reached the collector (the reliable export channel retransmits through the
// loss) or was explicitly drop-counted (crash-lost state, flush-off
// evictions) — never silently lost.
DIFANE_PROPERTY(ChaosTelemetryConservation, 40) {
  ChaosCase c = gen_chaos_case(ctx.rng, ctx.case_seed);
  c.params.measurement.enabled = true;
  c.params.measurement.sample_prob = ctx.rng.bernoulli(0.5) ? 1.0 : 0.5;
  c.params.measurement.export_interval = 0.02;
  c.params.measurement.export_horizon = 0.3;
  c.params.measurement.flush_on_evict = ctx.rng.bernoulli(0.7);
  c.params.measurement.seed = ctx.case_seed;
  Scenario scenario(c.policy, c.params);
  const auto& stats = scenario.run(c.flows);

  std::uint64_t collected = 0;
  for (const auto& [header, totals] : scenario.collector().flows()) {
    (void)header;
    collected += totals.sampled_packets;
  }
  EXPECT_EQ(collected + stats.telemetry_dropped_packets,
            stats.telemetry_sampled_packets)
      << "seed 0x" << std::hex << ctx.case_seed << std::dec << " "
      << c.params.faults.to_string() << "\nsampled "
      << stats.telemetry_sampled_packets << " collected " << collected
      << " dropped " << stats.telemetry_dropped_packets;
  // The crash happened; its lost counter state (if any) is visible as drops,
  // and the piggyback counters only ever see batches from live epochs.
  EXPECT_EQ(stats.authority_crashes, 1u);
}

// Heartbeats off: a crash is noticed by the fixed failover_detect delay
// instead. The controller must still re-point every partition away from the
// dead authority and converge, over the same lossy reliable wire.
TEST(Chaos, FixedDelayCrashFailsOverWithoutHeartbeats) {
  Rng rng(0xf17eddu);
  ChaosCase c = gen_chaos_case(rng, 0xf17eddu);
  c.params.timings.heartbeat_interval = 0.0;
  c.params.timings.failover_detect = 0.02;
  c.params.faults.crashes[0].restart_at = -1.0;
  Scenario scenario(c.policy, c.params);
  const auto& stats = scenario.run(c.flows);

  EXPECT_EQ(stats.authority_crashes, 1u);
  EXPECT_EQ(stats.failovers_detected, 0u);  // no monitor was built
  EXPECT_EQ(stats.tracer.in_flight(), 0);
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped());
  for (const auto& partition : scenario.plan()->partitions()) {
    EXPECT_NE(partition.primary, 0u) << "partition still homed on the crashed authority";
  }
  const VerifyReport report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

}  // namespace
}  // namespace difane
