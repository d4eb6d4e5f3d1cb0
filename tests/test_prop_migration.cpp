// Live-migration chaos suite (`ctest -L chaos`): random (seed, MigrationPlan)
// pairs re-home partitions mid-trace — make-before-break over the reliable
// control channel — while the fault plan loses/duplicates/jitters control
// messages and crashes an authority (sometimes the migration's own
// destination, sometimes its source, sometimes with a restart).
//
// Four guarantees, each a property:
//  * Conservation: every injected packet is delivered or drop-counted
//    exactly once — a migration may re-route a packet (old home, new home,
//    re-encap chase) but never lose one.
//  * Accounting: every migration that starts ends, as completed or aborted,
//    and one that stocks a destination records its extra copies in the
//    double-occupancy peak.
//  * Convergence: after quiescence the installed-state verifier finds zero
//    black holes, dangling redirects, or wrong actions — mid-flight
//    moves either finished or rolled back to a consistent state.
//  * Replay: the same (seed, plan) reproduces a byte-identical metrics
//    report, so any failure replays from its printed seed
//    (DIFANE_PROPTEST_REPLAY=0x<seed>).
#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hpp"
#include "proptest/gen.hpp"
#include "proptest/property.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

namespace difane {
namespace {

struct MigrationCase {
  ScenarioParams params;
  std::vector<FlowSpec> flows;
  RuleTable policy;
  // Re-home requests issued after construction (partition index is taken
  // modulo the built plan's partition count).
  struct Rehome {
    std::size_t index_hint = 0;
    AuthorityIndex dest = 0;
    double at = 0.0;
  };
  std::vector<Rehome> rehomes;
};

// A random small DIFANE scenario with 2..3 authorities, reliable control
// channels, heartbeat failure detection, >= 10% message loss, an authority
// crash mid-trace (uniform over the authorities, so it hits migration
// destinations and sources alike), and 1..3 re-home requests overlapping the
// fault window; a request that arrives while a move runs waits for it.
MigrationCase gen_migration_case(Rng& rng, std::uint64_t case_seed) {
  MigrationCase c;

  proptest::TableGenParams tg;
  tg.max_rules = 24;
  tg.add_default = true;
  c.policy = proptest::gen_table(rng, tg);
  const auto packets = proptest::gen_packets(rng, c.policy, 24);

  auto& p = c.params;
  p.mode = Mode::kDifane;
  p.topology = TopologyKind::kTwoTier;
  p.edge_switches = 2 + rng.uniform(0, 1);
  p.authority_count = 2 + static_cast<std::uint32_t>(rng.uniform(0, 1));
  p.core_switches = p.authority_count;  // authorities live on the core tier
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

  // Crash a random authority inside the migration window; restart it later
  // in two thirds of the cases.
  AuthorityCrash crash;
  crash.authority_index = static_cast<std::uint32_t>(
      rng.uniform(0, p.authority_count - 1));
  crash.at = 0.02 + rng.uniform01() * 0.05;
  crash.restart_at =
      rng.bernoulli(0.67) ? crash.at + 0.04 + rng.uniform01() * 0.04 : -1.0;
  p.faults.crashes.push_back(crash);

  p.timings.heartbeat_interval = 0.015 + rng.uniform01() * 0.015;
  p.timings.heartbeat_miss = 2 + static_cast<std::uint32_t>(rng.uniform(0, 1));
  p.timings.heartbeat_horizon = 1.0;

  p.migration = true;
  // Three draws whose values nothing reads, kept so that the case seeds
  // recorded in CHANGES.md and in the named regressions below replay the
  // inputs they were recorded with.
  static_cast<void>(rng.uniform(0, 2));
  static_cast<void>(rng.uniform01());
  if (rng.bernoulli(0.5)) static_cast<void>(rng.uniform01());

  const std::uint64_t moves = 1 + rng.uniform(0, 2);
  for (std::uint64_t i = 0; i < moves; ++i) {
    MigrationCase::Rehome r;
    r.index_hint = static_cast<std::size_t>(rng.uniform(0, 7));
    r.dest = static_cast<AuthorityIndex>(rng.uniform(0, p.authority_count - 1));
    r.at = 0.015 + 0.02 * static_cast<double>(i) + rng.uniform01() * 0.015;
    c.rehomes.push_back(r);
  }
  return c;
}

// Build the scenario and issue the case's re-home requests (index hints
// resolved modulo the plan's partition count — the plan shape is itself
// seed-deterministic, so replays issue identical requests).
std::unique_ptr<Scenario> make_scenario(const MigrationCase& c) {
  auto scenario = std::make_unique<Scenario>(c.policy, c.params);
  const std::size_t n = scenario->plan()->partitions().size();
  for (const auto& r : c.rehomes) {
    scenario->request_rehome(r.index_hint % n, r.dest, r.at);
  }
  return scenario;
}

std::string case_tag(std::uint64_t case_seed, const MigrationCase& c) {
  std::ostringstream os;
  os << "seed 0x" << std::hex << case_seed << std::dec << " authorities "
     << c.params.authority_count << " rehomes " << c.rehomes.size() << " "
     << c.params.faults.to_string();
  return os.str();
}

DIFANE_PROPERTY(MigrationChaosConservation, 40) {
  MigrationCase c = gen_migration_case(ctx.rng, ctx.case_seed);
  auto scenario = make_scenario(c);
  const auto& stats = scenario->run(c.flows);

  // Every packet is delivered, policy-dropped, or loss-counted exactly once;
  // no packet is lost *to the migration* (re-encap chases bound by TTL are
  // still conserved as counted drops).
  EXPECT_EQ(stats.tracer.in_flight(), 0)
      << case_tag(ctx.case_seed, c) << "\ninjected " << stats.tracer.injected()
      << " delivered " << stats.tracer.delivered() << " dropped "
      << stats.tracer.dropped();
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped());
  // Migration accounting: everything that started ended, one way or the
  // other, and a move that stocked a destination recorded its extra copies
  // in the double-occupancy peak.
  EXPECT_EQ(stats.migrations_started,
            stats.migrations_completed + stats.migrations_aborted)
      << case_tag(ctx.case_seed, c);
  if (stats.migration_rules_moved > 0) {
    EXPECT_GT(stats.migration_double_peak, 0u) << case_tag(ctx.case_seed, c);
  }
  EXPECT_EQ(stats.authority_crashes, 1u);
}

DIFANE_PROPERTY(MigrationChaosVerifierCleanAfterQuiescence, 40) {
  MigrationCase c = gen_migration_case(ctx.rng, ctx.case_seed);
  auto scenario = make_scenario(c);
  const auto& stats = scenario->run(c.flows);
  const std::string tag = case_tag(ctx.case_seed, c);

  // Quiesced (run() drains the engine): every packet is accounted for, every
  // move that started finished or rolled back, and the scripted crash and
  // restart happened exactly as planned.
  EXPECT_EQ(stats.tracer.in_flight(), 0) << tag;
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped())
      << tag;
  EXPECT_EQ(stats.migrations_started,
            stats.migrations_completed + stats.migrations_aborted)
      << tag;
  EXPECT_EQ(stats.authority_crashes, 1u) << tag;
  EXPECT_EQ(stats.authority_restarts,
            c.params.faults.crashes[0].restart_at >= 0.0 ? 1u : 0u)
      << tag;
  // The installed state packets would actually see must be fully consistent
  // — redirects point at live, stocked authorities; no partition is
  // half-moved.
  const VerifyReport report = scenario->verify_installed();
  EXPECT_TRUE(report.clean()) << tag << "\n" << report.summary();
}

DIFANE_PROPERTY(MigrationChaosReplayByteIdentical, 15) {
  MigrationCase c = gen_migration_case(ctx.rng, ctx.case_seed);
  const auto run_once = [&] {
    auto scenario = make_scenario(c);
    auto report = scenario->run(c.flows).snapshot("MIGRATION-CHAOS");
    report.git_rev = "fixed";  // the two host-dependent fields
    report.wall_seconds = 0.0;
    return report.to_json_string();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second) << case_tag(ctx.case_seed, c);
}

// Named regressions, each one case of the property above at a fixed seed.
//
// Clean before the fixes above and must stay so: partition 3 moves to
// authority 1 and then, after authority 1 has crashed but before its
// failover, on to authority 2. The second move's end retires switch 0, the
// backup the first move left, and rewrites the redirect while the old home
// is down.
TEST(MigrationRegression, SecondMoveWhileOldHomeIsDownStaysClean) {
  proptest::run_case(0x66e279e7b6e54accULL,
                     MigrationChaosVerifierCleanAfterQuiescence_PropertyBody);
}

// A message heard from a crashed authority after its spurious failover made
// the heartbeat monitor declare it recovered while it was down, and the
// restart handler threw; the monitor now recovers no switch that is down.
TEST(MigrationRegression, StaleMessageRecoversNoFailedSwitch) {
  proptest::run_case(0x3681360113a5017ULL,
                     MigrationChaosVerifierCleanAfterQuiescence_PropertyBody);
}

// Deterministic anchor 1: a fault-free move provably completes — rules land
// at the destination, the plan re-homes, redirects flip, the drain passes,
// the source-side copy retires — and the verifier stays clean.
TEST(MigrationChaos, FixedSeedCleanMoveCompletes) {
  Rng rng(0x319a7e1u);
  MigrationCase c = gen_migration_case(rng, 0x319a7e1u);
  c.params.faults = FaultPlan{};           // clean wire, no crash
  c.params.timings.heartbeat_interval = 0.0;
  // Three authorities: with two, every destination is already the stocked
  // backup (serving sets coincide), so nothing would actually move.
  c.params.authority_count = 3;
  c.params.core_switches = 3;
  c.rehomes.clear();

  // Pre-build once to learn the (deterministic) plan shape, then aim one
  // move at the authority that is neither partition 0's primary nor its
  // ring-successor backup — forcing a real install at the destination.
  const AuthorityIndex p0_primary =
      Scenario(c.policy, c.params).plan()->partitions()[0].primary;
  MigrationCase::Rehome r;
  r.index_hint = 0;
  r.dest = (p0_primary + 2) % c.params.authority_count;
  r.at = 0.02;
  c.rehomes.push_back(r);

  auto scenario = make_scenario(c);
  const auto& stats = scenario->run(c.flows);

  EXPECT_EQ(stats.migrations_started, 1u);
  EXPECT_EQ(stats.migrations_completed, 1u);
  EXPECT_EQ(stats.migrations_aborted, 0u);
  EXPECT_GT(stats.migration_rules_moved, 0u);
  EXPECT_GT(stats.migration_double_peak, 0u);
  EXPECT_EQ(scenario->plan()->partitions()[0].primary, r.dest);
  EXPECT_EQ(scenario->plan()->partitions()[0].backup, p0_primary);
  EXPECT_EQ(stats.tracer.in_flight(), 0);
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped());

  const VerifyReport report = scenario->verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();

  // The snapshot carries the migration counters (the bench pipeline and the
  // baseline gate read them from here).
  const auto snap = stats.snapshot("MIGRATION");
  EXPECT_EQ(snap.metrics.at("migrations_completed"),
            static_cast<double>(stats.migrations_completed));
  EXPECT_EQ(snap.metrics.at("migration_rules_moved"),
            static_cast<double>(stats.migration_rules_moved));
}

// Deterministic anchor 2 — the acceptance case: crash the *destination*
// authority mid-migration (between the re-home request and any plausible
// completion), under 20% message loss, with no restart. The move must either
// complete from the backup or roll back — never black-hole: conservation
// holds, accounting closes, and the verifier is clean after quiescence.
TEST(MigrationChaos, DestinationCrashMidMigrationNeverBlackHoles) {
  Rng rng(0xdeadc4a5u);
  MigrationCase c = gen_migration_case(rng, 0xdeadc4a5u);
  c.params.authority_count = 2;
  c.params.faults.msg_loss = 0.2;  // forces retransmits inside the window
  c.rehomes.clear();

  // Learn partition 0's primary from the deterministic plan, then aim the
  // move at the other authority and crash exactly that destination 3ms
  // after the move starts — inside the install/flip/drain window.
  const AuthorityIndex p0_primary =
      Scenario(c.policy, c.params).plan()->partitions()[0].primary;
  const AuthorityIndex dest = (p0_primary + 1) % 2;
  MigrationCase::Rehome r;
  r.index_hint = 0;
  r.dest = dest;
  r.at = 0.03;
  c.rehomes.push_back(r);
  c.params.faults.crashes.clear();
  AuthorityCrash crash;
  crash.authority_index = dest;
  crash.at = 0.033;
  crash.restart_at = -1.0;  // stays down: rollback must use the old home
  c.params.faults.crashes.push_back(crash);

  auto scenario = make_scenario(c);
  const auto& stats = scenario->run(c.flows);

  EXPECT_EQ(stats.authority_crashes, 1u);
  EXPECT_EQ(stats.migrations_started, 1u);
  // Either outcome is legal — completed before the crash landed, or aborted
  // and rolled back onto the still-stocked old home — but it must be exactly
  // one of them, and nothing may leak.
  EXPECT_EQ(stats.migrations_completed + stats.migrations_aborted, 1u);
  EXPECT_EQ(stats.tracer.in_flight(), 0);
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped());
  // The partition must be *servable* either way: the plan's primary-or-backup
  // pair still contains the live old home (lossy heartbeats may legally
  // swap primary and backup via spurious failovers, so the exact roles are
  // not pinned — the verifier below is the authoritative liveness check).
  const auto& p0 = scenario->plan()->partitions()[0];
  EXPECT_TRUE(p0.primary != dest || p0.backup != dest);

  const VerifyReport report = scenario->verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// Deterministic anchor 3: crashing the *source* mid-move must not stop the
// destination from taking over — the make phase stocked it before any break.
TEST(MigrationChaos, SourceCrashMidMigrationStillConserves) {
  Rng rng(0x50a1ceu);
  MigrationCase c = gen_migration_case(rng, 0x50a1ceu);
  c.params.authority_count = 2;
  c.rehomes.clear();

  const AuthorityIndex p0_primary =
      Scenario(c.policy, c.params).plan()->partitions()[0].primary;
  MigrationCase::Rehome r;
  r.index_hint = 0;
  r.dest = (p0_primary + 1) % 2;
  r.at = 0.03;
  c.rehomes.push_back(r);
  c.params.faults.crashes.clear();
  AuthorityCrash crash;
  crash.authority_index = p0_primary;  // the migration's source
  crash.at = 0.035;
  crash.restart_at = 0.09;
  c.params.faults.crashes.push_back(crash);

  auto scenario = make_scenario(c);
  const auto& stats = scenario->run(c.flows);

  EXPECT_EQ(stats.authority_crashes, 1u);
  EXPECT_EQ(stats.migrations_started, 1u);
  EXPECT_EQ(stats.migrations_completed + stats.migrations_aborted, 1u);
  EXPECT_EQ(stats.tracer.in_flight(), 0);
  EXPECT_EQ(stats.tracer.injected(),
            stats.tracer.delivered() + stats.tracer.dropped());

  const VerifyReport report = scenario->verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// Deterministic anchor 4, fault-free: with two replicas per partition the
// ingresses spread their redirects over both, so each replica leaves
// cover-set shadows that redirect to itself. Moving partition 0 to the third
// authority retires its second replica, whose shadows must not outlive the
// binding: the end of the move purges the cached redirects to each member it
// retires, as a failover does for a failed switch.
TEST(MigrationChaos, RetiredReplicaLeavesNoCachedRedirects) {
  RuleGenParams rg;
  rg.num_rules = 200;
  rg.seed = 7;
  const RuleTable policy = generate_policy(rg);
  TrafficParams tp;
  tp.seed = 11;
  tp.flow_pool = 300;
  tp.arrival_rate = 4000.0;
  tp.duration = 0.1;
  tp.mean_packets = 2.0;
  tp.packet_gap = 0.005;
  tp.ingress_count = 4;
  const auto flows = TrafficGenerator(policy, tp).generate();

  ScenarioParams p;
  p.edge_switches = 4;
  p.core_switches = 3;
  p.authority_count = 3;
  p.authority_replicas = 2;
  p.partitioner.capacity = 60;
  p.cache_strategy = CacheStrategy::kCoverSet;
  p.reliable_ctrl = true;
  p.migration = true;
  Scenario scenario(policy, p);
  const Partition& p0 = scenario.plan()->partitions()[0];
  const SwitchId retired =
      scenario.difane()->authority_switch((p0.primary + 1) % 3);
  // After the arrivals, so the caches hold both replicas' shadows.
  scenario.request_rehome(0, (p0.primary + 2) % 3, 0.2);
  const auto& stats = scenario.run(flows);

  EXPECT_EQ(stats.migrations_completed, 1u);
  EXPECT_FALSE(scenario.difane()->node_at(retired)->serves(p0.id));
  const VerifyReport report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// Two authorities, each partition on both as replicas, no loss, and
// failover 50us after a crash: the move of partition 0 to its second
// replica needs no install, so it flips at once, spreading the flips over
// both replicas. `crashed` fails 10us after the move starts and is detected
// 50us after that, while every flip is still on the wire: the failover
// points partition 0 away from it everywhere, then the flips that name it
// land on top. The end of the move, whichever way it ends, rewrites the
// partition's redirect from the plan.
struct LateFlipCase {
  RuleTable policy;
  ScenarioParams params;
  AuthorityIndex primary = 0;  // partition 0's primary
};

LateFlipCase late_flip_case() {
  RuleGenParams rg;
  rg.num_rules = 100;
  rg.seed = 3;
  LateFlipCase c;
  c.policy = generate_policy(rg);
  ScenarioParams& p = c.params;
  p.edge_switches = 4;
  p.core_switches = 2;
  p.authority_count = 2;
  p.authority_replicas = 2;
  p.timings.failover_detect = 5e-5;
  p.reliable_ctrl = true;
  p.migration = true;
  c.primary = Scenario(c.policy, p).plan()->partitions()[0].primary;
  return c;
}

const ScenarioStats& run_late_flip(Scenario& scenario, const LateFlipCase& c) {
  scenario.request_rehome(0, (c.primary + 1) % 2, 0.01);
  return scenario.run({});
}

// The old home crashes: the move's destination is live, so it completes.
TEST(MigrationChaos, LateFlipDoesNotOutliveACompletedMove) {
  LateFlipCase c = late_flip_case();
  c.params.faults.crashes.push_back({c.primary, 0.01 + 1e-5, -1.0});
  Scenario scenario(c.policy, c.params);
  const auto& stats = run_late_flip(scenario, c);

  EXPECT_EQ(stats.migrations_completed, 1u);
  const VerifyReport report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// The destination crashes after the re-home committed: the move aborts
// post-flip and rolls back onto the old home.
TEST(MigrationChaos, LateFlipDoesNotOutliveAnAbortedMove) {
  LateFlipCase c = late_flip_case();
  const AuthorityIndex dest = (c.primary + 1) % 2;
  c.params.faults.crashes.push_back({dest, 0.01 + 1e-5, -1.0});
  Scenario scenario(c.policy, c.params);
  const auto& stats = run_late_flip(scenario, c);

  EXPECT_EQ(stats.migrations_aborted, 1u);
  EXPECT_EQ(scenario.plan()->partitions()[0].primary, c.primary);
  const VerifyReport report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// Three authorities, failover 50us after a crash. Partition 0 moves to the
// authority that is neither its primary nor its backup, and the old home
// crashes 10us later. The failover makes the backup the primary while the
// destination is being stocked, so the flip commits the destination as
// primary with that backup, not the crashed old home, as its backup. The
// end of the move retires by the serving set of the plan as it ends: the
// crashed old home goes, the backup stays bound.
TEST(MigrationChaos, FailoverDuringMoveKeepsTheNewBackupBound) {
  RuleGenParams rg;
  rg.num_rules = 200;
  rg.seed = 7;
  const RuleTable policy = generate_policy(rg);
  ScenarioParams p;
  p.edge_switches = 4;
  p.core_switches = 3;
  p.authority_count = 3;
  p.partitioner.capacity = 60;
  p.timings.failover_detect = 5e-5;
  p.reliable_ctrl = true;
  p.migration = true;
  const Partition before = Scenario(policy, p).plan()->partitions()[0];
  const AuthorityIndex dest = (before.primary + 2) % 3;
  ASSERT_NE(dest, before.backup);
  p.faults.crashes.push_back({before.primary, 0.01 + 1e-5, -1.0});
  Scenario scenario(policy, p);
  scenario.request_rehome(0, dest, 0.01);
  const auto& stats = scenario.run({});

  EXPECT_EQ(stats.migrations_completed, 1u);
  const Partition& after = scenario.plan()->partitions()[0];
  EXPECT_EQ(after.primary, dest);
  EXPECT_EQ(after.backup, before.backup);
  EXPECT_TRUE(scenario.difane()
                  ->node_at(scenario.difane()->authority_switch(before.backup))
                  ->serves(after.id));
  const VerifyReport report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

// One move at a time: two requests at the same instant run one after the
// other, so make-before-break never holds two partitions' extra copies at
// once. The double-occupancy peak is the larger single move, not the sum.
TEST(MigrationChaos, QueuedRehomeWaitsForTheMoveInFlight) {
  RuleGenParams rg;
  rg.num_rules = 200;
  rg.seed = 7;
  const RuleTable policy = generate_policy(rg);
  ScenarioParams p;
  p.edge_switches = 4;
  p.core_switches = 3;
  p.authority_count = 3;
  p.partitioner.capacity = 60;
  p.reliable_ctrl = true;
  p.migration = true;
  Scenario scenario(policy, p);
  const auto& parts = scenario.plan()->partitions();
  ASSERT_GE(parts.size(), 2u);
  // Each to the authority that holds neither its primary nor its backup
  // copy, so both moves install their rules there.
  std::uint64_t largest = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    scenario.request_rehome(i, (parts[i].primary + 2) % 3, 0.01);
    largest = std::max<std::uint64_t>(largest, parts[i].rules.rules().size());
  }
  const auto& stats = scenario.run({});

  EXPECT_EQ(stats.migrations_started, 2u);
  EXPECT_EQ(stats.migrations_completed, 2u);
  EXPECT_EQ(stats.migration_double_peak, largest);
  const VerifyReport report = scenario.verify_installed();
  EXPECT_TRUE(report.clean()) << report.summary();
}

}  // namespace
}  // namespace difane
