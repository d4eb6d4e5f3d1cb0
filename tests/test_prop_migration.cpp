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
//  * Accounting: every migration that starts ends, as completed or aborted;
//    double-occupancy returns to zero (peak >= per-move cost while moving).
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
// fault window. Half the cases also run the periodic rebalance tick.
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

  p.migration.enabled = true;
  p.migration.wave_size = 1 + static_cast<std::uint32_t>(rng.uniform(0, 2));
  p.migration.drain_timeout = 0.002 + rng.uniform01() * 0.01;
  if (rng.bernoulli(0.5)) {
    p.migration.check_interval = 0.03;
    p.migration.horizon = 0.15;
    p.migration.imbalance_threshold = 1.0 + rng.uniform01();
  }

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
     << c.params.authority_count << " wave " << c.params.migration.wave_size
     << " drain " << c.params.migration.drain_timeout << " rehomes "
     << c.rehomes.size() << " " << c.params.faults.to_string();
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
  // other, and the double-occupancy transient closed back to zero (peak is
  // recorded; the final value lives only in the (private) live counter, whose
  // return to zero is implied by started == completed + aborted).
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

// Deterministic anchor 1: a fault-free move provably completes — rules land
// at the destination, the plan re-homes, redirects flip, the drain passes,
// the source-side copy retires — and the verifier stays clean.
TEST(MigrationChaos, FixedSeedCleanMoveCompletes) {
  Rng rng(0x319a7e1u);
  MigrationCase c = gen_migration_case(rng, 0x319a7e1u);
  c.params.faults = FaultPlan{};           // clean wire, no crash
  c.params.timings.heartbeat_interval = 0.0;
  c.params.migration.check_interval = 0.0;  // explicit re-homes only
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
  c.params.migration.check_interval = 0.0;
  c.params.migration.drain_timeout = 0.01;
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
  c.params.migration.check_interval = 0.0;
  c.params.migration.drain_timeout = 0.01;
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

}  // namespace
}  // namespace difane
