// The redesigned scenario API: ScenarioParams::validate() (fail-fast
// mis-wire rejection with field-naming ConfigError), ScenarioStats::snapshot
// (the consolidated MetricsReport surface), CacheStrategy::kNone (explicit
// pure redirection), and the end-to-end determinism guarantee: the same seed
// produces a byte-identical report modulo git_rev/wall metrics.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "util/contract.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

namespace difane {
namespace {

RuleTable small_policy(std::uint64_t seed = 5) {
  RuleGenParams params;
  params.num_rules = 200;
  params.seed = seed;
  return generate_policy(params);
}

std::vector<FlowSpec> small_traffic(const RuleTable& policy, std::uint64_t seed) {
  TrafficParams tp;
  tp.seed = seed;
  tp.flow_pool = 500;
  tp.zipf_s = 0.8;
  tp.arrival_rate = 3000.0;
  tp.duration = 0.3;
  tp.mean_packets = 2.0;
  TrafficGenerator gen(policy, tp);
  return gen.generate();
}

ScenarioParams good_params() {
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 4;
  params.core_switches = 2;
  params.authority_count = 2;
  params.edge_cache_capacity = 400;
  params.partitioner.capacity = 200;
  return params;
}

// --------------------------------------------------------------------------
// validate()

TEST(Validate, AcceptsDefaultAndGoodParams) {
  EXPECT_NO_THROW(ScenarioParams{}.validate());
  EXPECT_NO_THROW(good_params().validate());
}

// Each rejected field: the ConfigError must name the offending field so a
// mis-wired config is diagnosable from the message alone.
TEST(Validate, RejectsEachMisWireNamingTheField) {
  const auto field_of = [](ScenarioParams params) -> std::string {
    try {
      params.validate();
    } catch (const ConfigError& e) {
      return e.field();
    }
    return "";
  };

  ScenarioParams params = good_params();
  params.edge_switches = 0;
  EXPECT_EQ(field_of(params), "edge_switches");

  params = good_params();
  params.core_switches = 0;
  EXPECT_EQ(field_of(params), "core_switches");

  params = good_params();
  params.topology = TopologyKind::kLine;
  params.edge_switches = 4;
  params.core_switches = 8;  // more authority nodes than chain positions
  EXPECT_EQ(field_of(params), "core_switches");

  params = good_params();
  params.authority_count = 0;
  EXPECT_EQ(field_of(params), "authority_count");

  params = good_params();
  params.authority_count = 3;  // > core_switches
  EXPECT_EQ(field_of(params), "authority_count");

  params = good_params();
  params.authority_replicas = 0;
  EXPECT_EQ(field_of(params), "authority_replicas");

  // Over-replication is clamped by the controller, not rejected.
  params = good_params();
  params.authority_replicas = 5;  // > authority_count
  EXPECT_NO_THROW(params.validate());

  params = good_params();
  params.partitioner.capacity = 0;
  EXPECT_EQ(field_of(params), "partitioner.capacity");

  params = good_params();
  params.max_splice_cost = 0;
  EXPECT_EQ(field_of(params), "max_splice_cost");

  params = good_params();
  params.edge_cache_capacity = 0;  // installing strategy + no cache
  EXPECT_EQ(field_of(params), "edge_cache_capacity");

  params = good_params();
  params.timings.authority_service = 0.0;
  EXPECT_EQ(field_of(params), "timings.authority_service");
}

// Fault-injection / reliability knobs added with the chaos subsystem: each
// mis-wire must likewise name its field.
TEST(Validate, RejectsFaultAndReliabilityMisWires) {
  const auto field_of = [](ScenarioParams params) -> std::string {
    try {
      params.validate();
    } catch (const ConfigError& e) {
      return e.field();
    }
    return "";
  };

  ScenarioParams params = good_params();
  params.timings.failover_detect = -0.1;
  EXPECT_EQ(field_of(params), "timings.failover_detect");

  params = good_params();
  params.timings.heartbeat_interval = -0.05;
  EXPECT_EQ(field_of(params), "timings.heartbeat_interval");

  params = good_params();
  params.timings.heartbeat_interval = 0.05;
  params.timings.heartbeat_miss = 0;
  params.timings.heartbeat_horizon = 1.0;
  EXPECT_EQ(field_of(params), "timings.heartbeat_miss");

  params = good_params();
  params.timings.heartbeat_interval = 0.05;
  params.timings.heartbeat_horizon = 0.0;  // tick chain would never end
  EXPECT_EQ(field_of(params), "timings.heartbeat_horizon");

  // Heartbeat off: miss/horizon are dormant and not validated.
  params = good_params();
  params.timings.heartbeat_interval = 0.0;
  params.timings.heartbeat_miss = 0;
  EXPECT_NO_THROW(params.validate());

  params = good_params();
  params.faults.msg_loss = 1.5;
  EXPECT_EQ(field_of(params), "faults.msg_loss");

  params = good_params();
  params.reliable_ctrl = true;
  params.faults.msg_loss = 1.0;  // would retransmit forever
  EXPECT_EQ(field_of(params), "faults.msg_loss");

  params = good_params();
  params.faults.msg_jitter_prob = 0.5;
  params.faults.msg_jitter_max = -1e-3;
  EXPECT_EQ(field_of(params), "faults.msg_jitter_max");

  params = good_params();
  params.faults.link_flaps.push_back(LinkFlap{1, 2, /*down_at=*/0.5,
                                              /*up_at=*/0.2});
  EXPECT_EQ(field_of(params), "faults.link_flaps");

  params = good_params();
  params.faults.crashes.push_back(
      AuthorityCrash{/*authority_index=*/7, /*at=*/0.1, /*restart_at=*/-1.0});
  EXPECT_EQ(field_of(params), "faults.crashes");  // only 2 authorities exist

  params = good_params();
  params.faults.crashes.push_back(
      AuthorityCrash{/*authority_index=*/0, /*at=*/0.5, /*restart_at=*/0.5});
  EXPECT_EQ(field_of(params), "faults.crashes");  // restart must follow crash

  // A well-formed chaos config passes.
  params = good_params();
  params.reliable_ctrl = true;
  params.faults.msg_loss = 0.2;
  params.faults.msg_dup = 0.05;
  params.faults.msg_jitter_prob = 0.3;
  params.faults.msg_jitter_max = 2e-3;
  params.timings.heartbeat_interval = 0.05;
  params.timings.heartbeat_horizon = 2.0;
  params.faults.crashes.push_back(
      AuthorityCrash{/*authority_index=*/0, /*at=*/0.5, /*restart_at=*/1.0});
  EXPECT_NO_THROW(params.validate());
}

// Elephant-policy knobs (heavy-hitter tracking + mice bypass): nonsensical
// values must be rejected with the offending field named, and every knob is
// dormant while elephants.enabled is false.
TEST(Validate, RejectsElephantMisWiresNamingTheField) {
  const auto field_of = [](ScenarioParams params) -> std::string {
    try {
      params.validate();
    } catch (const ConfigError& e) {
      return e.field();
    }
    return "";
  };
  const auto good_elephants = [] {
    ScenarioParams params = good_params();
    params.elephants.enabled = true;
    params.elephants.tracker_capacity = 256;
    params.elephants.threshold = 8;
    params.elephants.idle_timeout = 0.5;
    params.elephants.probation_idle_timeout = 0.01;
    params.elephants.mice_bypass = true;
    params.elephants.mice_min_packets = 2;
    return params;
  };

  EXPECT_NO_THROW(good_elephants().validate());

  // The policy needs a DIFANE authority miss stream to feed the tracker.
  ScenarioParams params = good_elephants();
  params.mode = Mode::kNox;
  EXPECT_EQ(field_of(params), "elephants.enabled");

  // ...and an installing cache strategy to modulate.
  params = good_elephants();
  params.cache_strategy = CacheStrategy::kNone;
  params.edge_cache_capacity = 0;
  EXPECT_EQ(field_of(params), "elephants.enabled");

  params = good_elephants();
  params.elephants.tracker_capacity = 0;
  EXPECT_EQ(field_of(params), "elephants.tracker_capacity");

  params = good_elephants();
  params.elephants.threshold = 0;
  EXPECT_EQ(field_of(params), "elephants.threshold");

  params = good_elephants();
  params.elephants.idle_timeout = 0.0;
  EXPECT_EQ(field_of(params), "elephants.idle_timeout");

  params = good_elephants();
  params.elephants.idle_timeout = -1.0;
  EXPECT_EQ(field_of(params), "elephants.idle_timeout");

  params = good_elephants();
  params.elephants.mice_min_packets = 1;  // would bypass nothing
  EXPECT_EQ(field_of(params), "elephants.mice_min_packets");

  // mice_min_packets is dormant while the bypass itself is off.
  params = good_elephants();
  params.elephants.mice_bypass = false;
  params.elephants.mice_min_packets = 0;
  EXPECT_NO_THROW(params.validate());

  params = good_elephants();
  params.elephants.probation_idle_timeout = -0.01;
  EXPECT_EQ(field_of(params), "elephants.probation_idle_timeout");

  // 0 is valid: probation inherits the base cache idle timeout.
  params = good_elephants();
  params.elephants.probation_idle_timeout = 0.0;
  EXPECT_NO_THROW(params.validate());

  // Every knob is dormant while the policy is disabled.
  params = good_elephants();
  params.elephants.enabled = false;
  params.elephants.tracker_capacity = 0;
  params.elephants.threshold = 0;
  params.elephants.idle_timeout = -1.0;
  params.elephants.probation_idle_timeout = -1.0;
  EXPECT_NO_THROW(params.validate());
}

// Measurement knobs (the telemetry data plane's single validated config
// block): nonsensical values must be rejected with the offending field
// named, and every knob is dormant while measurement.enabled is false.
TEST(Validate, RejectsMeasurementMisWiresNamingTheField) {
  const auto field_of = [](ScenarioParams params) -> std::string {
    try {
      params.validate();
    } catch (const ConfigError& e) {
      return e.field();
    }
    return "";
  };
  const auto good_measurement = [] {
    ScenarioParams params = good_params();
    params.measurement.enabled = true;
    params.measurement.sample_prob = 0.25;
    params.measurement.export_interval = 0.05;
    params.measurement.export_horizon = 1.0;
    return params;
  };

  EXPECT_NO_THROW(good_measurement().validate());

  // Measurement samples DIFANE-installed entries; NOX installs none.
  ScenarioParams params = good_measurement();
  params.mode = Mode::kNox;
  EXPECT_EQ(field_of(params), "measurement.enabled");

  params = good_measurement();
  params.measurement.sample_prob = 0.0;
  EXPECT_EQ(field_of(params), "measurement.sample_prob");

  params = good_measurement();
  params.measurement.sample_prob = 1.5;
  EXPECT_EQ(field_of(params), "measurement.sample_prob");

  params = good_measurement();
  params.measurement.export_interval = 0.0;
  EXPECT_EQ(field_of(params), "measurement.export_interval");

  params = good_measurement();
  params.measurement.export_horizon = 0.0;  // tick chain would never end
  EXPECT_EQ(field_of(params), "measurement.export_horizon");

  params = good_measurement();
  params.measurement.record_capacity = 0;
  EXPECT_EQ(field_of(params), "measurement.record_capacity");

  // Every knob is dormant while measurement is off.
  params = good_measurement();
  params.measurement.enabled = false;
  params.measurement.sample_prob = -1.0;
  params.measurement.export_interval = 0.0;
  params.measurement.export_horizon = -1.0;
  params.measurement.record_capacity = 0;
  EXPECT_NO_THROW(params.validate());
}

// Live-migration knobs (make-before-break partition re-homing): nonsensical
// values must be rejected with the offending field named, and every knob is
// dormant while migration.enabled is false (strict no-op contract — the
// migration-off configuration must validate exactly as it did pre-migration).
TEST(Validate, RejectsMigrationMisWiresNamingTheField) {
  const auto field_of = [](ScenarioParams params) -> std::string {
    try {
      params.validate();
    } catch (const ConfigError& e) {
      return e.field();
    }
    return "";
  };
  const auto good_migration = [] {
    ScenarioParams params = good_params();
    params.reliable_ctrl = true;
    params.migration.enabled = true;
    params.migration.wave_size = 2;
    params.migration.drain_timeout = 0.005;
    params.migration.check_interval = 0.05;
    params.migration.horizon = 0.5;
    params.migration.imbalance_threshold = 1.3;
    return params;
  };

  EXPECT_NO_THROW(good_migration().validate());

  // Migration re-homes DIFANE authority state; NOX has no partitions.
  ScenarioParams params = good_migration();
  params.mode = Mode::kNox;
  params.authority_count = 0;  // NOX-legal; migration must still reject
  params.partitioner.capacity = 0;
  EXPECT_EQ(field_of(params), "migration.enabled");

  // ...and somewhere to move to.
  params = good_migration();
  params.authority_count = 1;
  params.core_switches = 1;
  EXPECT_EQ(field_of(params), "migration.enabled");

  // ...and install/flip/retire acks, i.e. the reliable control channel.
  params = good_migration();
  params.reliable_ctrl = false;
  EXPECT_EQ(field_of(params), "migration.enabled");

  params = good_migration();
  params.migration.wave_size = 0;
  EXPECT_EQ(field_of(params), "migration.wave_size");

  params = good_migration();
  params.migration.drain_timeout = 0.0;
  EXPECT_EQ(field_of(params), "migration.drain_timeout");

  params = good_migration();
  params.migration.drain_timeout = -0.01;
  EXPECT_EQ(field_of(params), "migration.drain_timeout");

  params = good_migration();
  params.migration.check_interval = -0.05;
  EXPECT_EQ(field_of(params), "migration.check_interval");

  // An enabled rebalance loop needs a positive horizon to terminate...
  params = good_migration();
  params.migration.check_interval = 0.05;
  params.migration.horizon = 0.0;
  EXPECT_EQ(field_of(params), "migration.horizon");

  // ...but the loop itself is optional: check_interval == 0 means
  // explicit-rehome-only, and the horizon is then dormant.
  params = good_migration();
  params.migration.check_interval = 0.0;
  params.migration.horizon = -1.0;
  EXPECT_NO_THROW(params.validate());

  params = good_migration();
  params.migration.imbalance_threshold = 0.8;  // every assignment "overloaded"
  EXPECT_EQ(field_of(params), "migration.imbalance_threshold");

  // Every knob is dormant while migration is off — garbage values must pass,
  // so that a migration-off scenario validates byte-for-byte as before.
  params = good_migration();
  params.migration.enabled = false;
  params.reliable_ctrl = false;
  params.migration.wave_size = 0;
  params.migration.drain_timeout = -1.0;
  params.migration.check_interval = -1.0;
  params.migration.horizon = -1.0;
  params.migration.imbalance_threshold = 0.0;
  EXPECT_NO_THROW(params.validate());
}

// Execution knobs: burst survives only as a field that must stay 0 (the
// threads rejections live in ScenarioThreads.ValidateRejectsMisWires).
TEST(Validate, RejectsBurstAndRingMisWiresNamingTheField) {
  const auto field_of = [](ScenarioParams params) -> std::string {
    try {
      params.validate();
    } catch (const ConfigError& e) {
      return e.field();
    }
    return "";
  };

  ScenarioParams params = good_params();
  params.burst = 1;
  EXPECT_EQ(field_of(params), "burst");
}

// Every scenario runs on one event engine, so threads survives only as a
// field that must stay 1. Any other count is rejected naming `threads`, with
// or without link latency, and so is every feature that is otherwise valid
// (it passes at threads=1) once threads is 4.
TEST(ScenarioThreads, ValidateRejectsMisWires) {
  const auto field_of = [](const ScenarioParams& params) -> std::string {
    try {
      params.validate();
    } catch (const ConfigError& e) {
      return e.field();
    }
    return "";
  };
  const auto with_threads = [](std::size_t threads) {
    ScenarioParams params = good_params();
    params.threads = threads;
    return params;
  };
  EXPECT_NO_THROW(with_threads(1).validate());
  EXPECT_EQ(field_of(with_threads(0)), "threads");
  EXPECT_EQ(field_of(with_threads(4)), "threads");
  auto params = with_threads(4);
  params.link.latency = 0.0;
  EXPECT_EQ(field_of(params), "threads");

  const auto expect_serial_only = [&](const ScenarioParams& base,
                                      const char* feature) {
    ScenarioParams serial = base;
    serial.threads = 1;
    EXPECT_NO_THROW(serial.validate()) << feature;
    EXPECT_EQ(field_of(base), "threads") << feature;
  };
  params = with_threads(4);
  params.mode = Mode::kNox;
  expect_serial_only(params, "NOX mode");

  params = with_threads(4);
  params.faults.msg_loss = 0.1;
  params.reliable_ctrl = true;
  expect_serial_only(params, "fault plan");

  params = with_threads(4);
  params.timings.heartbeat_interval = 0.01;
  params.timings.heartbeat_horizon = 1.0;
  expect_serial_only(params, "heartbeat detection");

  params = with_threads(4);
  params.measurement.enabled = true;
  params.measurement.export_interval = 0.05;
  params.measurement.export_horizon = 1.0;
  expect_serial_only(params, "measurement");

  params = with_threads(4);
  params.migration.enabled = true;
  params.reliable_ctrl = true;
  expect_serial_only(params, "migration");
}

TEST(Validate, ConfigErrorIsAContractViolation) {
  // Legacy callers catch contract_violation; the refined type must still
  // satisfy them.
  ScenarioParams params = good_params();
  params.authority_count = 0;
  EXPECT_THROW(params.validate(), contract_violation);
  EXPECT_THROW(Scenario(small_policy(), params), ConfigError);
  try {
    params.validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("authority_count"), std::string::npos);
  }
}

TEST(Validate, NoxModeSkipsDifaneOnlyChecks) {
  ScenarioParams params;
  params.mode = Mode::kNox;
  params.authority_count = 0;  // irrelevant under NOX
  params.partitioner.capacity = 0;
  EXPECT_NO_THROW(params.validate());
}

// --------------------------------------------------------------------------
// CacheStrategy::kNone

TEST(CacheNone, ZeroCapacityRequiresExplicitNoneStrategy) {
  ScenarioParams params = good_params();
  params.cache_strategy = CacheStrategy::kNone;
  params.edge_cache_capacity = 0;
  EXPECT_NO_THROW(params.validate());
}

TEST(CacheNone, PureRedirectionInstallsNothingAndStillDelivers) {
  const auto policy = small_policy();
  ScenarioParams params = good_params();
  params.cache_strategy = CacheStrategy::kNone;
  params.edge_cache_capacity = 0;
  Scenario scenario(policy, params);
  const auto& stats = scenario.run(small_traffic(policy, 9));
  EXPECT_GT(stats.tracer.delivered(), 0u);
  EXPECT_EQ(stats.cache_installs, 0u);
  EXPECT_EQ(stats.cache_rules_installed, 0u);
  EXPECT_EQ(stats.ingress_cache_hits, 0u);
  // Everything that isn't handled locally detours via an authority switch.
  EXPECT_GT(stats.redirects, 0u);
}

// --------------------------------------------------------------------------
// ScenarioStats::snapshot

TEST(Snapshot, MatchesTheUnderlyingGetters) {
  const auto policy = small_policy();
  Scenario scenario(policy, good_params());
  const auto& stats = scenario.run(small_traffic(policy, 11));
  const auto report = stats.snapshot("T1");

  EXPECT_EQ(report.experiment, "T1");
  EXPECT_EQ(report.metrics.at("injected"),
            static_cast<double>(stats.tracer.injected()));
  EXPECT_EQ(report.metrics.at("delivered"),
            static_cast<double>(stats.tracer.delivered()));
  EXPECT_EQ(report.metrics.at("redirects"), static_cast<double>(stats.redirects));
  EXPECT_EQ(report.metrics.at("cache_installs"),
            static_cast<double>(stats.cache_installs));
  EXPECT_EQ(report.metrics.at("ingress_cache_hits"),
            static_cast<double>(stats.ingress_cache_hits));
  EXPECT_EQ(report.metrics.at("cache_hit_fraction"), stats.cache_hit_fraction());
  EXPECT_EQ(report.metrics.at("first_delay_p50_s"),
            stats.tracer.first_packet_delay().percentile(0.5));
  EXPECT_EQ(report.metrics.at("setup_completions"),
            static_cast<double>(stats.setup_completions.total()));
  // Every key is a deterministic simulation quantity — none may claim the
  // wall-metric exemption.
  for (const auto& [name, value] : report.metrics) {
    (void)value;
    EXPECT_FALSE(obs::is_wall_metric(name)) << name;
  }
}

TEST(Snapshot, SameSeedProducesByteIdenticalJsonModuloHostFields) {
  const auto policy = small_policy();
  const auto flows = small_traffic(policy, 13);

  const auto run_once = [&] {
    Scenario scenario(policy, good_params());
    auto report = scenario.run(flows).snapshot("DET");
    // Normalize the two host-dependent fields the guarantee excludes.
    report.git_rev = "fixed";
    report.wall_seconds = 0.0;
    return report.to_json_string();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);

  // A different seed must actually change the measurements (the comparison
  // above is not trivially true).
  Scenario scenario(policy, good_params());
  auto other = scenario.run(small_traffic(policy, 14)).snapshot("DET");
  other.git_rev = "fixed";
  other.wall_seconds = 0.0;
  EXPECT_NE(first, other.to_json_string());
}

}  // namespace
}  // namespace difane
