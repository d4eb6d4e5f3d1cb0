#include "core/system.hpp"

#include <algorithm>
#include <cmath>

#include "partition/migration.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"

namespace difane {

namespace {

// Redirects are dropped once an authority switch's queue holds this much
// work (seconds).
constexpr double kAuthorityBacklogMax = 0.01;
// A packet that has made this many hops is dropped instead of forwarded.
constexpr std::uint32_t kTtlHops = 64;
// One-way latency of each measuring switch's export channel to the collector.
constexpr double kExportLatency = 2e-4;
// NOX mode: switch <-> controller latency, each direction.
constexpr double kNoxOneWayLatency = 5e-3;

}  // namespace

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kDifane: return "difane";
    case Mode::kNox: return "nox";
  }
  return "?";
}

// ---- parameter validation ------------------------------------------------
// One knob group per helper, every rejection a field-named ConfigError, all
// of them called from the single ScenarioParams::validate() pass at the
// bottom. A new knob group gets a new helper here — not an ad-hoc check at
// its construction site — so test_scenario_api can enumerate every error
// from one place.

namespace {

void validate_topology(const ScenarioParams& p) {
  if (p.edge_switches == 0) {
    throw ConfigError("edge_switches", "need at least one edge switch");
  }
  if (p.core_switches == 0) {
    throw ConfigError("core_switches", "need at least one core switch");
  }
  if (p.topology == TopologyKind::kLine && p.core_switches > p.edge_switches) {
    throw ConfigError("core_switches",
                      "line topology places authority state on chain nodes; "
                      "core_switches must be <= edge_switches (" +
                          std::to_string(p.core_switches) + " > " +
                          std::to_string(p.edge_switches) + ")");
  }
}

void validate_control_plane(const ScenarioParams& p) {
  if (p.mode == Mode::kDifane) {
    if (p.authority_count == 0) {
      throw ConfigError("authority_count", "DIFANE needs an authority switch");
    }
    if (p.authority_count > p.core_switches) {
      throw ConfigError("authority_count",
                        "authority_count must fit in the core tier (" +
                            std::to_string(p.authority_count) + " > " +
                            std::to_string(p.core_switches) + ")");
    }
    if (p.authority_replicas == 0) {
      throw ConfigError("authority_replicas", "need at least one replica");
    }
    // authority_replicas > authority_count is NOT rejected: the controller
    // clamps to the authority count (a documented convenience, relied on by
    // "replicate everywhere" configs).
    if (p.partitioner.capacity == 0) {
      throw ConfigError("partitioner.capacity",
                        "a zero-capacity partition can hold no rules");
    }
    if (p.max_splice_cost == 0) {
      throw ConfigError("max_splice_cost",
                        "a zero splice budget forbids every cache install; "
                        "use CacheStrategy::kNone to disable caching");
    }
  }
  // A zero cache with an installing strategy silently drops every install —
  // the classic mis-wire. Pure redirection must be declared via kNone.
  if (p.edge_cache_capacity == 0 && p.cache_strategy != CacheStrategy::kNone) {
    throw ConfigError("edge_cache_capacity",
                      "zero cache capacity with an installing cache strategy; "
                      "set CacheStrategy::kNone for pure redirection");
  }
}

void validate_timings(const ScenarioParams& p) {
  if (p.timings.authority_service <= 0.0) {
    throw ConfigError("timings.authority_service", "service time must be > 0");
  }
  if (p.timings.failover_detect < 0.0) {
    throw ConfigError("timings.failover_detect",
                      "detection delay cannot be negative");
  }
}

void validate_heartbeat(const ScenarioParams& p) {
  if (p.timings.heartbeat_interval < 0.0) {
    throw ConfigError("timings.heartbeat_interval",
                      "heartbeat interval cannot be negative");
  }
  if (p.timings.heartbeat_interval > 0.0) {
    if (p.timings.heartbeat_miss == 0) {
      throw ConfigError("timings.heartbeat_miss",
                        "a zero miss threshold declares every switch dead "
                        "on the first tick");
    }
    if (p.timings.heartbeat_horizon <= 0.0) {
      throw ConfigError("timings.heartbeat_horizon",
                        "heartbeat detection needs a positive horizon or the "
                        "monitor's tick chain never ends (set it at or past "
                        "the end of injected traffic)");
    }
  }
}

void validate_elephants(const ScenarioParams& p) {
  if (!p.elephants.enabled) return;
  if (p.mode != Mode::kDifane) {
    throw ConfigError("elephants.enabled",
                      "elephant-aware caching runs on DIFANE authority "
                      "switches; NOX mode has no authority miss stream to "
                      "feed the tracker");
  }
  if (p.cache_strategy == CacheStrategy::kNone) {
    throw ConfigError("elephants.enabled",
                      "elephant-aware caching (and mice bypass) modulates "
                      "cache installs; CacheStrategy::kNone never installs "
                      "anything to modulate");
  }
  if (p.elephants.tracker_capacity == 0) {
    throw ConfigError("elephants.tracker_capacity",
                      "a zero-slot space-saving summary can track nothing");
  }
  if (p.elephants.threshold == 0) {
    throw ConfigError("elephants.threshold",
                      "a zero threshold promotes every flow to elephant on "
                      "its first miss; use threshold >= 1");
  }
  if (p.elephants.idle_timeout <= 0.0) {
    throw ConfigError("elephants.idle_timeout",
                      "elephant idle timeout must be > 0 (0 means 'never "
                      "expire' at the flow table, which is spelled via the "
                      "base cache_idle_timeout, not here)");
  }
  if (p.elephants.mice_bypass && p.elephants.mice_min_packets < 2) {
    throw ConfigError("elephants.mice_min_packets",
                      "mice bypass needs a returning-flow bar of at least 2 "
                      "packets; 0/1 would bypass nothing");
  }
  if (p.elephants.probation_idle_timeout < 0.0) {
    throw ConfigError("elephants.probation_idle_timeout",
                      "probation idle timeout must be >= 0 (0 inherits the "
                      "base cache_idle_timeout)");
  }
}

void validate_measurement(const ScenarioParams& p) {
  if (!p.measurement.enabled) return;
  if (p.mode != Mode::kDifane) {
    throw ConfigError("measurement.enabled",
                      "flow measurement samples DIFANE cache/authority "
                      "entries; NOX mode installs none to measure");
  }
  if (p.measurement.sample_prob <= 0.0 || p.measurement.sample_prob > 1.0) {
    throw ConfigError("measurement.sample_prob",
                      "sampling probability must be in (0, 1]; 1.0 counts "
                      "every packet");
  }
  if (p.measurement.export_interval <= 0.0) {
    throw ConfigError("measurement.export_interval",
                      "export interval must be > 0");
  }
  if (p.measurement.export_horizon <= 0.0) {
    throw ConfigError("measurement.export_horizon",
                      "measurement needs a positive export horizon or the "
                      "tick chain never ends (set it at or past the end of "
                      "injected traffic)");
  }
  if (p.measurement.record_capacity == 0) {
    throw ConfigError("measurement.record_capacity",
                      "a zero-record flow table can measure nothing");
  }
}

// Both fields survive only because perfbench/workloads.hpp assigns them.
void validate_execution(const ScenarioParams& p) {
  if (p.threads != 1) {
    throw ConfigError("threads",
                      "in-scenario parallel execution was removed; every "
                      "scenario runs on one event engine, so threads must "
                      "be 1");
  }
  if (p.burst != 0) {
    throw ConfigError("burst",
                      "the burst data plane was removed; packets are always "
                      "processed one engine event each, so burst must be 0");
  }
}

void validate_reliability(const ScenarioParams& p) {
  if (!p.reliable_ctrl) return;
  if (p.faults.msg_loss >= 1.0) {
    throw ConfigError("faults.msg_loss",
                      "reliable delivery with 100% loss retransmits "
                      "forever; loss must be < 1 when reliable_ctrl is on");
  }
}

void validate_migration(const ScenarioParams& p) {
  const auto& m = p.migration;
  if (!m.enabled) {
    // Dormant knobs are not validated: a default-constructed MigrationParams
    // with migration off must never reject (strict no-op contract).
    return;
  }
  if (p.mode != Mode::kDifane) {
    throw ConfigError("migration.enabled",
                      "live partition migration re-homes DIFANE authority "
                      "state; NOX mode has no partitions to move");
  }
  if (p.authority_count < 2) {
    throw ConfigError("migration.enabled",
                      "migration needs somewhere to move to: "
                      "authority_count must be >= 2");
  }
  if (!p.reliable_ctrl) {
    throw ConfigError("migration.enabled",
                      "make-before-break rides install/flip/retire acks; "
                      "migration requires reliable_ctrl");
  }
  if (m.wave_size == 0) {
    throw ConfigError("migration.wave_size",
                      "a zero-size migration wave can move nothing");
  }
  if (m.drain_timeout <= 0.0) {
    throw ConfigError("migration.drain_timeout",
                      "the drain window must be > 0 or in-flight redirects "
                      "race the source retirement");
  }
  if (m.check_interval < 0.0) {
    throw ConfigError("migration.check_interval",
                      "rebalance interval cannot be negative");
  }
  if (m.check_interval > 0.0 && m.horizon <= 0.0) {
    throw ConfigError("migration.horizon",
                      "the rebalance loop needs a positive horizon or its "
                      "tick chain never ends (set it at or past the end of "
                      "injected traffic)");
  }
  if (m.imbalance_threshold < 1.0) {
    throw ConfigError("migration.imbalance_threshold",
                      "threshold below 1 makes every balanced assignment "
                      "look overloaded; use >= 1");
  }
}

void validate_faults(const ScenarioParams& p) {
  p.faults.validate();
  for (const auto& crash : p.faults.crashes) {
    if (p.mode == Mode::kDifane && crash.authority_index >= p.authority_count) {
      throw ConfigError("faults.crashes",
                        "crash names authority index " +
                            std::to_string(crash.authority_index) + " but only " +
                            std::to_string(p.authority_count) + " exist");
    }
  }
}

}  // namespace

void ScenarioParams::validate() const {
  validate_topology(*this);
  validate_control_plane(*this);
  validate_timings(*this);
  validate_heartbeat(*this);
  validate_elephants(*this);
  validate_measurement(*this);
  validate_execution(*this);
  validate_reliability(*this);
  validate_migration(*this);
  validate_faults(*this);
}

Scenario::Scenario(RuleTable policy, ScenarioParams params)
    : policy_(std::move(policy)), params_(params) {
  params_.validate();
  switch (params_.topology) {
    case TopologyKind::kTwoTier:
      topo_ = build_two_tier(net_, params_.edge_switches, params_.core_switches,
                             params_.edge_cache_capacity,
                             /*core cache=*/params_.edge_cache_capacity,
                             params_.link);
      break;
    case TopologyKind::kLine: {
      const auto line = build_line(net_, params_.edge_switches,
                                   params_.edge_cache_capacity, params_.link);
      topo_.edge = line;
      // Authority nodes evenly spaced along the chain (midpoints of k
      // equal segments), so the worst detour is ~one segment.
      for (std::size_t i = 0; i < params_.core_switches; ++i) {
        const std::size_t pos = (2 * i + 1) * line.size() / (2 * params_.core_switches);
        topo_.core.push_back(line[std::min(pos, line.size() - 1)]);
      }
      break;
    }
  }
  switch (params_.mode) {
    case Mode::kDifane: {
      std::vector<SwitchId> authorities(topo_.core.begin(),
                                        topo_.core.begin() + params_.authority_count);
      DifaneControllerParams cp;
      cp.partitioner = params_.partitioner;
      cp.cache_strategy = params_.cache_strategy;
      cp.max_splice_cost = params_.max_splice_cost;
      cp.replicas = params_.authority_replicas;
      difane_ = std::make_unique<DifaneController>(net_, policy_, authorities, cp);
      difane_->install_all();
      for (const auto sw : authorities) {
        authority_queues_.emplace(
            sw, ServiceQueue(params_.timings.authority_service, kAuthorityBacklogMax));
        if (params_.elephants.enabled) {
          elephant_trackers_.emplace(
              sw, obs::SpaceSaving<BitVec>(params_.elephants.tracker_capacity));
        }
      }
      break;
    }
    case Mode::kNox: {
      nox_ = std::make_unique<NoxControlPlane>(policy_, params_.nox);
      break;
    }
  }
  // Fault machinery first, so the channels and agents below can hook into
  // it. With an inactive plan nothing is built and every construction below
  // takes its fault-free path.
  if (params_.faults.active()) {
    injector_ = std::make_unique<FaultInjector>(params_.faults);
  }
  // Control agents + install channels for every switch. Cache installs (from
  // authority switches or the NOX controller) go through these so they pay
  // propagation latency plus the per-flow-mod apply cost, in order.
  const ControlChannel::Reliability reliability{.enabled = params_.reliable_ctrl};
  for (SwitchId id = 0; id < net_.switch_count(); ++id) {
    agents_.push_back(
        std::make_unique<SwitchAgent>(net_.engine(), net_.sw(id)));
    // Under faults, applies draw from the install-fault budget. A dependent
    // whose protector was lost needs no check here: the table refuses it.
    if (injector_ != nullptr) {
      agents_.back()->set_install_fault_hook(
          [this]() { return injector_->fail_install(); });
    }
    const double latency = params_.mode == Mode::kDifane
                               ? params_.timings.cache_install_latency
                               : kNoxOneWayLatency;
    install_channels_.push_back(std::make_unique<ControlChannel>(
        net_.engine(), *agents_.back(), latency, reliability, injector_.get()));
  }
  // Heartbeat-based failure detection over the authority switches.
  if (difane_ != nullptr && params_.timings.heartbeat_interval > 0.0) {
    HeartbeatParams hp;
    hp.interval = params_.timings.heartbeat_interval;
    hp.miss_threshold = params_.timings.heartbeat_miss;
    hp.horizon = params_.timings.heartbeat_horizon;
    heartbeat_ = std::make_unique<HeartbeatMonitor>(
        net_, difane_->authority_switches(), hp, injector_.get());
    heartbeat_->on_failure([this](SwitchId sw, double) { fail_over(sw); });
    heartbeat_->on_recovery([this](SwitchId sw, double) {
      difane_->handle_authority_restart(sw);
    });
    heartbeat_->start();
  }
  // Measurement mode last: its piggyback hook wants the heartbeat monitor,
  // and its export channels want the injector, both built above.
  setup_measurement(reliability);
  schedule_faults();
  // Live-migration rebalance loop: a tick chain (mirrors the measurement
  // tick chain). Explicit request_rehome() works without it.
  if (params_.migration.enabled && params_.migration.check_interval > 0.0 &&
      params_.migration.check_interval <= params_.migration.horizon) {
    net_.engine().at(params_.migration.check_interval,
                     [this]() { migration_tick(); });
  }
}

// Build the telemetry data plane: one FlowTelemetry + export channel per
// exporter (every edge switch, then every authority switch not already an
// edge — that fixed order is also the order finalize_measurement() merges
// the per-exporter batch streams, making the collector stream deterministic).
void Scenario::setup_measurement(const ControlChannel::Reliability& reliability) {
  if (!params_.measurement.enabled) return;
  std::vector<char> is_exporter(net_.switch_count(), 0);
  for (const SwitchId e : topo_.edge) {
    if (!is_exporter[e]) {
      is_exporter[e] = 1;
      exporters_.push_back(e);
    }
  }
  std::vector<char> watched(net_.switch_count(), 0);
  if (difane_ != nullptr) {
    for (const SwitchId a : difane_->authority_switches()) {
      watched[a] = 1;
      if (!is_exporter[a]) {
        is_exporter[a] = 1;
        exporters_.push_back(a);
      }
    }
  }
  telemetry_.resize(net_.switch_count());
  export_endpoints_.resize(net_.switch_count());
  export_channels_.resize(net_.switch_count());
  export_seq_.assign(net_.switch_count(), 0);
  for (const SwitchId sw : exporters_) {
    // Per-switch sampler stream split from the master measurement seed, so
    // adding or removing one exporter never perturbs another's draws.
    std::uint64_t state =
        params_.measurement.seed ^
        ((static_cast<std::uint64_t>(sw) + 1) * 0x9e3779b97f4a7c15ULL);
    telemetry_[sw] =
        std::make_unique<FlowTelemetry>(params_.measurement, splitmix64(state));
    // Heartbeat piggyback: a batch arriving from a watched (authority)
    // switch is liveness evidence.
    CollectorEndpoint::BatchHook hook;
    if (heartbeat_ != nullptr && watched[sw]) {
      hook = [this, sw](const obs::FlowExportBatch& batch) {
        heartbeat_->note_liveness(sw, batch.beat_seq);
      };
    }
    export_endpoints_[sw] = std::make_unique<CollectorEndpoint>(std::move(hook));
    export_channels_[sw] = std::make_unique<ControlChannel>(
        net_.engine(), *export_endpoints_[sw], kExportLatency, reliability,
        injector_.get());
    // Eviction flush: when a cache entry leaves this switch's table, any
    // pending counts bound to it close into kEvict records instead of
    // silently vanishing with the entry.
    net_.sw(sw).table().set_removal_listener(
        [this, sw](const FlowEntry& entry) {
          on_cache_removed(sw, entry);
        });
    if (params_.measurement.export_interval <= params_.measurement.export_horizon) {
      net_.engine().at(params_.measurement.export_interval,
                       [this, sw]() { export_tick(sw); });
    }
  }
}

void Scenario::export_tick(SwitchId sw) {
  // A failed switch exports nothing (its state is already lost); the tick
  // chain keeps running so exports resume when the switch restarts.
  if (!net_.sw(sw).failed()) {
    // Always send — an empty drain becomes a keepalive batch, which is what
    // lets the heartbeat piggyback distinguish "quiet but alive" from
    // "partitioned" for an authority serving no misses.
    send_export(sw, telemetry_[sw]->drain(obs::ExportKind::kPeriodic));
  }
  const double next = net_.engine().now() + params_.measurement.export_interval;
  if (next <= params_.measurement.export_horizon) {
    net_.engine().at(next, [this, sw]() { export_tick(sw); });
  }
}

void Scenario::send_export(SwitchId sw, std::vector<obs::FlowExportRecord> records) {
  obs::FlowExportBatch batch;
  batch.exporter = sw;
  batch.seq = export_seq_[sw]++;
  batch.sent_at = net_.engine().now();
  // Stamp the batch with the heartbeat epoch it was sent in; the monitor
  // accepts it as liveness evidence iff the stamp is within miss_threshold
  // ticks of its own counter (see HeartbeatMonitor::note_liveness).
  const double hb = params_.timings.heartbeat_interval;
  batch.beat_seq =
      hb > 0.0 ? static_cast<std::uint64_t>(batch.sent_at / hb) : 0;
  batch.sample_prob = params_.measurement.sample_prob;
  batch.records = std::move(records);
  FlowExport msg;
  msg.batch = std::move(batch);
  export_channels_[sw]->send(std::move(msg));
}

// FlowTable removal listener body (cache band only). Fires with the entry
// still intact, before the slot is reused; must not touch the table.
void Scenario::on_cache_removed(SwitchId sw, const FlowEntry& entry) {
  FlowTelemetry* tel = telemetry_[sw].get();
  if (tel == nullptr) return;
  // A crashing switch loses its counter state: the purge that empties its
  // TCAM must not launder pending counts into exports (crash_authority
  // drops the rest via drop_all()).
  const bool export_counts =
      params_.measurement.flush_on_evict && !net_.sw(sw).failed();
  tel->on_rule_removed(entry.rule.id, net_.engine().now(), export_counts);
}

// After the engine drains: final-drain every exporter, then feed the
// collector each exporter's batches in exporter-major order. The final
// batches bypass the export channel — there is no engine time left to pay
// latency in — so they carry kFinal records and fresh seqs but never contend
// with in-flight traffic.
void Scenario::finalize_measurement() {
  if (!params_.measurement.enabled) return;
  for (const SwitchId sw : exporters_) {
    FlowTelemetry& tel = *telemetry_[sw];
    std::vector<obs::FlowExportBatch> batches = export_endpoints_[sw]->take();
    if (net_.sw(sw).failed()) {
      tel.drop_all();  // still down at end of run: residual state is lost
    } else {
      std::vector<obs::FlowExportRecord> final_records =
          tel.drain(obs::ExportKind::kFinal);
      if (!final_records.empty()) {
        obs::FlowExportBatch batch;
        batch.exporter = sw;
        batch.seq = export_seq_[sw]++;
        batch.sent_at = net_.engine().now();
        const double hb = params_.timings.heartbeat_interval;
        batch.beat_seq =
            hb > 0.0 ? static_cast<std::uint64_t>(batch.sent_at / hb) : 0;
        batch.sample_prob = params_.measurement.sample_prob;
        batch.records = std::move(final_records);
        batches.push_back(std::move(batch));
      }
    }
    for (const auto& batch : batches) collector_.on_batch(batch);
  }
  // Switch-side accounting.
  stats_.telemetry_sampled_packets = 0;
  stats_.telemetry_sampled_bytes = 0;
  stats_.telemetry_records = 0;
  stats_.telemetry_dropped_records = 0;
  stats_.telemetry_dropped_packets = 0;
  stats_.telemetry_overflow_drops = 0;
  for (const SwitchId sw : exporters_) {
    const FlowTelemetry& tel = *telemetry_[sw];
    stats_.telemetry_sampled_packets += tel.sampled_packets();
    stats_.telemetry_sampled_bytes += tel.sampled_bytes();
    stats_.telemetry_records += tel.flow_records();
    stats_.telemetry_dropped_records += tel.dropped_records();
    stats_.telemetry_dropped_packets += tel.dropped_packets();
    stats_.telemetry_overflow_drops += tel.overflow_drops();
  }
  // Collector-side accounting.
  stats_.export_batches = collector_.batches();
  stats_.export_records = collector_.records();
  stats_.export_keepalives = collector_.keepalives();
  stats_.export_evict_records = collector_.evict_records();
  stats_.export_final_records = collector_.final_records();
  stats_.export_transmissions = 0;
  stats_.export_retransmits = 0;
  for (const SwitchId sw : exporters_) {
    stats_.export_transmissions += export_channels_[sw]->transmissions();
    stats_.export_retransmits += export_channels_[sw]->retransmits();
  }
  if (heartbeat_ != nullptr) {
    stats_.export_piggyback_fresh = heartbeat_->piggyback_fresh();
    stats_.export_piggyback_stale = heartbeat_->piggyback_stale();
  }
}

void Scenario::schedule_faults() {
  for (const auto& flap : params_.faults.link_flaps) {
    expects(flap.a < net_.switch_count() && flap.b < net_.switch_count() &&
                net_.adjacent(flap.a, flap.b),
            "faults.link_flaps: no such link in the built topology");
    net_.engine().at(flap.down_at, [this, flap]() {
      net_.set_link_failed(flap.a, flap.b, true);
      ++stats_.link_flaps;
      log_info("link ", flap.a, "-", flap.b, " down at t=", net_.engine().now());
    });
    if (flap.up_at >= 0.0) {
      net_.engine().at(flap.up_at, [this, flap]() {
        net_.set_link_failed(flap.a, flap.b, false);
      });
    }
  }
  if (difane_ == nullptr) return;
  // Heartbeats off: the controller reacts a fixed failover_detect after the
  // crash (Chaos.FixedDelayCrashFailsOverWithoutHeartbeats pins this path).
  const bool fixed_delay_detect = params_.timings.heartbeat_interval <= 0.0;
  for (const auto& crash : params_.faults.crashes) {
    const SwitchId sw = difane_->authority_switch(crash.authority_index);
    net_.engine().at(crash.at, [this, sw]() { crash_authority(sw); });
    if (fixed_delay_detect) {
      net_.engine().at(crash.at + params_.timings.failover_detect,
                       [this, sw]() { fail_over(sw); });
    }
    if (crash.restart_at >= 0.0) {
      net_.engine().at(crash.restart_at, [this, sw]() { restart_authority(sw); });
      if (fixed_delay_detect) {
        net_.engine().at(crash.restart_at + params_.timings.failover_detect,
                         [this, sw]() { difane_->handle_authority_restart(sw); });
      }
    }
  }
}

void Scenario::fail_over(SwitchId sw) {
  // A migration whose destination just died must abort before the failover
  // re-points partitions (the rollback leans on the old copy the migration
  // had not yet retired).
  migration_on_crash(sw);
  difane_->handle_authority_failure(sw);
}

void Scenario::crash_authority(SwitchId sw) {
  net_.set_failed(sw, true);
  // A crash loses the switch's flow table — it reboots with empty cache and
  // partition bands. (Distinct from schedule_authority_failure, which models
  // a fail-stop partition where the state is merely unreachable.) Its
  // bindings, the authority band, stay with the controller: they resolve
  // and count again as soon as the switch is back.
  FlowTable& table = net_.sw(sw).table();
  table.clear_band(Band::kCache);
  table.clear_band(Band::kPartition);
  // The heavy-hitter summary is soft state on the switch: it reboots empty,
  // so a restarted authority re-detects its elephants from scratch (the
  // chaos suite pins this re-detection behaviour).
  if (const auto it = elephant_trackers_.find(sw); it != elephant_trackers_.end()) {
    it->second.reset();
  }
  // Flow counters are soft state too: the clear_band() purge above already
  // routed cache-bound pending counts to the dropped side (the removal
  // listener saw failed() == true), and drop_all() loses the rest —
  // authority-band-bound deltas and evict-closed records awaiting export.
  if (sw < telemetry_.size() && telemetry_[sw] != nullptr) {
    telemetry_[sw]->drop_all();
  }
  ++stats_.authority_crashes;
  log_info("authority switch ", sw, " crashed at t=", net_.engine().now());
}

void Scenario::restart_authority(SwitchId sw) {
  net_.set_failed(sw, false);
  ++stats_.authority_restarts;
  log_info("authority switch ", sw, " restarted at t=", net_.engine().now());
}

obs::MetricsReport ScenarioStats::snapshot(const std::string& experiment) const {
  obs::MetricsReport report(experiment);
  // Packet accounting.
  report.set("injected", static_cast<double>(tracer.injected()));
  report.set("delivered", static_cast<double>(tracer.delivered()));
  report.set("dropped_total", static_cast<double>(tracer.dropped()));
  for (std::size_t i = 0; i < kNumDropReasons; ++i) {
    const auto reason = static_cast<DropReason>(i);
    report.set(std::string("dropped_") + drop_reason_name(reason),
               static_cast<double>(tracer.dropped(reason)));
  }
  report.set("redirected_packets", static_cast<double>(tracer.redirected()));
  report.set("hops_mean", tracer.hops().mean());
  // Delay distributions (simulated seconds — deterministic, not wall time).
  const auto& first = tracer.first_packet_delay();
  report.set("first_delay_count", static_cast<double>(first.count()));
  if (!first.empty()) {
    report.set("first_delay_mean_s", first.mean());
    report.set("first_delay_p50_s", first.percentile(0.50));
    report.set("first_delay_p90_s", first.percentile(0.90));
    report.set("first_delay_p99_s", first.percentile(0.99));
  }
  const auto& later = tracer.later_packet_delay();
  if (!later.empty()) {
    report.set("later_delay_p50_s", later.percentile(0.50));
    report.set("later_delay_p99_s", later.percentile(0.99));
  }
  // Control-plane / caching behaviour.
  report.set("ingress_cache_hits", static_cast<double>(ingress_cache_hits));
  report.set("ingress_local_hits", static_cast<double>(ingress_local_hits));
  report.set("redirects", static_cast<double>(redirects));
  report.set("queue_rejects", static_cast<double>(queue_rejects));
  report.set("cache_installs", static_cast<double>(cache_installs));
  report.set("cache_rules_installed", static_cast<double>(cache_rules_installed));
  report.set("cache_hit_mismatches", static_cast<double>(cache_hit_mismatches));
  report.set("cache_hit_fraction", cache_hit_fraction());
  report.set("elephant_promotions", static_cast<double>(elephant_promotions));
  report.set("elephant_installs", static_cast<double>(elephant_installs));
  report.set("elephant_proactive", static_cast<double>(elephant_proactive));
  report.set("mice_bypassed", static_cast<double>(mice_bypassed));
  report.set("cache_entries_final", static_cast<double>(cache_entries_final));
  if (stretch.count() > 0) {
    report.set("stretch_p50", stretch.percentile(0.50));
    report.set("stretch_p99", stretch.percentile(0.99));
  }
  report.set("setup_completions", static_cast<double>(setup_completions.total()));
  report.set("setup_rate_per_s", setup_completions.rate());
  // Fault / robustness counters (all but guard_rejects zero on a fault-free
  // unreliable-channel run; emitted unconditionally so the report schema is
  // run-independent).
  report.set("ctrl_transmissions", static_cast<double>(ctrl_transmissions));
  report.set("ctrl_retransmits", static_cast<double>(ctrl_retransmits));
  report.set("ctrl_acks", static_cast<double>(ctrl_acks));
  report.set("ctrl_dup_requests", static_cast<double>(ctrl_dup_requests));
  report.set("ctrl_reordered", static_cast<double>(ctrl_reordered));
  report.set("msgs_lost", static_cast<double>(msgs_lost));
  report.set("msgs_duplicated", static_cast<double>(msgs_duplicated));
  report.set("msgs_jittered", static_cast<double>(msgs_jittered));
  report.set("install_faults", static_cast<double>(install_faults));
  report.set("guard_rejects", static_cast<double>(guard_rejects));
  report.set("heartbeats_heard", static_cast<double>(heartbeats_heard));
  report.set("heartbeats_missed", static_cast<double>(heartbeats_missed));
  report.set("failovers_detected", static_cast<double>(failovers_detected));
  report.set("recoveries_detected", static_cast<double>(recoveries_detected));
  report.set("spurious_failovers", static_cast<double>(spurious_failovers));
  report.set("link_flaps", static_cast<double>(link_flaps));
  report.set("authority_crashes", static_cast<double>(authority_crashes));
  report.set("authority_restarts", static_cast<double>(authority_restarts));
  // Telemetry data plane (all zero with measurement off).
  report.set("telemetry_sampled_packets",
             static_cast<double>(telemetry_sampled_packets));
  report.set("telemetry_sampled_bytes",
             static_cast<double>(telemetry_sampled_bytes));
  report.set("telemetry_records", static_cast<double>(telemetry_records));
  report.set("telemetry_dropped_records",
             static_cast<double>(telemetry_dropped_records));
  report.set("telemetry_dropped_packets",
             static_cast<double>(telemetry_dropped_packets));
  report.set("telemetry_overflow_drops",
             static_cast<double>(telemetry_overflow_drops));
  report.set("export_batches", static_cast<double>(export_batches));
  report.set("export_records", static_cast<double>(export_records));
  report.set("export_keepalives", static_cast<double>(export_keepalives));
  report.set("export_evict_records", static_cast<double>(export_evict_records));
  report.set("export_final_records", static_cast<double>(export_final_records));
  report.set("export_transmissions", static_cast<double>(export_transmissions));
  report.set("export_retransmits", static_cast<double>(export_retransmits));
  report.set("export_piggyback_fresh",
             static_cast<double>(export_piggyback_fresh));
  report.set("export_piggyback_stale",
             static_cast<double>(export_piggyback_stale));
  // Live partition migration (all zero with migration off).
  report.set("migrations_started", static_cast<double>(migrations_started));
  report.set("migrations_completed", static_cast<double>(migrations_completed));
  report.set("migrations_aborted", static_cast<double>(migrations_aborted));
  report.set("migration_rules_moved", static_cast<double>(migration_rules_moved));
  report.set("migration_double_peak", static_cast<double>(migration_double_peak));
  report.set("migration_inflight_redirects",
             static_cast<double>(migration_inflight_redirects));
  return report;
}

std::vector<FlowStatsEntry> Scenario::query_flow_stats() const {
  std::vector<std::vector<FlowStatsEntry>> per_switch;
  per_switch.reserve(net_.switch_count());
  for (SwitchId id = 0; id < net_.switch_count(); ++id) {
    per_switch.push_back(collect_stats(net_.sw(id)));
  }
  if (difane_ != nullptr) {
    for (const SwitchId sw : difane_->authority_switches()) {
      per_switch.push_back(difane_->node_at(sw)->flow_stats());
    }
  }
  return merge_stats(per_switch);
}

// Live (unexpired) cache-band entries across the edge at time `now` — the
// TCAM footprint a dump would show. Read-only walk (lookup() would sweep
// lazily-expired slots and mutate).
std::uint64_t Scenario::live_cache_entries(double now) const {
  std::uint64_t live = 0;
  for (const SwitchId e : topo_.edge) {
    for (const auto& entry : net_.sw(e).table().entries(Band::kCache)) {
      if (!entry.expired(now)) ++live;
    }
  }
  return live;
}

const ScenarioStats& Scenario::run(const std::vector<FlowSpec>& flows) {
  Engine& engine = net_.engine();
  for (const auto& flow : flows) {
    if (!(std::isfinite(flow.start) && flow.start >= engine.now() &&
          std::isfinite(flow.packet_gap) && flow.packet_gap >= 0.0)) {
      throw contract_violation("Scenario::run: flow " + std::to_string(flow.id) +
                               " has a bad start or packet_gap");
    }
  }
  if (params_.occupancy_sample_at >= 0.0) {
    engine.at(params_.occupancy_sample_at, [this]() {
      stats_.cache_entries_final = live_cache_entries(net_.engine().now());
    });
  }
  // Numbers are reserved in vector order; stable sorting keeps tied starts
  // in that order, so the key (start, base) grows along each start list.
  start_lists_.assign(net_.switch_count(), StartList{});
  for (const auto& flow : flows) {
    if (flow.packets == 0) continue;
    const SwitchId ingress = ingress_switch(flow.ingress_index);
    start_lists_[ingress].starts.push_back(
        FlowStart{&flow, engine.reserve(flow.packets)});
  }
  for (SwitchId ingress = 0; ingress < start_lists_.size(); ++ingress) {
    auto& starts = start_lists_[ingress].starts;
    std::stable_sort(starts.begin(), starts.end(),
                     [](const FlowStart& a, const FlowStart& b) {
                       return a.flow->start < b.flow->start;
                     });
    start_next_flow(ingress);
  }
  engine.run();
  start_lists_ = std::vector<StartList>();
  ensures(stats_.tracer.in_flight() == 0,
          "Scenario: packets unaccounted for after the run");
  if (params_.occupancy_sample_at < 0.0) {
    stats_.cache_entries_final = live_cache_entries(end_clock());
  }
  finalize_measurement();
  collect_fault_stats();
  return stats_;
}

void Scenario::collect_fault_stats() {
  stats_.ctrl_transmissions = 0;
  stats_.ctrl_retransmits = 0;
  stats_.ctrl_acks = 0;
  stats_.ctrl_dup_requests = 0;
  stats_.ctrl_reordered = 0;
  for (const auto& channel : install_channels_) {
    stats_.ctrl_transmissions += channel->transmissions();
    stats_.ctrl_retransmits += channel->retransmits();
    stats_.ctrl_acks += channel->acks();
    stats_.ctrl_dup_requests += channel->dup_requests();
    stats_.ctrl_reordered += channel->reordered();
  }
  stats_.install_faults = 0;
  for (const auto& agent : agents_) stats_.install_faults += agent->install_faults();
  stats_.guard_rejects = 0;
  for (SwitchId id = 0; id < net_.switch_count(); ++id) {
    stats_.guard_rejects += net_.sw(id).table().stats().guard_rejects;
  }
  if (injector_ != nullptr) {
    const auto& c = injector_->counters();
    stats_.msgs_lost = c.msgs_lost;
    stats_.msgs_duplicated = c.msgs_duplicated;
    stats_.msgs_jittered = c.msgs_jittered;
  }
  if (heartbeat_ != nullptr) {
    stats_.heartbeats_heard = heartbeat_->beats_heard();
    stats_.heartbeats_missed = heartbeat_->beats_missed();
    stats_.failovers_detected = heartbeat_->failures_declared();
    stats_.recoveries_detected = heartbeat_->recoveries_declared();
    stats_.spurious_failovers = heartbeat_->spurious_failovers();
  }
}

VerifyReport Scenario::verify_installed(std::size_t, std::uint64_t) {
  expects(difane_ != nullptr, "verify_installed: DIFANE mode only");
  return verify_installed_state(net_, *difane_, policy_, topo_.edge, end_clock());
}

void Scenario::schedule_arrival(const FlowSpec& flow, SwitchId ingress,
                                std::uint64_t base, std::size_t p) {
  net_.engine().at(flow.start + static_cast<double>(p) * flow.packet_gap,
                   base + p, [this, f = &flow, ingress, base, p]() {
                     arrive(*f, ingress, base, p);
                   });
}

void Scenario::start_next_flow(SwitchId ingress) {
  StartList& list = start_lists_[ingress];
  if (list.next == list.starts.size()) return;
  const FlowStart& next = list.starts[list.next++];
  schedule_arrival(*next.flow, ingress, next.base, 0);
}

void Scenario::arrive(const FlowSpec& flow, SwitchId ingress, std::uint64_t base,
                      std::size_t p) {
  // Packet p + 1 sorts after packet p (packet_gap >= 0, larger number), and
  // the ingress's next start after this one (see run()), so scheduling them
  // now keeps the up-front order.
  if (p == 0) start_next_flow(ingress);
  if (p + 1 < flow.packets) schedule_arrival(flow, ingress, base, p + 1);
  Packet pkt;
  pkt.flow = flow.id;
  pkt.header = flow.header;
  pkt.created = flow.start + static_cast<double>(p) * flow.packet_gap;
  pkt.ingress = ingress;
  pkt.is_first_of_flow = (p == 0);
  stats_.tracer.on_injected(pkt);
  process(ingress, pkt);
}

void Scenario::dispose(const Packet& pkt, bool delivered, DropReason reason) {
  const double now = net_.engine().now();
  if (delivered) {
    stats_.tracer.on_delivered(pkt, now);
  } else {
    stats_.tracer.on_dropped(pkt, reason);
  }
  // Flow setup completes when the first packet reaches its policy-mandated
  // disposition (delivery or an explicit policy drop). Losses from overload
  // or failures are not completions.
  if (pkt.is_first_of_flow && (delivered || reason == DropReason::kPolicyDrop)) {
    stats_.setup_completions.record(now);
  }
}

void Scenario::process(SwitchId at, Packet pkt) {
  Switch& sw = net_.sw(at);
  if (sw.failed()) {
    dispose(pkt, false, DropReason::kSwitchFailed);
    return;
  }
  // In-flight tunnels bypass the policy tables at transit switches.
  if (pkt.encap_target.has_value()) {
    if (*pkt.encap_target == at) {
      handle_authority(at, pkt);
    } else {
      forward_hop(at, *pkt.encap_target, pkt);
    }
    return;
  }
  if (pkt.tunnel_egress.has_value()) {
    if (*pkt.tunnel_egress == at) {
      deliver(at, pkt);
    } else {
      forward_hop(at, *pkt.tunnel_egress, pkt);
    }
    return;
  }
  const double now = net_.engine().now();
  const FlowEntry* entry = sw.table().lookup(pkt.header, now, pkt.bytes);
  const bool cached = entry != nullptr && entry->band == Band::kCache;
  // An authority switch's bindings are its authority band, between its cache
  // and partition bands: after a cache miss they match before the partition
  // rule the lookup fell to (partition counters are never reported).
  AuthorityNode* node = cached || difane_ == nullptr ? nullptr : difane_->node_at(at);
  const Rule* local = node != nullptr ? node->match_local(pkt.header, pkt.bytes) : nullptr;
  if (entry == nullptr && local == nullptr) {
    if (params_.mode == Mode::kNox && at == pkt.ingress) {
      punt_to_controller(pkt);
    } else {
      dispose(pkt, false, DropReason::kNoRule);
    }
    return;
  }
  const Rule& rule = local != nullptr ? *local : entry->rule;
  // Ingress-side cache accounting (first lookup of the packet only).
  if (at == pkt.ingress && pkt.hops == 0 && !pkt.was_redirected) {
    if (cached) {
      ++stats_.ingress_cache_hits;
    } else if (local != nullptr) {
      ++stats_.ingress_local_hits;
    }
  }
  if (params_.verify_cache_hits && cached && rule.action.type != ActionType::kEncap) {
    const Rule* want = policy_.match(pkt.header);
    if (want != nullptr && rule.origin_or_self() != want->id) {
      ++stats_.cache_hit_mismatches;
      if (stats_.cache_hit_mismatches <= 5) {
        log_warn("cache-hit mismatch at switch ", at, ": hit ", rule.to_string(),
                 " (origin ", rule.origin_or_self(), ") want ", want->to_string());
      }
    }
  }
  // Telemetry: a terminal match (the rule decides the packet's fate here —
  // encap means the authority decides, and is sampled there instead). This
  // is the packet's only table lookup, so it is offered exactly once.
  if (at < telemetry_.size() && telemetry_[at] != nullptr && (cached || local != nullptr) &&
      rule.action.type != ActionType::kEncap) {
    telemetry_[at]->sample(pkt.header, rule.id, now, pkt.bytes);
  }
  apply_action(at, pkt, rule.action);
}

void Scenario::handle_authority(SwitchId at, Packet pkt) {
  const double now = net_.engine().now();
  auto queue_it = authority_queues_.find(at);
  expects(queue_it != authority_queues_.end(),
          "handle_authority: redirect reached a non-authority switch");
  const auto completion = queue_it->second.admit(now);
  if (!completion.has_value()) {
    ++stats_.queue_rejects;
    dispose(pkt, false, DropReason::kControllerQueue);
    return;
  }
  auto resolve = [this, at, pkt]() mutable {
    // A switch that failed while the packet waited in its queue resolves
    // nothing, and so sends no install that would pass for liveness.
    if (net_.sw(at).failed()) {
      dispose(pkt, false, DropReason::kSwitchFailed);
      return;
    }
    AuthorityNode* node = difane_->node_at(at);
    ensures(node != nullptr, "authority switch lost its control node");
    pkt.encap_target.reset();
    // Credits the winning bound rule's counters (transparency).
    auto result = node->handle(pkt.header, pkt.bytes);
    if (!result.has_value()) {
      // Misdirected (e.g. stale partition rules during failover). With live
      // migration on, a redirect that chased a partition to a switch that
      // retired it re-encaps to the current owner instead of dropping — the
      // "zero lost packets attributable to migration" contract; the TTL
      // bounds the chase. With migration off the packet is dropped.
      if (params_.migration.enabled) {
        const Partition& partition = difane_->plan().find(pkt.header);
        const SwitchId owner = difane_->replica_for(partition, at);
        if (owner != at && !net_.sw(owner).failed()) {
          apply_action(at, pkt, Action::encap(owner));
          return;
        }
      }
      dispose(pkt, false, DropReason::kUnreachable);
      return;
    }
    // A redirect landing at the *old* home of an in-flight migration is the
    // drain traffic make-before-break exists for; count it (the old copy
    // still resolves correctly — that is the point).
    if (!migrating_old_home_.empty()) {
      const auto mig = migrating_old_home_.find(result->partition);
      if (mig != migrating_old_home_.end() && mig->second == at) {
        ++stats_.migration_inflight_redirects;
      }
    }
    // Elephant-aware install policy: feed this miss into the authority's
    // heavy-hitter summary, then classify on the *guaranteed* (lower-bound)
    // count so sketch overestimation never promotes a mouse.
    double idle_timeout = params_.timings.cache_idle_timeout;
    bool bypass = false;
    bool promoted = false;
    const bool installable = !result->install.rules.empty() && pkt.ingress != at;
    if (params_.elephants.enabled) {
      if (params_.elephants.probation_idle_timeout > 0.0) {
        idle_timeout = params_.elephants.probation_idle_timeout;
      }
      auto& tracker = elephant_trackers_.find(at)->second;
      const std::uint64_t before = tracker.guaranteed(pkt.header);
      tracker.offer(pkt.header);
      switch (classify_install(params_.elephants,
                               tracker.guaranteed(pkt.header))) {
        case InstallClass::kElephant:
          idle_timeout = params_.elephants.idle_timeout;
          if (before < params_.elephants.threshold) {
            ++stats_.elephant_promotions;
            promoted = true;
          }
          if (installable) ++stats_.elephant_installs;
          break;
        case InstallClass::kBypass:
          bypass = true;
          if (installable) ++stats_.mice_bypassed;
          break;
        case InstallClass::kNormal:
          break;
      }
    }
    if (installable && !bypass) {
      install_cache(pkt.ingress, at, result->install, idle_timeout);
      // Proactive install: a freshly promoted elephant's flows arrive at
      // many ingresses; pre-seed every other edge now so each one's
      // cold-start miss becomes a hit. These entries would have been
      // installed on first contact anyway — this moves the install earlier,
      // it does not grow the steady-state footprint.
      if (promoted && params_.elephants.proactive) {
        for (const SwitchId edge : topo_.edge) {
          if (edge == pkt.ingress) continue;
          ++stats_.elephant_proactive;
          install_cache(edge, at, result->install, idle_timeout);
        }
      }
    }
    if (result->winner == nullptr) {
      dispose(pkt, false, DropReason::kNoRule);
      return;
    }
    // Telemetry: an authority resolution is this packet's terminal match.
    if (at < telemetry_.size() && telemetry_[at] != nullptr) {
      telemetry_[at]->sample(pkt.header, result->winner->id,
                             net_.engine().now(), pkt.bytes);
    }
    apply_action(at, pkt, result->winner->action);
  };
  static_assert(Engine::Handler::fits_inline<decltype(resolve)>,
                "authority-resolution capture must fit the engine's inline "
                "handler storage (raise Engine::kInlineHandlerBytes)");
  net_.engine().at(*completion, std::move(resolve));
}

void Scenario::install_cache(SwitchId ingress, SwitchId from_authority,
                             const CacheInstall& install, double idle_timeout) {
  std::vector<FlowMod> mods =
      install_flow_mods(install, params_.edge_cache_capacity, idle_timeout);
  if (mods.empty()) return;
  ++stats_.cache_installs;
  stats_.cache_rules_installed += mods.size();
  // An install push is liveness evidence for the sending authority: tell the
  // heartbeat monitor once the message would have reached the ingress, so a
  // run of lost beats from a switch that is visibly serving traffic does not
  // escalate into a spurious failover.
  if (heartbeat_ != nullptr) {
    net_.engine().after(params_.timings.cache_install_latency,
                        [this, from_authority]() {
                          heartbeat_->note_message_from(from_authority);
                        });
  }
  // Protectors first: until the lowest-priority member lands, a partially
  // installed group only over-redirects, never mis-forwards.
  for (FlowMod& mod : mods) install_channels_[ingress]->send(std::move(mod));
}

void Scenario::punt_to_controller(Packet pkt) {
  const double arrival = net_.engine().now() + kNoxOneWayLatency;
  auto punt = [this, pkt]() mutable {
    const auto decision = nox_->handle_punt(net_.engine().now(), pkt.header);
    if (!decision.has_value()) {
      ++stats_.queue_rejects;
      dispose(pkt, false, DropReason::kControllerQueue);
      return;
    }
    auto resume = [this, pkt, decision]() mutable {
      if (decision->winner == nullptr) {
        dispose(pkt, false, DropReason::kNoRule);
        return;
      }
      const Action action = decision->winner->action;
      // The microflow install rides the control channel back to the ingress
      // (one-way latency + flow-mod apply cost, in order)...
      if (decision->cache_rule.has_value()) {
        FlowMod mod;
        mod.rule = *decision->cache_rule;
        mod.idle_timeout = params_.timings.cache_idle_timeout;
        install_channels_[pkt.ingress]->send(mod);
      }
      // ...while the packet-out resumes the packet at the ingress switch.
      const double out = net_.engine().now() + kNoxOneWayLatency;
      net_.engine().at(out, [this, pkt, action]() mutable {
        Switch& sw = net_.sw(pkt.ingress);
        if (sw.failed()) {
          dispose(pkt, false, DropReason::kSwitchFailed);
          return;
        }
        apply_action(pkt.ingress, pkt, action);
      });
    };
    static_assert(Engine::Handler::fits_inline<decltype(resume)>,
                  "NOX resume capture (packet + controller decision) must fit "
                  "the engine's inline handler storage — it is the largest "
                  "event capture in core/system.cpp");
    net_.engine().at(decision->ready_time, std::move(resume));
  };
  net_.engine().at(arrival, std::move(punt));
}

void Scenario::deliver(SwitchId at, Packet pkt) {
  if (pkt.is_first_of_flow) {
    const auto shortest = net_.distance(pkt.ingress, at);
    const double base = shortest == 0 ? 1.0 : static_cast<double>(shortest);
    stats_.stretch.add(static_cast<double>(std::max<std::uint32_t>(pkt.hops, 1)) / base);
  }
  dispose(pkt, true, DropReason::kPolicyDrop /*unused for deliveries*/);
}

void Scenario::apply_action(SwitchId at, Packet pkt, const Action& action) {
  switch (action.type) {
    case ActionType::kDrop:
      dispose(pkt, false, DropReason::kPolicyDrop);
      return;
    case ActionType::kForward: {
      const SwitchId egress = egress_switch(action.arg);
      if (at == egress) {
        deliver(at, pkt);
        return;
      }
      pkt.tunnel_egress = egress;
      forward_hop(at, egress, pkt);
      return;
    }
    case ActionType::kEncap: {
      const SwitchId target = action.arg;
      pkt.encap_target = target;
      if (!pkt.was_redirected) {
        pkt.was_redirected = true;
        ++stats_.redirects;
      }
      if (at == target) {
        handle_authority(at, pkt);
        return;
      }
      forward_hop(at, target, pkt);
      return;
    }
    case ActionType::kToController:
      punt_to_controller(pkt);
      return;
  }
}

void Scenario::forward_hop(SwitchId at, SwitchId toward, Packet pkt) {
  if (pkt.hops >= kTtlHops) {
    dispose(pkt, false, DropReason::kTtlExceeded);
    return;
  }
  const SwitchId nh = net_.next_hop(at, toward);
  if (nh == kInvalidSwitch) {
    dispose(pkt, false, DropReason::kUnreachable);
    return;
  }
  Link* link = net_.link(at, nh);
  ensures(link != nullptr, "forward_hop: next hop without a link");
  if (!link->up()) {
    // Raced a link flap: routes recompute around a downed link, but a packet
    // already committed to this hop has nowhere to go.
    dispose(pkt, false, DropReason::kUnreachable);
    return;
  }
  const double now = net_.engine().now();
  const double delivery = link->send(now, pkt.bytes) + params_.timings.switch_proc;
  pkt.hops += 1;
  auto hop = [this, nh, pkt]() { process(nh, pkt); };
  static_assert(Engine::Handler::fits_inline<decltype(hop)>,
                "per-hop capture must fit the engine's inline handler storage");
  net_.engine().at(delivery, std::move(hop));
}

// ---- live partition migration --------------------------------------------
// Make-before-break over the reliable control channel. The control messages
// ride the per-switch channels, so installs and flips pay latency, loss, and
// retransmission like any other control traffic.

void Scenario::request_rehome(std::size_t partition_index, AuthorityIndex dest,
                              SimTime when) {
  expects(params_.migration.enabled, "request_rehome: enable params.migration");
  expects(difane_ != nullptr, "request_rehome: DIFANE mode only");
  expects(partition_index < difane_->plan().partitions().size(),
          "request_rehome: no such partition");
  expects(dest < difane_->authority_switches().size(),
          "request_rehome: no such authority index");
  net_.engine().at(when, [this, partition_index, dest]() {
    start_migration(partition_index, dest);
  });
}

void Scenario::start_migration(std::size_t index, AuthorityIndex dest) {
  const Partition& partition = difane_->plan().partitions().at(index);
  if (partition.primary == dest) return;  // already home
  // One move per partition at a time, at most wave_size concurrent moves;
  // excess requests queue FIFO and drain as slots free up.
  if (migrating_old_home_.count(partition.id) != 0 ||
      active_migrations_.size() >= params_.migration.wave_size) {
    migration_queue_.emplace_back(index, dest);
    return;
  }
  ++stats_.migrations_started;
  if (net_.sw(difane_->authority_switch(dest)).failed()) {
    ++stats_.migrations_aborted;  // nothing installed yet: trivially aborted
    return;
  }
  const auto old_serving = difane_->serving_set(partition);
  const auto new_serving = difane_->serving_set(dest, partition.primary);
  const std::size_t slot = migrations_.size();
  migrations_.emplace_back();
  LiveMigration& m = migrations_.back();
  m.index = index;
  m.from = partition.primary;
  m.to = dest;
  m.rules = partition.rules.rules().size();
  for (const auto member : new_serving) {
    if (std::find(old_serving.begin(), old_serving.end(), member) ==
        old_serving.end()) {
      m.installs.push_back(member);
    }
  }
  active_migrations_.push_back(slot);
  migrating_old_home_[partition.id] = difane_->authority_switch(m.from);
  // "Make" phase: stock every new serving-set member before any flip. The
  // extra copies are the double-occupancy cost make-before-break pays.
  stats_.migration_rules_moved += m.rules * m.installs.size();
  migration_double_now_ +=
      static_cast<std::int64_t>(m.rules * m.installs.size());
  stats_.migration_double_peak =
      std::max(stats_.migration_double_peak,
               static_cast<std::uint64_t>(migration_double_now_));
  log_info("migration: partition ", index, " authority ", m.from, " -> ",
           m.to, " (", m.rules, " rules, ", m.installs.size(),
           " installs) at t=", net_.engine().now());
  if (m.installs.empty()) {
    // Destination already stocked (it was a replica/backup): flip directly.
    migration_flip(slot);
    return;
  }
  m.pending_acks = m.installs.size();
  PartitionInstall msg;
  msg.rules = m.rules;
  for (const auto member : m.installs) {
    difane_->bind_partition(index, member);
    send_migration(difane_->authority_switch(member), msg,
                   [this, slot](bool ok) { migration_install_acked(slot, ok); });
  }
}

void Scenario::migration_install_acked(std::size_t slot, bool ok) {
  LiveMigration& m = migrations_[slot];
  if (!ok) m.aborted = true;  // destination crashed or refused the stock
  expects(m.pending_acks > 0, "migration: spurious install ack");
  if (--m.pending_acks > 0) return;
  if (m.aborted) {
    migration_rollback(slot);
  } else {
    migration_flip(slot);
  }
}

void Scenario::migration_flip(std::size_t slot) {
  LiveMigration& m = migrations_[slot];
  if (m.aborted) {  // destination died between the last ack and this event
    migration_rollback(slot);
    return;
  }
  // "Break" phase: commit the re-home first (primary = dest, backup = old
  // home), so every flip rule computed below already answers with the new
  // owner; the old home stays bound and stocked as the new backup, which is
  // what a post-flip destination crash falls back to.
  difane_->commit_re_home(m.index, m.to);
  m.flipped = true;
  std::vector<SwitchId> targets;
  for (SwitchId id = 0; id < net_.switch_count(); ++id) {
    if (!net_.sw(id).failed()) targets.push_back(id);
  }
  m.pending_acks = targets.size();
  for (const SwitchId sw : targets) {
    PartitionFlip msg;
    msg.rule = difane_->partition_redirect_rule(m.index, sw);
    send_migration(sw, std::move(msg),
                   [this, slot](bool ok) { migration_flip_acked(slot, ok); });
  }
  if (targets.empty()) migration_flip_acked(slot, true);  // degenerate
}

void Scenario::migration_flip_acked(std::size_t slot, bool /*ok*/) {
  // A refused flip (the switch crashed while the message was in flight) is
  // deliberately not an abort: its stale partition rule still points at the
  // old home — which remains bound — and the restart path reinstalls fresh
  // partition rules anyway. Over-redirecting is safe; mis-forwarding never
  // happens.
  LiveMigration& m = migrations_[slot];
  if (m.pending_acks > 0 && --m.pending_acks > 0) return;
  // Every live switch now redirects to the new home; give in-flight
  // redirects a drain window before retiring the source copy.
  net_.engine().at(net_.engine().now() + params_.migration.drain_timeout,
                   [this, slot]() { migration_drain_done(slot); });
}

void Scenario::migration_drain_done(std::size_t slot) {
  if (migrations_[slot].aborted) {
    migration_rollback(slot);
  } else {
    migration_finish(slot);
  }
}

void Scenario::migration_finish(std::size_t slot) {
  LiveMigration& m = migrations_[slot];
  const Partition& partition = difane_->plan().partitions()[m.index];
  // Retire every bound member outside the current serving set (a failover
  // since the move started may have changed it): unbinding retires the
  // copy's counters; a live member gets the retire (fire-and-forget), and
  // its cached redirects within the region are purged, as a failover does.
  const auto serving = difane_->serving_set(partition);
  std::size_t purged = 0;
  for (AuthorityIndex a = 0; a < difane_->authority_switches().size(); ++a) {
    const SwitchId sw = difane_->authority_switch(a);
    if (!difane_->node_at(sw)->serves(partition.id) ||
        std::find(serving.begin(), serving.end(), a) != serving.end()) {
      continue;
    }
    difane_->unbind_partition(m.index, a);
    purged += difane_->purge_redirects_to(sw, partition.region);
    if (!net_.sw(sw).failed()) send_migration(sw, PartitionRetire{}, {});
  }
  // Cached shadow redirects that still chase the old home defeat the move
  // (and, once traffic shifts, the old home's copy is demoted to backup):
  // purge them so those flows re-resolve via the flipped partition band.
  purged += difane_->purge_redirects_to(migrating_old_home_.at(partition.id),
                                        partition.region);
  // A flip delayed past a failover can have put back a target the failover
  // had moved the partition away from; every flip is acked by now.
  difane_->install_partition_rule(m.index);
  migration_double_now_ -=
      static_cast<std::int64_t>(m.rules * m.installs.size());
  migrating_old_home_.erase(partition.id);
  ++stats_.migrations_completed;
  active_migrations_.erase(std::remove(active_migrations_.begin(),
                                       active_migrations_.end(), slot),
                           active_migrations_.end());
  log_info("migration: partition ", m.index, " completed at authority ", m.to,
           ", purged ", purged, " stale redirects, t=", net_.engine().now());
  pump_migration_queue();
}

void Scenario::migration_rollback(std::size_t slot) {
  LiveMigration& m = migrations_[slot];
  const Partition& partition = difane_->plan().partitions()[m.index];
  if (!m.flipped) {
    // Pre-flip abort: the plan never changed and no ingress was flipped, so
    // rolling back is unbinding the installs.
    for (const auto member : m.installs) difane_->unbind_partition(m.index, member);
  }
  // Post-flip abort (destination crashed after the re-home committed):
  // handle_authority_failure already failed the plan over to the backup,
  // which is the fully stocked old home, and refreshed the partition rules.
  // The destination's binding stays, consistent with any crashed replica,
  // so a later restart re-stocks it. Every flip the move sent is acked by
  // now, and one delayed past the failover can have put the crashed
  // destination back: rewrite the partition's redirect from the plan.
  difane_->install_partition_rule(m.index);
  migration_double_now_ -=
      static_cast<std::int64_t>(m.rules * m.installs.size());
  migrating_old_home_.erase(partition.id);
  ++stats_.migrations_aborted;
  active_migrations_.erase(std::remove(active_migrations_.begin(),
                                       active_migrations_.end(), slot),
                           active_migrations_.end());
  log_info("migration: partition ", m.index, " aborted (",
           m.flipped ? "post" : "pre", "-flip) at t=", net_.engine().now());
  pump_migration_queue();
}

void Scenario::migration_on_crash(SwitchId sw) {
  if (!params_.migration.enabled || active_migrations_.empty()) return;
  for (const std::size_t slot : active_migrations_) {
    LiveMigration& m = migrations_[slot];
    // A destination crash aborts the move: pre-flip the pending install acks
    // come back refused and the rollback unstocks; post-flip the failover
    // running right after this falls back to the old home (= plan backup).
    // A *source* crash needs nothing special — the destination copy is the
    // one the machinery is building, and failover handles the old home like
    // any other failed authority.
    if (difane_->authority_switch(m.to) == sw) m.aborted = true;
  }
}

void Scenario::migration_tick() {
  MigrationPlannerParams planner;
  planner.wave_size = params_.migration.wave_size;
  planner.imbalance_threshold = params_.migration.imbalance_threshold;
  const auto steps = plan_rebalance_wave(difane_->plan(), planner);
  for (const auto& step : steps) {
    start_migration(step.partition_index, step.to);
  }
  const double next = net_.engine().now() + params_.migration.check_interval;
  if (next <= params_.migration.horizon) {
    net_.engine().at(next, [this]() { migration_tick(); });
  }
}

void Scenario::pump_migration_queue() {
  if (migration_queue_.empty()) return;
  std::vector<std::pair<std::size_t, AuthorityIndex>> queued;
  queued.swap(migration_queue_);
  for (const auto& [index, dest] : queued) {
    if (active_migrations_.size() < params_.migration.wave_size) {
      start_migration(index, dest);  // may re-queue if the partition is busy
    } else {
      migration_queue_.emplace_back(index, dest);
    }
  }
}

void Scenario::send_migration(SwitchId sw, Request request,
                              std::function<void(bool)> on_ack) {
  // The reliable channel fires on_reply exactly once, so pending-ack counting
  // is exact even under loss and duplication.
  ControlEndpoint::ReplyHandler on_reply;
  if (on_ack) {
    on_reply = [on_ack = std::move(on_ack)](const Reply& reply) {
      bool ok = true;
      if (const auto* r = std::get_if<FlowModReply>(&reply)) ok = r->ok;
      on_ack(ok);
    };
  }
  install_channels_[sw]->send(std::move(request), std::move(on_reply));
}

void Scenario::schedule_authority_failure(SimTime when, SwitchId authority) {
  expects(difane_ != nullptr, "schedule_authority_failure: DIFANE mode only");
  net_.engine().at(when, [this, authority]() {
    net_.set_failed(authority, true);
    log_info("authority switch ", authority, " failed at t=", net_.engine().now());
  });
  // With heartbeat detection on, the monitor notices the silence itself;
  // otherwise the controller reacts failover_detect later (E9's detect_ms
  // rows in bench/BASELINE.json pin this path).
  if (params_.timings.heartbeat_interval <= 0.0) {
    net_.engine().at(when + params_.timings.failover_detect,
                     [this, authority]() { fail_over(authority); });
  }
}

}  // namespace difane
