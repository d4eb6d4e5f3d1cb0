// Scenario: the full simulated system. Wires a two-tier network, a policy,
// and either the DIFANE control plane (partition + authority switches +
// data-plane cache installs) or the NOX baseline (reactive controller), then
// drives generated traffic through the event engine and collects the
// measurements the paper's figures report.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "controller/nox.hpp"
#include "core/cache.hpp"
#include "core/difane_controller.hpp"
#include "core/telemetry.hpp"
#include "core/verifier.hpp"
#include "ctrlchan/channel.hpp"
#include "obs/flow_export.hpp"
#include "faults/heartbeat.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "netsim/tracer.hpp"
#include "obs/heavy_hitter.hpp"
#include "obs/report.hpp"
#include "workload/trafficgen.hpp"

namespace difane {

enum class Mode : std::uint8_t { kDifane = 0, kNox = 1 };

const char* mode_name(Mode mode);

enum class TopologyKind : std::uint8_t {
  kTwoTier = 0,  // edge switches under a core mesh; authorities at the core
  kLine = 1,     // a chain; every node is an edge, authorities evenly spaced
};

// The values no experiment varies are constants in core/system.cpp: the
// authority queue's backlog bound (kAuthorityBacklogMax) and the TTL
// (kTtlHops). Reliable control channels use ChannelReliability's default
// retransmission timeouts (ctrlchan/channel.hpp).
struct Timings {
  double switch_proc = 1e-6;         // per-hop forwarding overhead
  // Authority-switch miss path: ~800K flows/s per switch, the paper's
  // single-authority-switch throughput.
  double authority_service = 1.25e-6;
  double cache_install_latency = 2e-4;   // authority -> ingress install push
  double cache_idle_timeout = 10.0;      // cache-band idle timeout
  // Fixed-delay failure detection: the controller re-points partitions this
  // long after a scheduled failure. Used only while heartbeat detection is
  // off (heartbeat_interval == 0), which is the default.
  double failover_detect = 0.2;

  // Heartbeat-based failure detection (DIFANE mode). interval > 0 switches
  // the failover path from the fixed failover_detect delay to a
  // HeartbeatMonitor over the authority switches: a switch is declared down
  // after heartbeat_miss consecutive missing beats and recovered on the
  // first beat heard again. heartbeat_horizon bounds the monitor's tick
  // chain so the engine's queue drains; set it at or past the end of
  // injected traffic.
  // 0 => fixed-delay detection, the path E9's detect_ms rows in
  // bench/BASELINE.json pin.
  double heartbeat_interval = 0.0;
  std::uint32_t heartbeat_miss = 3;
  double heartbeat_horizon = 0.0;
};

// Live partition migration (DIFANE mode, reliable control channel only).
// When enabled, the controller can re-home partitions to new authority
// switches mid-run with make-before-break semantics: install the authority
// rules at the destination first, flip every switch's partition redirect,
// wait out a drain window for in-flight redirects, then retire the source
// copy and purge stale cached redirects. Migrations are driven explicitly
// (Scenario::request_rehome) or by a periodic rebalance loop
// (check_interval > 0) that moves partitions off overloaded authorities in
// bounded waves. Strict no-op when disabled: no events, no Rng draws, no
// stats deltas.
struct MigrationParams {
  bool enabled = false;
  // Max partitions in flight at once; further requests queue FIFO.
  std::uint32_t wave_size = 4;
  // Seconds between "every switch flipped" and retiring the source copy —
  // the window in-flight redirects get to land at the old home.
  double drain_timeout = 0.01;
  // Rebalance loop period; 0 disables the loop (explicit re-homes only).
  double check_interval = 0.0;
  // Rebalance loop stops scheduling ticks at this sim time (required > 0
  // when check_interval > 0, so the engine's queue drains).
  double horizon = 0.0;
  // Rebalance trigger: heaviest authority load / mean load above this.
  double imbalance_threshold = 1.5;
};

struct ScenarioParams {
  Mode mode = Mode::kDifane;
  TopologyKind topology = TopologyKind::kTwoTier;
  // Two-tier: edge/core counts. Line: edge_switches is the chain length and
  // core_switches how many of those nodes host authority state.
  std::size_t edge_switches = 4;
  std::size_t core_switches = 2;
  std::uint32_t authority_count = 1;   // DIFANE: first k core switches
  std::size_t edge_cache_capacity = 1000;
  PartitionerParams partitioner;
  CacheStrategy cache_strategy = CacheStrategy::kDependentSet;
  // Rules whose splice set exceeds this degrade to microflow caching
  // (bounding how much ingress TCAM one caching decision may consume).
  std::size_t max_splice_cost = 32;
  // Authority switches serving each partition (hot-partition replication).
  std::uint32_t authority_replicas = 1;
  Timings timings;
  NoxParams nox;
  LinkParams link;
  // Paranoid mode: cross-check every terminal ingress cache hit against the
  // reference policy and log the first few mismatches. Costs a policy match
  // per packet; for debugging and the transparency tests.
  bool verify_cache_hits = false;

  // Reliable delivery on every control channel: sequence numbers, acks,
  // timeout + capped exponential backoff retransmission (ChannelReliability's
  // default timeouts), duplicate suppression and in-order apply at the switch
  // agent. Required for transparency under message faults; off by default
  // (the clean wire needs none of it).
  bool reliable_ctrl = false;

  // What goes wrong during the run (default: nothing). An active plan also
  // arms the install-fault hook on every switch agent. Replayable by
  // (faults.seed, plan): rebuilding the scenario with identical params
  // reproduces a byte-identical report.
  FaultPlan faults;

  // Elephant-aware install policy (DIFANE mode with an installing cache
  // strategy only; validate() rejects other combinations). Each authority
  // switch runs a deterministic space-saving heavy-hitter summary over its
  // redirected-miss stream and classifies every would-be install as
  // elephant (longer idle timeout), normal, or mouse (bypassed entirely).
  ElephantParams elephants;

  // Flow measurement mode (DIFANE mode only; validate() rejects other
  // combinations). Every edge and authority switch samples its terminal
  // matches and periodically exports per-flow deltas over a reliable-capable
  // control channel to the scenario's FlowCollector; export batches carry
  // heartbeat sequence numbers, so with heartbeat detection on, telemetry
  // traffic doubles as liveness evidence. See core/telemetry.hpp.
  MeasurementParams measurement;

  // Live partition migration (DIFANE + reliable_ctrl only; validate()
  // rejects other combinations). See MigrationParams.
  MigrationParams migration;

  // When >= 0, ScenarioStats::cache_entries_final is sampled at this sim
  // time (an event scheduled by run()) instead of at the end of the
  // drained run. The drain tail of a long-lived flow can outlast every idle
  // timeout, so "live entries at the end of arrivals" is usually the
  // occupancy number an experiment wants.
  double occupancy_sample_at = -1.0;

  // threads must be 1 and burst 0 (validate() rejects anything else): every
  // scenario runs on one event engine, one packet per event. See
  // validate_execution.
  std::size_t threads = 1;
  std::size_t burst = 0;

  // Reject mis-wired parameter combinations before any topology or control
  // plane is built. Throws difane::ConfigError naming the offending field.
  // The Scenario constructor calls this; call it yourself to fail fast when
  // assembling params from external input (CLI flags, config files).
  void validate() const;
};

struct ScenarioStats {
  Tracer tracer;
  std::uint64_t ingress_cache_hits = 0;   // first lookup hit the cache band
  std::uint64_t ingress_local_hits = 0;   // ingress itself was the authority
  std::uint64_t redirects = 0;            // packets sent via an authority switch
  std::uint64_t queue_rejects = 0;        // authority/controller overload drops
  std::uint64_t cache_installs = 0;       // install messages sent to ingresses
  std::uint64_t cache_rules_installed = 0;
  std::uint64_t cache_hit_mismatches = 0; // verify_cache_hits violations
  // Elephant-aware install policy accounting (all zero with the policy off).
  std::uint64_t elephant_promotions = 0;  // flows that crossed the threshold
  std::uint64_t elephant_installs = 0;    // installs sent with the long timeout
  std::uint64_t elephant_proactive = 0;   // promotion-time pre-seeds of other edges
  std::uint64_t mice_bypassed = 0;        // installs skipped by mice bypass
  // Live (unexpired) cache-band entries across the edge at the end of run():
  // the TCAM footprint the run leaves behind. Computed by run().
  std::uint64_t cache_entries_final = 0;
  SampleSet stretch;                      // delivered first packets: hops / shortest
  RateMeter setup_completions;            // first-packet dispositions per second

  // Fault / robustness accounting, aggregated from the channels, the fault
  // injector, the heartbeat monitor and the flow tables at the end of a run.
  // All but guard_rejects are zero on a fault-free run without
  // reliable_ctrl; a fault-free run refuses an install whose guard the cache
  // evicted to make room for the group.
  std::uint64_t ctrl_transmissions = 0;   // channel transmissions incl. rexmit
  std::uint64_t ctrl_retransmits = 0;
  std::uint64_t ctrl_acks = 0;
  std::uint64_t ctrl_dup_requests = 0;    // duplicates the receivers suppressed
  std::uint64_t ctrl_reordered = 0;       // arrivals buffered for in-order apply
  std::uint64_t msgs_lost = 0;            // transmissions the injector dropped
  std::uint64_t msgs_duplicated = 0;
  std::uint64_t msgs_jittered = 0;
  std::uint64_t install_faults = 0;       // FlowMod applies failed by injection
  std::uint64_t guard_rejects = 0;        // cache installs the flow tables
                                          // refused for an absent guard
  std::uint64_t heartbeats_heard = 0;
  std::uint64_t heartbeats_missed = 0;
  std::uint64_t failovers_detected = 0;   // heartbeat failure declarations
  std::uint64_t recoveries_detected = 0;
  std::uint64_t spurious_failovers = 0;   // failovers declared for live switches
  std::uint64_t link_flaps = 0;           // link-down events executed
  std::uint64_t authority_crashes = 0;
  std::uint64_t authority_restarts = 0;

  // Telemetry data plane (all zero with measurement off). Switch side:
  // sampler and record-table accounting summed over every exporter. Export
  // side: what reached the collector, and the channel/piggyback activity the
  // export path generated (kept apart from ctrl_* so install-channel and
  // export-channel behaviour stay separately observable).
  std::uint64_t telemetry_sampled_packets = 0;
  std::uint64_t telemetry_sampled_bytes = 0;
  std::uint64_t telemetry_records = 0;        // distinct flow records created
  std::uint64_t telemetry_dropped_records = 0;
  std::uint64_t telemetry_dropped_packets = 0;
  std::uint64_t telemetry_overflow_drops = 0;
  std::uint64_t export_batches = 0;           // batches the collector received
  std::uint64_t export_records = 0;
  std::uint64_t export_keepalives = 0;        // empty (liveness-only) batches
  std::uint64_t export_evict_records = 0;     // eviction-flush closures
  std::uint64_t export_final_records = 0;     // end-of-run drain records
  std::uint64_t export_transmissions = 0;     // export-channel sends incl. rexmit
  std::uint64_t export_retransmits = 0;
  std::uint64_t export_piggyback_fresh = 0;   // batches accepted as liveness
  std::uint64_t export_piggyback_stale = 0;

  // Live partition migration (all zero with migration off). started counts
  // migrations entering the install phase; every one ends as completed or
  // aborted (destination crashed / install refused — the partition rolls
  // back to its old home, which was never retired).
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migrations_aborted = 0;
  std::uint64_t migration_rules_moved = 0;     // authority rules installed at dests
  std::uint64_t migration_double_peak = 0;     // peak extra authority-rule copies
  std::uint64_t migration_inflight_redirects = 0;  // packets that landed at the
                                                   // old home mid-migration
  double cache_hit_fraction() const {
    const auto total = ingress_cache_hits + ingress_local_hits + redirects;
    return total ? static_cast<double>(ingress_cache_hits + ingress_local_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }

  // Flatten every measurement into one structured report — the single
  // surface the exporters, benches, and tests consume, instead of each
  // caller poking tracer/stretch/setup_completions fields. Keys are stable
  // (see EXPERIMENTS.md "Reading BENCH_*.json"); values are derived purely
  // from the deterministic simulation, so the same seed produces a
  // byte-identical report modulo git_rev/wall_seconds.
  obs::MetricsReport snapshot(const std::string& experiment = "scenario") const;
};

class Scenario {
 public:
  Scenario(RuleTable policy, ScenarioParams params);

  // Inject every flow and run until all events drain. Each flow reserves one
  // engine number per packet, in vector order. Each ingress keeps its flows
  // in a start list, stably sorted by start, and schedules only the head:
  // packet 0 of a flow schedules its ingress's next start, and packet p
  // schedules p + 1. Events run as if all were scheduled up front, while the
  // engine holds only the events in flight plus one start per ingress.
  // Events and lists point into `flows`; run() drains the engine and
  // releases the lists before it returns. Before scheduling anything, a flow
  // whose start is non-finite or before the engine's clock, or whose
  // packet_gap is negative or non-finite, is a contract_violation naming its
  // id.
  const ScenarioStats& run(const std::vector<FlowSpec>& flows);

  // Schedule an authority switch failure at sim time `when` (DIFANE mode).
  // With heartbeat detection off, the controller re-points partitions
  // `failover_detect` later; with it on, the monitor detects the silence.
  void schedule_authority_failure(SimTime when, SwitchId authority);

  // Request a live re-home of partition `partition_index` to authority
  // `dest` at sim time `when` (requires params.migration.enabled). The move
  // runs make-before-break over the control channel; if more than
  // migration.wave_size moves are in flight, the request queues FIFO.
  // Re-homing a partition to its current primary is a no-op.
  void request_rehome(std::size_t partition_index, AuthorityIndex dest,
                      SimTime when);

  // Post-recovery sweep over the *actual* switch tables at end_clock(): the
  // exact verify_installed_state at every edge switch (black holes, dangling
  // redirects, unreachable authorities, wrong actions). Call after run() — a
  // chaos run only counts as converged when this is clean. Read-only: it
  // leaves every switch and authority node as it found them. DIFANE mode
  // only. Both arguments are ignored; perfbench/main.cpp still passes them.
  VerifyReport verify_installed(std::size_t = 0, std::uint64_t = 0);

  // Sim time of the latest executed event; after run(), the end-of-run
  // clock.
  SimTime end_clock() { return net_.engine().now(); }

  Network& net() { return net_; }
  const RuleTable& policy() const { return policy_; }
  const ScenarioStats& stats() const { return stats_; }
  const PartitionPlan* plan() const {
    return difane_ ? &difane_->plan() : nullptr;
  }
  DifaneController* difane() { return difane_.get(); }

  SwitchId ingress_switch(std::uint32_t index) const {
    return topo_.edge[index % topo_.edge.size()];
  }
  SwitchId egress_switch(std::uint32_t egress_index) const {
    return topo_.edge[egress_index % topo_.edge.size()];
  }

  // Per-policy-rule counters aggregated across every switch (installed
  // copies + retired entries). With no overload or failures, each delivered
  // or policy-dropped packet is counted exactly once against the policy rule
  // that owned it — the OpenFlow-transparency property.
  std::vector<FlowStatsEntry> query_flow_stats() const;

  // Measurement mode: the controller-side collector, populated by run().
  // Its stream_dump() is the byte-identical-by-(seed, params) surface.
  const obs::FlowCollector& collector() const { return collector_; }

  // Per-switch telemetry state (nullptr with measurement off or for
  // non-exporting switches); exposed for the tests' conservation checks.
  const FlowTelemetry* telemetry(SwitchId sw) const {
    return sw < telemetry_.size() ? telemetry_[sw].get() : nullptr;
  }

 private:
  // ---- live partition migration. Control messages ride the per-switch
  // channels, so installs/flips pay latency, loss, and retransmission like
  // any other control traffic.
  struct LiveMigration {
    std::size_t index = 0;          // partition index in the plan
    AuthorityIndex from = 0;        // old primary
    AuthorityIndex to = 0;          // destination
    std::vector<AuthorityIndex> installs;  // new-serving-set members to stock
    std::size_t pending_acks = 0;   // outstanding install or flip acks
    std::size_t rules = 0;          // authority-rule copies per serving member
    bool aborted = false;           // destination crashed / refused installs
    bool flipped = false;           // re-home committed to the plan (selects
                                    // the rollback variant: pre-flip undoes
                                    // the installs, post-flip rides failover)
  };
  void start_migration(std::size_t index, AuthorityIndex dest);
  void migration_install_acked(std::size_t slot, bool ok);
  void migration_flip(std::size_t slot);
  void migration_flip_acked(std::size_t slot, bool ok);
  void migration_drain_done(std::size_t slot);
  void migration_finish(std::size_t slot);
  void migration_rollback(std::size_t slot);
  void migration_on_crash(SwitchId sw);   // called before failover handling
  void migration_tick();                  // periodic rebalance loop
  void pump_migration_queue();
  void send_migration(SwitchId sw, Request request,
                      std::function<void(bool)> on_ack);

  void schedule_faults();
  // The controller's reaction to a detected authority failure: abort a
  // migration into `sw`, then fail its partitions over.
  void fail_over(SwitchId sw);
  void crash_authority(SwitchId sw);
  void restart_authority(SwitchId sw);
  void collect_fault_stats();
  void setup_measurement(const ControlChannel::Reliability& reliability);
  void export_tick(SwitchId sw);
  void send_export(SwitchId sw, std::vector<obs::FlowExportRecord> records);
  void on_cache_removed(SwitchId sw, const FlowEntry& entry);
  void finalize_measurement();
  // Packet `p` of `flow` arrives on number `base + p` of its ingress engine.
  void schedule_arrival(const FlowSpec& flow, SwitchId ingress, std::uint64_t base,
                        std::size_t p);
  // Schedule packet 0 of the next flow in `ingress`'s start list, if any.
  void start_next_flow(SwitchId ingress);
  void arrive(const FlowSpec& flow, SwitchId ingress, std::uint64_t base,
              std::size_t p);
  void process(SwitchId at, Packet pkt);
  void handle_authority(SwitchId at, Packet pkt);
  void punt_to_controller(Packet pkt);
  void apply_action(SwitchId at, Packet pkt, const Action& action);
  void deliver(SwitchId at, Packet pkt);
  void forward_hop(SwitchId at, SwitchId toward_neighbor_of, Packet pkt);
  void dispose(const Packet& pkt, bool delivered, DropReason reason);
  void install_cache(SwitchId ingress, SwitchId from_authority,
                     const CacheInstall& install, double idle_timeout);
  // Live (unexpired) cache-band entries across the edge at sim time `now`.
  // Read-only walk — lookup() would sweep lazily-expired slots and mutate.
  std::uint64_t live_cache_entries(double now) const;

  RuleTable policy_;
  ScenarioParams params_;
  Network net_;
  TwoTierTopology topo_;
  std::unique_ptr<DifaneController> difane_;
  std::unique_ptr<NoxControlPlane> nox_;
  std::unordered_map<SwitchId, ServiceQueue> authority_queues_;
  // Heavy-hitter summary per authority switch (elephants.enabled only),
  // touched only from that authority's resolve handler. The summary is
  // control state on the switch: crash_authority() resets it, so a restarted
  // authority must re-detect its elephants.
  std::unordered_map<SwitchId, obs::SpaceSaving<BitVec>> elephant_trackers_;
  // One control agent per switch; installs ride ControlChannels so they pay
  // propagation latency plus the switch's flow-mod apply cost, in order.
  std::vector<std::unique_ptr<SwitchAgent>> agents_;
  std::vector<std::unique_ptr<ControlChannel>> install_channels_;
  // Fault machinery, present only when params_.faults.active() or heartbeat
  // detection is on; nullptr otherwise, so a fault-free run draws no fault
  // randomness (the fault-free bench/BASELINE.json rows pin that path).
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<HeartbeatMonitor> heartbeat_;
  // Measurement mode (params_.measurement.enabled only; all empty/null
  // otherwise, as Telemetry.MeasurementOffLeavesNoTrace pins).
  // Indexed by SwitchId; only exporters (edge + authorities) are non-null.
  // Each exporter gets its own export channel + endpoint pair so batches pay
  // latency/reliability like any control message; finalize_measurement()
  // feeds the endpoint buffers to the collector in exporter order, which
  // makes the merged stream deterministic.
  std::vector<std::unique_ptr<FlowTelemetry>> telemetry_;
  std::vector<std::unique_ptr<CollectorEndpoint>> export_endpoints_;
  std::vector<std::unique_ptr<ControlChannel>> export_channels_;
  std::vector<SwitchId> exporters_;       // export order: edge, then authorities
  std::vector<std::uint64_t> export_seq_; // per-exporter batch sequence
  obs::FlowCollector collector_;
  // Live-migration state (params_.migration.enabled only; all empty
  // otherwise, which E7's *_migration_off rows in bench/BASELINE.json pin).
  // Slots are stable for the run so in-flight ack callbacks can address
  // their migration by index.
  std::vector<LiveMigration> migrations_;
  std::vector<std::size_t> active_migrations_;           // slots in flight
  std::vector<std::pair<std::size_t, AuthorityIndex>> migration_queue_;
  // PartitionId -> old home switch while a migration is in flight; read on
  // the authority-resolution path (cheap empty() check first) to count
  // in-flight redirects that landed at the old home.
  std::unordered_map<PartitionId, SwitchId> migrating_old_home_;
  std::int64_t migration_double_now_ = 0;   // live extra authority-rule copies
  ScenarioStats stats_;
  // Flows not yet started, per ingress SwitchId (during run() only).
  struct FlowStart {
    const FlowSpec* flow;
    std::uint64_t base;  // the flow's first reserved engine number
  };
  struct StartList {
    std::vector<FlowStart> starts;  // stably sorted by start
    std::size_t next = 0;           // first start not yet scheduled
  };
  std::vector<StartList> start_lists_;
};

}  // namespace difane
