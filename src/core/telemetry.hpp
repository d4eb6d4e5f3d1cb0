// Telemetry data plane: NetFlow-style flow measurement built out of the
// cache/authority entries DIFANE already installs. Each measuring switch
// runs a FlowTelemetry: every terminal match point offers the packet, one
// seeded Bernoulli draw decides whether it is sampled (estimate = count / p),
// and sampled counts accumulate per flow header until the periodic export
// tick drains them into a FlowExportBatch bound for the controller-side
// collector. Eviction-flush semantics close the ROADMAP's "does an evicted
// elephant lose its counts?" question: when the entry a flow's counts are
// bound to leaves the table, the pending delta is moved into a closed
// (kEvict) record that rides the next export instead of vanishing.
//
// Everything is deterministic by (seed, params): the sampler owns a private
// Rng (derived from MeasurementParams::seed and the switch id), draws exactly
// once per offered packet, and export batches are assembled in flow-creation
// order — the property suite replays the whole export stream byte-for-byte.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "ctrlchan/messages.hpp"
#include "obs/flow_export.hpp"
#include "util/rng.hpp"

namespace difane {

// The one validated knob block for measurement mode (ScenarioParams holds it
// next to the heartbeat/elephant groups; ScenarioParams::validate() rejects
// nonsense with field-named ConfigError). The export channel's one-way
// latency is kExportLatency in core/system.cpp.
struct MeasurementParams {
  bool enabled = false;
  // Per-packet sampling probability in (0, 1]. 1.0 counts every packet.
  double sample_prob = 1.0;
  // Seconds between export ticks at each measuring switch.
  double export_interval = 0.05;
  // No export ticks are scheduled past this sim time (the engine's queue
  // must drain; set it at or past the end of injected traffic). Pending
  // deltas that accrue after the last tick leave in the end-of-run drain.
  double export_horizon = 0.0;
  // Per-switch bound on tracked flow records; sampled packets of flows past
  // the bound are counted as overflow drops (NetFlow cache exhaustion).
  std::size_t record_capacity = 65536;
  // Flush pending counts as kEvict records when the entry they are bound to
  // leaves the cache. Off => those counts are dropped (and counted), which
  // is exactly the fidelity loss bench_e12 measures.
  bool flush_on_evict = true;
  // Master seed for the per-switch sampler streams.
  std::uint64_t seed = 1;
};

// Per-switch measurement state: the sampler, the per-flow pending deltas,
// and the evict-flushed records waiting for the next export.
class FlowTelemetry {
 public:
  FlowTelemetry(const MeasurementParams& params, std::uint64_t rng_seed)
      : params_(params), rng_(rng_seed) {}

  // Offer one packet that reached a terminal match against `rule`. Draws the
  // sampler exactly once; on success the delta accrues against the packet's
  // flow header. Returns true iff sampled.
  bool sample(const BitVec& header, RuleId rule, double now, std::uint64_t bytes);

  // The entry carrying `rule` left the cache. With export_counts, pending
  // deltas bound to it close into kEvict records that ride the next drain;
  // without (flush_on_evict off, or the switch is crashing and its state is
  // lost), they are dropped and counted. Safe to call from the FlowTable
  // removal listener: touches no table and sends nothing.
  void on_rule_removed(RuleId rule, double now, bool export_counts);

  // Crash: all pending and evict-closed state is lost.
  void drop_all();

  // Move everything currently exportable out: evict-closed records first
  // (oldest first), then nonzero pending deltas in flow-creation order as
  // `kind`. Leaves pending counters zeroed; flow records stay (a live flow
  // keeps accumulating into the same slot).
  std::vector<obs::FlowExportRecord> drain(obs::ExportKind kind);

  bool idle() const;  // nothing exportable right now

  // Conservation surface (the chaos suite asserts sampled == exported +
  // dropped + still-pending at every quiescent point).
  std::uint64_t sampled_packets() const { return sampled_packets_; }
  std::uint64_t sampled_bytes() const { return sampled_bytes_; }
  std::uint64_t flow_records() const { return flow_records_; }
  std::uint64_t overflow_drops() const { return overflow_drops_; }
  std::uint64_t dropped_records() const { return dropped_records_; }
  std::uint64_t dropped_packets() const { return dropped_packets_; }

 private:
  struct PendingRecord {
    BitVec header;
    RuleId rule = kInvalidRuleId;
    std::uint64_t packets = 0;  // pending (not yet exported) delta
    std::uint64_t bytes = 0;
    double first_seen = 0.0;
    double last_seen = 0.0;
  };

  MeasurementParams params_;
  Rng rng_;
  std::vector<PendingRecord> pending_;               // flow-creation order
  std::unordered_map<BitVec, std::size_t> index_;    // header -> pending_ slot
  // rule id -> pending_ slots whose counts are (or were) bound to it. Slots
  // rebind lazily when a flow starts hitting a different rule; stale entries
  // are skipped by re-checking PendingRecord::rule at flush time.
  std::unordered_map<RuleId, std::vector<std::size_t>> by_rule_;
  std::vector<obs::FlowExportRecord> closed_;        // evict-flushed, unsent

  std::uint64_t sampled_packets_ = 0;
  std::uint64_t sampled_bytes_ = 0;
  std::uint64_t flow_records_ = 0;
  std::uint64_t overflow_drops_ = 0;
  std::uint64_t dropped_records_ = 0;
  std::uint64_t dropped_packets_ = 0;
};

// Controller-side endpoint of an export channel: the ControlEndpoint that
// receives FlowExport requests, buffers the batches (the Scenario feeds them
// to the FlowCollector in deterministic exporter-major order at end of run),
// fires an optional hook per batch (the heartbeat piggyback), and acks so
// the reliable channel stops retransmitting.
class CollectorEndpoint : public ControlEndpoint {
 public:
  using BatchHook = std::function<void(const obs::FlowExportBatch&)>;

  explicit CollectorEndpoint(BatchHook on_batch = {})
      : on_batch_(std::move(on_batch)) {}

  void deliver(const Request& request, ReplyHandler on_reply) override;

  std::vector<obs::FlowExportBatch> take() { return std::move(received_); }

 private:
  BatchHook on_batch_;
  std::vector<obs::FlowExportBatch> received_;
};

}  // namespace difane
