// Flow-export records: the measurement product of the telemetry data plane.
// A switch running in measurement mode samples packets against its installed
// cache/authority entries (NetFlow-style packet sampling: each terminal match
// is sampled with probability p, so estimate = sampled / p) and periodically
// exports the per-flow deltas over the control channel to a collector. The
// record schema is versioned ("difane-flow-export-v1") and lives next to the
// bench-report schemas; both share the deterministic obs::Json value type, so
// a collector stream serializes to the same bytes on every run of the same
// (seed, params) — the replay-by-seed contract the property suite pins.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "flowspace/bitvec.hpp"
#include "obs/json.hpp"

namespace difane::obs {

inline constexpr const char* kFlowExportSchema = "difane-flow-export-v1";

// Why a record left the switch:
//  * kPeriodic — the regular export tick shipped the accumulated delta.
//  * kEvict    — the entry the counts were bound to left the cache (LRU
//    eviction, timeout, failover purge, cascade) and flush-on-evict closed
//    the record rather than dropping it.
//  * kFinal    — end-of-run drain of deltas that accrued after the last tick.
enum class ExportKind : std::uint8_t { kPeriodic = 0, kEvict = 1, kFinal = 2 };

const char* export_kind_name(ExportKind kind);

struct FlowExportRecord {
  BitVec header;                       // the flow key (all packets share it)
  std::uint64_t sampled_packets = 0;   // raw sampled counts; estimate = /p
  std::uint64_t sampled_bytes = 0;
  double first_seen = 0.0;             // sim time of the first sampled packet
  double last_seen = 0.0;
  std::uint64_t rule = 0;              // entry id the counts were bound to
  ExportKind kind = ExportKind::kPeriodic;

  Json to_json() const;
};

// One export message from one switch: a batch of records plus the liveness
// piggyback. An empty batch is a keepalive — it carries no counters but its
// beat_seq still proves the exporter alive, which is exactly what lets the
// heartbeat monitor tell "quiet but alive" from "partitioned".
struct FlowExportBatch {
  std::uint32_t exporter = 0;     // SwitchId of the exporting switch
  std::uint64_t seq = 0;          // per-exporter export sequence number
  std::uint64_t beat_seq = 0;     // heartbeat tick index at send time
  double sent_at = 0.0;           // sim time the batch left the switch
  double sample_prob = 1.0;       // p the records were sampled at
  std::vector<FlowExportRecord> records;

  bool keepalive() const { return records.empty(); }

  // {"schema": "difane-flow-export-v1", ...}
  Json to_json() const;
};

// The controller-side collector: aggregates per-flow totals across every
// exporter and keeps the canonical batch stream (arrival order) whose JSON
// dump is the byte-identity surface. Estimates divide by the sampling
// probability each batch declares.
class FlowCollector {
 public:
  struct FlowTotals {
    std::uint64_t sampled_packets = 0;
    std::uint64_t sampled_bytes = 0;
    double estimated_packets = 0.0;
    double estimated_bytes = 0.0;
    double first_seen = 0.0;
    double last_seen = 0.0;
  };

  void on_batch(const FlowExportBatch& batch);

  // Aggregated totals in first-appearance order (deterministic).
  const std::vector<std::pair<BitVec, FlowTotals>>& flows() const {
    return flows_;
  }
  const FlowTotals* find(const BitVec& header) const;

  std::uint64_t batches() const { return batches_; }
  std::uint64_t records() const { return records_; }
  std::uint64_t keepalives() const { return keepalives_; }
  std::uint64_t evict_records() const { return evict_records_; }
  std::uint64_t final_records() const { return final_records_; }

  // The canonical export stream: every batch as JSON, in arrival order.
  // dump() of this value is the byte-identical-replay surface.
  Json stream_json() const;
  std::string stream_dump() const { return stream_json().dump(); }

 private:
  std::vector<std::pair<BitVec, FlowTotals>> flows_;
  std::unordered_map<BitVec, std::size_t> index_;
  std::vector<FlowExportBatch> stream_;
  std::uint64_t batches_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t keepalives_ = 0;
  std::uint64_t evict_records_ = 0;
  std::uint64_t final_records_ = 0;
};

}  // namespace difane::obs
