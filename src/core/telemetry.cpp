#include "core/telemetry.hpp"

#include "util/contract.hpp"

namespace difane {

bool FlowTelemetry::sample(const BitVec& header, RuleId rule, double now,
                           std::uint64_t bytes) {
  // Exactly one draw per offered packet, sampled or not, so the stream of
  // draws — and with it every downstream export — is a pure function of
  // (seed, offered-packet order).
  if (!rng_.bernoulli(params_.sample_prob)) return false;
  const auto it = index_.find(header);
  std::size_t slot;
  if (it != index_.end()) {
    slot = it->second;
  } else {
    if (pending_.size() >= params_.record_capacity) {
      // NetFlow cache exhaustion: the packet was sampled but there is no
      // record to bind it to. Count it as dropped so conservation still
      // balances (sampled == exported + dropped + pending).
      ++overflow_drops_;
      ++sampled_packets_;
      sampled_bytes_ += bytes;
      ++dropped_packets_;
      return true;
    }
    slot = pending_.size();
    PendingRecord rec;
    rec.header = header;
    rec.first_seen = now;
    pending_.push_back(rec);
    index_.emplace(header, slot);
    ++flow_records_;
  }
  PendingRecord& rec = pending_[slot];
  if (rec.rule != rule) {
    // Lazy rebind: the flow is now hitting a different entry (re-cache after
    // eviction, microflow vs wildcard). Old by_rule_ slots go stale and are
    // skipped at flush time by re-checking rec.rule.
    rec.rule = rule;
    by_rule_[rule].push_back(slot);
  }
  ++rec.packets;
  rec.bytes += bytes;
  rec.last_seen = now;
  ++sampled_packets_;
  sampled_bytes_ += bytes;
  return true;
}

void FlowTelemetry::on_rule_removed(RuleId rule, double now, bool export_counts) {
  const auto it = by_rule_.find(rule);
  if (it == by_rule_.end()) return;
  for (const std::size_t slot : it->second) {
    PendingRecord& rec = pending_[slot];
    if (rec.rule != rule) continue;  // rebound since; counts belong elsewhere
    rec.rule = kInvalidRuleId;       // next sample re-binds
    if (rec.packets == 0 && rec.bytes == 0) continue;
    if (export_counts) {
      obs::FlowExportRecord out;
      out.header = rec.header;
      out.sampled_packets = rec.packets;
      out.sampled_bytes = rec.bytes;
      out.first_seen = rec.first_seen;
      out.last_seen = rec.last_seen;
      out.rule = rule;
      out.kind = obs::ExportKind::kEvict;
      closed_.push_back(out);
    } else {
      ++dropped_records_;
      dropped_packets_ += rec.packets;
    }
    rec.packets = 0;
    rec.bytes = 0;
  }
  by_rule_.erase(it);
  (void)now;
}

void FlowTelemetry::drop_all() {
  for (auto& rec : pending_) {
    // by_rule_ is wiped below, so every record must forget its binding or a
    // later sample against the same rule id would skip the by_rule_ push and
    // the slot would become unreachable for eviction flush.
    rec.rule = kInvalidRuleId;
    if (rec.packets == 0 && rec.bytes == 0) continue;
    ++dropped_records_;
    dropped_packets_ += rec.packets;
    rec.packets = 0;
    rec.bytes = 0;
  }
  for (const auto& rec : closed_) {
    ++dropped_records_;
    dropped_packets_ += rec.sampled_packets;
  }
  closed_.clear();
  by_rule_.clear();
}

std::vector<obs::FlowExportRecord> FlowTelemetry::drain(obs::ExportKind kind) {
  std::vector<obs::FlowExportRecord> out;
  out.swap(closed_);
  for (auto& rec : pending_) {
    if (rec.packets == 0 && rec.bytes == 0) continue;
    obs::FlowExportRecord r;
    r.header = rec.header;
    r.sampled_packets = rec.packets;
    r.sampled_bytes = rec.bytes;
    r.first_seen = rec.first_seen;
    r.last_seen = rec.last_seen;
    r.rule = rec.rule == kInvalidRuleId ? 0 : rec.rule;
    r.kind = kind;
    out.push_back(r);
    rec.packets = 0;
    rec.bytes = 0;
  }
  return out;
}

bool FlowTelemetry::idle() const {
  if (!closed_.empty()) return false;
  for (const auto& rec : pending_) {
    if (rec.packets != 0 || rec.bytes != 0) return false;
  }
  return true;
}

void CollectorEndpoint::deliver(const Request& request, ReplyHandler on_reply) {
  const auto* msg = std::get_if<FlowExport>(&request);
  if (msg == nullptr) {
    // A collector applies nothing else; still ack so a misdirected request
    // cannot wedge a reliable channel behind it.
    if (on_reply) on_reply(FlowModReply{false});
    return;
  }
  received_.push_back(msg->batch);
  if (on_batch_) on_batch_(msg->batch);
  if (on_reply) on_reply(FlowExportAck{msg->batch.seq});
}

}  // namespace difane
