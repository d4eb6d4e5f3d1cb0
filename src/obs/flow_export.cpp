#include "obs/flow_export.hpp"

#include <algorithm>

namespace difane::obs {

const char* export_kind_name(ExportKind kind) {
  switch (kind) {
    case ExportKind::kPeriodic: return "periodic";
    case ExportKind::kEvict: return "evict";
    case ExportKind::kFinal: return "final";
  }
  return "?";
}

namespace {

// Headers serialize as 64 hex chars, most-significant word first, so the
// string sorts like the 256-bit value and loses no bit.
std::string header_to_hex(const BitVec& v) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(kHeaderWords * 16);
  for (std::size_t w = kHeaderWords; w-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(digits[(v.w[w] >> shift) & 0xf]);
    }
  }
  return out;
}

}  // namespace

Json FlowExportRecord::to_json() const {
  Json::Object o;
  o["header"] = Json(header_to_hex(header));
  o["packets"] = Json(sampled_packets);
  o["bytes"] = Json(sampled_bytes);
  o["first_seen"] = Json(first_seen);
  o["last_seen"] = Json(last_seen);
  o["rule"] = Json(rule);
  o["kind"] = Json(export_kind_name(kind));
  return Json(std::move(o));
}

Json FlowExportBatch::to_json() const {
  Json::Object o;
  o["schema"] = Json(kFlowExportSchema);
  o["exporter"] = Json(exporter);
  o["seq"] = Json(seq);
  o["beat_seq"] = Json(beat_seq);
  o["sent_at"] = Json(sent_at);
  o["sample_prob"] = Json(sample_prob);
  Json::Array records_json;
  records_json.reserve(records.size());
  for (const auto& r : records) records_json.push_back(r.to_json());
  o["records"] = Json(std::move(records_json));
  return Json(std::move(o));
}

void FlowCollector::on_batch(const FlowExportBatch& batch) {
  ++batches_;
  if (batch.keepalive()) ++keepalives_;
  for (const auto& rec : batch.records) {
    ++records_;
    if (rec.kind == ExportKind::kEvict) ++evict_records_;
    if (rec.kind == ExportKind::kFinal) ++final_records_;
    const auto [it, inserted] = index_.try_emplace(rec.header, flows_.size());
    if (inserted) {
      flows_.emplace_back(rec.header, FlowTotals{});
      flows_.back().second.first_seen = rec.first_seen;
    }
    FlowTotals& t = flows_[it->second].second;
    t.sampled_packets += rec.sampled_packets;
    t.sampled_bytes += rec.sampled_bytes;
    t.estimated_packets +=
        static_cast<double>(rec.sampled_packets) / batch.sample_prob;
    t.estimated_bytes +=
        static_cast<double>(rec.sampled_bytes) / batch.sample_prob;
    t.first_seen = std::min(t.first_seen, rec.first_seen);
    t.last_seen = std::max(t.last_seen, rec.last_seen);
  }
  stream_.push_back(batch);
}

const FlowCollector::FlowTotals* FlowCollector::find(const BitVec& header) const {
  const auto it = index_.find(header);
  return it == index_.end() ? nullptr : &flows_[it->second].second;
}

Json FlowCollector::stream_json() const {
  Json::Array out;
  out.reserve(stream_.size());
  for (const auto& batch : stream_) out.push_back(batch.to_json());
  return Json(std::move(out));
}

}  // namespace difane::obs
