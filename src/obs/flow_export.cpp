#include "obs/flow_export.hpp"

#include <stdexcept>

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
// string sorts like the 256-bit value and round-trips exactly.
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

BitVec header_from_hex(const std::string& s) {
  if (s.size() != kHeaderWords * 16) {
    throw std::runtime_error("flow-export: header must be " +
                             std::to_string(kHeaderWords * 16) +
                             " hex chars, got " + std::to_string(s.size()));
  }
  BitVec v;
  std::size_t i = 0;
  for (std::size_t w = kHeaderWords; w-- > 0;) {
    std::uint64_t word = 0;
    for (std::size_t d = 0; d < 16; ++d, ++i) {
      const char c = s[i];
      std::uint64_t nibble = 0;
      if (c >= '0' && c <= '9') {
        nibble = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        throw std::runtime_error("flow-export: bad hex char in header");
      }
      word = (word << 4) | nibble;
    }
    v.w[w] = word;
  }
  return v;
}

ExportKind kind_from_name(const std::string& name) {
  if (name == "periodic") return ExportKind::kPeriodic;
  if (name == "evict") return ExportKind::kEvict;
  if (name == "final") return ExportKind::kFinal;
  throw std::runtime_error("flow-export: unknown record kind '" + name + "'");
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

FlowExportRecord FlowExportRecord::from_json(const Json& doc) {
  FlowExportRecord r;
  r.header = header_from_hex(doc.get("header").as_string());
  r.sampled_packets = static_cast<std::uint64_t>(doc.get("packets").as_number());
  r.sampled_bytes = static_cast<std::uint64_t>(doc.get("bytes").as_number());
  r.first_seen = doc.get("first_seen").as_number();
  r.last_seen = doc.get("last_seen").as_number();
  r.rule = static_cast<std::uint64_t>(doc.get("rule").as_number());
  r.kind = kind_from_name(doc.get("kind").as_string());
  return r;
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

FlowExportBatch FlowExportBatch::from_json(const Json& doc) {
  const std::string& schema = doc.get("schema").as_string();
  if (schema != kFlowExportSchema) {
    throw std::runtime_error("flow-export: schema mismatch: got '" + schema +
                             "', want '" + kFlowExportSchema + "'");
  }
  FlowExportBatch b;
  b.exporter = static_cast<std::uint32_t>(doc.get("exporter").as_number());
  b.seq = static_cast<std::uint64_t>(doc.get("seq").as_number());
  b.beat_seq = static_cast<std::uint64_t>(doc.get("beat_seq").as_number());
  b.sent_at = doc.get("sent_at").as_number();
  b.sample_prob = doc.get("sample_prob").as_number();
  if (b.sample_prob <= 0.0 || b.sample_prob > 1.0) {
    throw std::runtime_error("flow-export: sample_prob out of (0, 1]");
  }
  for (const auto& rec : doc.get("records").as_array()) {
    b.records.push_back(FlowExportRecord::from_json(rec));
  }
  return b;
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

void FlowCollector::clear() {
  flows_.clear();
  index_.clear();
  stream_.clear();
  batches_ = records_ = keepalives_ = evict_records_ = final_records_ = 0;
}

}  // namespace difane::obs
