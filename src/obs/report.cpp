#include "obs/report.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace difane::obs {

namespace {

constexpr const char* kReportSchema = "difane-bench-report-v1";
constexpr const char* kTrajectorySchema = "difane-bench-trajectory-v1";

}  // namespace

const char* build_git_rev() {
#ifdef DIFANE_GIT_REV
  return DIFANE_GIT_REV;
#else
  return "unknown";
#endif
}

bool is_wall_metric(const std::string& name) {
  // "_rss_" marks resident-set-size measurements (bench_e11_scale's
  // high-water mark): like wall time, RSS depends on the host's allocator,
  // page size, and layout, so it is exempt from the byte-identical
  // determinism gates and only checked under an explicit drift threshold.
  return name.find("_wall_") != std::string::npos ||
         name.find("_rss_") != std::string::npos || name == "wall_seconds";
}

Json MetricsReport::to_json() const {
  Json doc{Json::Object{}};
  doc["schema"] = Json(kReportSchema);
  doc["experiment"] = Json(experiment);
  doc["git_rev"] = Json(git_rev);
  doc["params"] = Json(params);
  Json::Object metric_obj;
  for (const auto& [name, value] : metrics) metric_obj.emplace(name, Json(value));
  doc["metrics"] = Json(std::move(metric_obj));
  doc["wall_seconds"] = Json(wall_seconds);
  return doc;
}

std::string MetricsReport::to_json_string(int indent) const {
  return to_json().dump(indent) + "\n";
}

MetricsReport MetricsReport::from_json(const Json& doc) {
  if (!doc.is_object()) throw std::runtime_error("report: not a JSON object");
  const std::string schema = doc.get("schema").as_string();
  if (schema != kReportSchema) {
    throw std::runtime_error("report: unknown schema '" + schema + "'");
  }
  MetricsReport report;
  report.experiment = doc.get("experiment").as_string();
  if (report.experiment.empty()) {
    throw std::runtime_error("report: empty experiment id");
  }
  report.git_rev = doc.get("git_rev").as_string();
  report.params = doc.get("params").as_object();
  report.metrics.clear();
  for (const auto& [name, value] : doc.get("metrics").as_object()) {
    if (!value.is_number()) {
      throw std::runtime_error("report: metric '" + name + "' is not a number");
    }
    report.metrics.emplace(name, value.as_number());
  }
  report.wall_seconds = doc.get("wall_seconds").as_number();
  return report;
}

namespace {

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  os << text;
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace

void MetricsReport::write_json_file(const std::string& path) const {
  write_text_file(path, to_json_string());
}

MetricsReport merge_reps(const std::vector<MetricsReport>& reps) {
  if (reps.empty()) throw std::runtime_error("merge_reps: no reports");
  MetricsReport merged = reps.front();
  if (reps.size() == 1) return merged;
  // Mean of every metric present in all reps; metrics missing from some rep
  // (e.g. a conditional table row) keep the first rep's value.
  for (auto& [name, value] : merged.metrics) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& rep : reps) {
      const auto it = rep.metrics.find(name);
      if (it == rep.metrics.end()) break;
      sum += it->second;
      ++n;
    }
    if (n == reps.size()) value = sum / static_cast<double>(n);
  }
  double wall = 0.0;
  for (const auto& rep : reps) wall += rep.wall_seconds;
  merged.wall_seconds = wall / static_cast<double>(reps.size());
  return merged;
}

Json Trajectory::to_json() const {
  Json doc{Json::Object{}};
  doc["schema"] = Json(kTrajectorySchema);
  doc["git_rev"] = Json(git_rev);
  doc["base_seed"] = Json(static_cast<double>(base_seed));
  Json::Object exp_obj;
  for (const auto& [id, report] : experiments) {
    exp_obj.emplace(id, report.to_json());
  }
  doc["experiments"] = Json(std::move(exp_obj));
  return doc;
}

Trajectory Trajectory::from_json(const Json& doc) {
  if (!doc.is_object()) throw std::runtime_error("trajectory: not a JSON object");
  const std::string schema = doc.get("schema").as_string();
  if (schema != kTrajectorySchema) {
    throw std::runtime_error("trajectory: unknown schema '" + schema + "'");
  }
  Trajectory traj;
  traj.git_rev = doc.get("git_rev").as_string();
  traj.base_seed = static_cast<std::uint64_t>(doc.get("base_seed").as_number());
  for (const auto& [id, report] : doc.get("experiments").as_object()) {
    traj.experiments.emplace(id, MetricsReport::from_json(report));
  }
  return traj;
}

void Trajectory::write_json_file(const std::string& path) const {
  write_text_file(path, to_json().dump(2) + "\n");
}

Json load_json_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return Json::parse(buf.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace difane::obs
