// Structured experiment reports. Every bench run reduces to one
// MetricsReport; bench_all merges reports into a Trajectory; bench_compare
// diffs trajectories. The JSON schema is stable and versioned:
//
//   BENCH_<id>.json (schema "difane-bench-report-v1"):
//   {
//     "schema": "difane-bench-report-v1",
//     "experiment": "E1",
//     "git_rev": "<short rev or 'unknown'>",
//     "params": { ... run configuration: seeds, reps, sizes ... },
//     "metrics": { "<name>": <number>, ... },
//     "wall_seconds": 1.23
//   }
//
//   trajectory file (schema "difane-bench-trajectory-v1"):
//   {
//     "schema": "difane-bench-trajectory-v1",
//     "git_rev": "...",
//     "base_seed": 7,
//     "experiments": { "E1": <report>, ... }
//   }
//
// Naming convention: metric keys containing "_wall_" (and the report-level
// "wall_seconds" / "git_rev" fields) are host measurements and are excluded
// from byte-determinism guarantees; every other metric is derived from the
// deterministic simulation and must reproduce exactly from the same seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace difane::obs {

// The git revision baked in at configure time (DIFANE_GIT_REV), "unknown"
// when the build was configured outside a git checkout.
const char* build_git_rev();

// True when a metric key names a host measurement — wall-clock timing
// ("_wall_", "wall_seconds") or resident-set size ("_rss_") — rather than a
// deterministic simulation quantity. Host metrics are exempt from the
// byte-identity gates (bench_compare applies them only under an explicit
// --wall-threshold).
bool is_wall_metric(const std::string& name);

struct MetricsReport {
  MetricsReport() = default;
  explicit MetricsReport(std::string experiment_id)
      : experiment(std::move(experiment_id)) {}

  std::string experiment;
  std::string git_rev = build_git_rev();
  Json::Object params;
  std::map<std::string, double> metrics;
  double wall_seconds = 0.0;

  void set(const std::string& name, double value) { metrics[name] = value; }

  Json to_json() const;
  std::string to_json_string(int indent = 2) const;

  // Parse + schema-validate; throws std::runtime_error naming the problem.
  static MetricsReport from_json(const Json& doc);

  void write_json_file(const std::string& path) const;
};

// Merge repetition reports of one experiment: metrics are averaged (they are
// identical across reps for deterministic benches; averaging smooths the
// wall-clock ones), wall_seconds averaged, params taken from the first rep.
MetricsReport merge_reps(const std::vector<MetricsReport>& reps);

struct Trajectory {
  std::string git_rev = build_git_rev();
  std::uint64_t base_seed = 0;
  std::map<std::string, MetricsReport> experiments;

  Json to_json() const;
  static Trajectory from_json(const Json& doc);
  void write_json_file(const std::string& path) const;
};

// Load + parse a JSON document from disk; throws std::runtime_error with the
// path on I/O or parse failure.
Json load_json_file(const std::string& path);

}  // namespace difane::obs
