// Observability layer: JSON value round-trips, the versioned report schema
// and rep merging. The exporter guarantees under test: sorted keys +
// shortest-round-trip numbers make the serialized form byte-deterministic,
// and the schema validator rejects any structurally wrong document with a
// message naming the problem.
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace difane::obs {
namespace {

// --------------------------------------------------------------------------
// Json

TEST(Json, RoundTripsScalarsAndContainers) {
  Json::Object obj;
  obj["flag"] = Json(true);
  obj["count"] = Json(42);
  obj["ratio"] = Json(0.125);
  obj["name"] = Json("difane");
  obj["nothing"] = Json();
  obj["list"] = Json(std::vector<Json>{Json(1), Json("two"), Json(false)});
  const Json doc(obj);

  const Json parsed = Json::parse(doc.dump(2));
  EXPECT_EQ(parsed, doc);
  EXPECT_EQ(parsed.get("count").as_number(), 42.0);
  EXPECT_EQ(parsed.get("name").as_string(), "difane");
  EXPECT_TRUE(parsed.get("nothing").is_null());
  EXPECT_EQ(parsed.get("list").as_array().size(), 3u);
}

TEST(Json, DumpIsByteStableAcrossInsertionOrder) {
  Json a, b;
  a["zeta"] = Json(1);
  a["alpha"] = Json(2);
  b["alpha"] = Json(2);
  b["zeta"] = Json(1);
  // std::map ordering makes the dump independent of insertion order.
  EXPECT_EQ(a.dump(2), b.dump(2));
  EXPECT_EQ(a.dump(), "{\"alpha\":2,\"zeta\":1}");
}

TEST(Json, EscapesAndParsesSpecialStrings) {
  const std::string text = "line\n\"quote\"\t\\back\\ \x01";
  const Json doc(text);
  EXPECT_EQ(Json::parse(doc.dump()).as_string(), text);
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(Json, IntegralNumbersPrintWithoutFraction) {
  EXPECT_EQ(format_number(1209.0), "1209");
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(-17.0), "-17");
  // Non-integral values keep the shortest round-trip form.
  const double v = 0.1;
  EXPECT_EQ(Json::parse(format_number(v)).as_number(), v);
}

TEST(Json, ParseRejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1 2]"), std::runtime_error);
  EXPECT_THROW(Json::parse("nul"), std::runtime_error);
  EXPECT_THROW(Json::parse("{} trailing"), std::runtime_error);
}

TEST(Json, AccessorsThrowOnKindMismatch) {
  const Json num(3.5);
  EXPECT_THROW(num.as_string(), std::runtime_error);
  EXPECT_THROW(num.get("missing"), std::runtime_error);
  Json obj;
  obj["present"] = Json(1);
  EXPECT_THROW(obj.get("absent"), std::runtime_error);
  EXPECT_TRUE(obj.contains("present"));
}

// --------------------------------------------------------------------------
// Report schema

MetricsReport sample_report() {
  MetricsReport report("E1");
  report.params["policy_rules"] = Json(1000);
  report.params["quick"] = Json(false);
  report.set("difane_peak_flows_per_s", 812345.5);
  report.set("nox_peak_flows_per_s", 50000.0);
  report.set("build_wall_ms", 12.5);
  report.wall_seconds = 1.75;
  return report;
}

TEST(Report, JsonRoundTripPreservesEverything) {
  const MetricsReport report = sample_report();
  const MetricsReport back =
      MetricsReport::from_json(Json::parse(report.to_json_string()));
  EXPECT_EQ(back.experiment, report.experiment);
  EXPECT_EQ(back.git_rev, report.git_rev);
  EXPECT_EQ(back.metrics, report.metrics);
  EXPECT_EQ(back.wall_seconds, report.wall_seconds);
  EXPECT_EQ(Json(back.params), Json(report.params));
}

TEST(Report, SchemaShapeIsStable) {
  const Json doc = Json::parse(sample_report().to_json_string());
  // The versioned contract consumers (bench_compare, external tooling) rely
  // on: these exact top-level fields, nothing fewer.
  EXPECT_EQ(doc.get("schema").as_string(), "difane-bench-report-v1");
  EXPECT_EQ(doc.get("experiment").as_string(), "E1");
  EXPECT_TRUE(doc.get("git_rev").is_string());
  EXPECT_TRUE(doc.get("params").is_object());
  EXPECT_TRUE(doc.get("metrics").is_object());
  EXPECT_TRUE(doc.get("wall_seconds").is_number());
}

TEST(Report, FromJsonValidatesSchema) {
  const auto mutate = [](const char* field, Json value) {
    Json doc = Json::parse(sample_report().to_json_string());
    doc[field] = std::move(value);
    return doc;
  };
  EXPECT_THROW(MetricsReport::from_json(mutate("schema", Json("bogus-v9"))),
               std::runtime_error);
  EXPECT_THROW(MetricsReport::from_json(mutate("metrics", Json(3))),
               std::runtime_error);
  EXPECT_THROW(MetricsReport::from_json(mutate("experiment", Json())),
               std::runtime_error);
  Json no_metrics = Json::parse(sample_report().to_json_string());
  no_metrics.as_object().erase("metrics");
  EXPECT_THROW(MetricsReport::from_json(no_metrics), std::runtime_error);
  // Non-numeric metric values are rejected, not coerced.
  Json bad_metric = Json::parse(sample_report().to_json_string());
  bad_metric["metrics"]["oops"] = Json("NaN-ish");
  EXPECT_THROW(MetricsReport::from_json(bad_metric), std::runtime_error);
}

TEST(Report, WallMetricNamingConvention) {
  EXPECT_TRUE(is_wall_metric("wall_seconds"));
  EXPECT_TRUE(is_wall_metric("incremental_wall_us_per_op_n_1000"));
  EXPECT_TRUE(is_wall_metric("dtree_build_wall_ms_n_100"));
  EXPECT_FALSE(is_wall_metric("difane_peak_flows_per_s"));
  EXPECT_FALSE(is_wall_metric("wallaby"));
}

TEST(Report, MergeRepsAveragesMetrics) {
  MetricsReport a("E2"), b("E2");
  a.set("rate", 100.0);
  b.set("rate", 200.0);
  a.set("only_in_a", 1.0);
  a.wall_seconds = 1.0;
  b.wall_seconds = 3.0;
  a.params["reps_param"] = Json(7);
  const MetricsReport merged = merge_reps({a, b});
  EXPECT_EQ(merged.metrics.at("rate"), 150.0);
  // Metrics missing from some rep (conditional table rows) keep the first
  // rep's value instead of a partial average that would silently skew.
  EXPECT_EQ(merged.metrics.at("only_in_a"), 1.0);
  EXPECT_EQ(merged.wall_seconds, 2.0);
  EXPECT_EQ(merged.params.at("reps_param").as_number(), 7.0);
}

TEST(Report, TrajectoryRoundTrip) {
  Trajectory traj;
  traj.base_seed = 77;
  traj.experiments.emplace("E1", sample_report());
  MetricsReport e4("E4");
  e4.set("duplication_k_2", 1.209);
  traj.experiments.emplace("E4", e4);

  const Trajectory back = Trajectory::from_json(traj.to_json());
  EXPECT_EQ(back.base_seed, 77u);
  ASSERT_EQ(back.experiments.size(), 2u);
  EXPECT_EQ(back.experiments.at("E4").metrics.at("duplication_k_2"), 1.209);
  EXPECT_EQ(back.experiments.at("E1").metrics,
            traj.experiments.at("E1").metrics);
  EXPECT_THROW(Trajectory::from_json(Json::parse("{\"schema\":\"wrong\"}")),
               std::runtime_error);
}

TEST(Report, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "obs_report_roundtrip.json";
  const MetricsReport report = sample_report();
  report.write_json_file(path);
  const MetricsReport back = MetricsReport::from_json(load_json_file(path));
  EXPECT_EQ(back.metrics, report.metrics);
  std::remove(path.c_str());
  EXPECT_THROW(load_json_file(path), std::runtime_error);
}

}  // namespace
}  // namespace difane::obs
