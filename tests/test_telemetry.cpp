// Telemetry data plane: flow measurement from cache rules. Covers the
// export record schema (JSON form), the FlowTelemetry sampler unit
// semantics (overflow, eviction flush, rebinding), and the end-to-end
// scenario wiring: exact totals at p == 1, eviction-flush vs flush-off
// fidelity, keepalive batches, and the heartbeat piggyback that keeps a
// quiet-but-alive authority from being failed over.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/system.hpp"
#include "core/telemetry.hpp"
#include "obs/flow_export.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

namespace difane {
namespace {

BitVec test_header(std::uint64_t tag) {
  BitVec h;
  std::uint64_t state = tag;
  for (std::size_t i = 0; i < kHeaderWords; ++i) h.w[i] = splitmix64(state);
  return h;
}

RuleTable small_policy(std::uint64_t seed = 21) {
  RuleGenParams params;
  params.num_rules = 200;
  params.seed = seed;
  return generate_policy(params);
}

ScenarioParams measured_params() {
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 4;
  params.core_switches = 2;
  params.authority_count = 2;
  params.edge_cache_capacity = 400;
  params.partitioner.capacity = 200;
  params.measurement.enabled = true;
  params.measurement.sample_prob = 1.0;
  params.measurement.export_interval = 0.05;
  params.measurement.export_horizon = 0.6;
  return params;
}

std::vector<FlowSpec> small_traffic(const RuleTable& policy, std::uint64_t seed,
                                    double rate = 2000.0, std::size_t pool = 300) {
  TrafficParams tp;
  tp.seed = seed;
  tp.flow_pool = pool;
  tp.zipf_s = 0.9;
  tp.arrival_rate = rate;
  tp.duration = 0.4;
  tp.mean_packets = 4.0;
  tp.ingress_count = 4;
  TrafficGenerator gen(policy, tp);
  return gen.generate();
}

// Sum of sampled packet counts over everything the collector received.
std::uint64_t collected_sampled_packets(const obs::FlowCollector& collector) {
  std::uint64_t total = 0;
  for (const auto& [header, totals] : collector.flows()) {
    (void)header;
    total += totals.sampled_packets;
  }
  return total;
}

// --------------------------------------------------------------------------
// Schema / JSON form

TEST(FlowExportJson, RecordRoundTrips) {
  obs::FlowExportRecord rec;
  rec.header = test_header(0xfeed);
  rec.sampled_packets = 42;
  rec.sampled_bytes = 4200;
  rec.first_seen = 0.125;
  rec.last_seen = 0.5;
  rec.rule = 17;
  rec.kind = obs::ExportKind::kEvict;
  const obs::Json doc = rec.to_json();
  // The header is 64 hex digits, most-significant word first.
  std::string hex;
  for (std::size_t w = kHeaderWords; w-- > 0;) {
    char word[17];
    std::snprintf(word, sizeof(word), "%016llx",
                  static_cast<unsigned long long>(rec.header.w[w]));
    hex += word;
  }
  EXPECT_EQ(doc.get("header").as_string(), hex);
  EXPECT_EQ(doc.get("packets").as_number(), 42.0);
  EXPECT_EQ(doc.get("bytes").as_number(), 4200.0);
  EXPECT_EQ(doc.get("first_seen").as_number(), 0.125);
  EXPECT_EQ(doc.get("last_seen").as_number(), 0.5);
  EXPECT_EQ(doc.get("rule").as_number(), 17.0);
  EXPECT_EQ(doc.get("kind").as_string(), "evict");
  // The text form parses back to the same document.
  EXPECT_EQ(obs::Json::parse(doc.dump()), doc);
}

TEST(FlowExportJson, BatchRoundTripsAndValidatesSchema) {
  obs::FlowExportBatch batch;
  batch.exporter = 3;
  batch.seq = 9;
  batch.beat_seq = 4;
  batch.sent_at = 0.25;
  batch.sample_prob = 0.5;
  obs::FlowExportRecord rec;
  rec.header = test_header(0xbeef);
  rec.sampled_packets = 7;
  rec.sampled_bytes = 700;
  batch.records.push_back(rec);

  const obs::Json doc = batch.to_json();
  EXPECT_EQ(doc.get("schema").as_string(), obs::kFlowExportSchema);
  EXPECT_EQ(doc.get("exporter").as_number(), 3.0);
  EXPECT_EQ(doc.get("seq").as_number(), 9.0);
  EXPECT_EQ(doc.get("beat_seq").as_number(), 4.0);
  EXPECT_EQ(doc.get("sent_at").as_number(), 0.25);
  EXPECT_EQ(doc.get("sample_prob").as_number(), 0.5);
  ASSERT_EQ(doc.get("records").as_array().size(), 1u);
  EXPECT_EQ(doc.get("records").as_array()[0], rec.to_json());
  EXPECT_EQ(obs::Json::parse(doc.dump()), doc);
}

TEST(FlowExportJson, EmptyBatchIsAKeepalive) {
  obs::FlowExportBatch batch;
  EXPECT_TRUE(batch.keepalive());
  batch.records.emplace_back();
  EXPECT_FALSE(batch.keepalive());
}

// --------------------------------------------------------------------------
// FlowTelemetry unit semantics

MeasurementParams unit_params(double p = 1.0, std::size_t capacity = 16) {
  MeasurementParams mp;
  mp.enabled = true;
  mp.sample_prob = p;
  mp.record_capacity = capacity;
  return mp;
}

TEST(FlowTelemetryUnit, RecordCapacityOverflowCountsDrops) {
  FlowTelemetry tel(unit_params(1.0, /*capacity=*/1), /*rng_seed=*/7);
  const BitVec a = test_header(1);
  const BitVec b = test_header(2);
  EXPECT_TRUE(tel.sample(a, 1, 0.0, 100));
  EXPECT_TRUE(tel.sample(b, 1, 0.1, 100));  // no slot: sampled but dropped
  EXPECT_EQ(tel.flow_records(), 1u);
  EXPECT_EQ(tel.overflow_drops(), 1u);
  EXPECT_EQ(tel.sampled_packets(), 2u);
  EXPECT_EQ(tel.dropped_packets(), 1u);
  // Conservation: sampled == drained + dropped.
  const auto records = tel.drain(obs::ExportKind::kPeriodic);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sampled_packets + tel.dropped_packets(),
            tel.sampled_packets());
}

TEST(FlowTelemetryUnit, EvictionFlushClosesAndRebindsAfterRemoval) {
  FlowTelemetry tel(unit_params(), /*rng_seed=*/7);
  const BitVec h = test_header(3);
  tel.sample(h, /*rule=*/5, 0.0, 100);
  tel.sample(h, /*rule=*/5, 0.1, 100);
  // The entry leaves the cache: pending counts close into a kEvict record.
  tel.on_rule_removed(5, 0.2, /*export_counts=*/true);
  EXPECT_FALSE(tel.idle());
  auto records = tel.drain(obs::ExportKind::kPeriodic);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, obs::ExportKind::kEvict);
  EXPECT_EQ(records[0].sampled_packets, 2u);
  EXPECT_EQ(records[0].rule, 5u);
  EXPECT_TRUE(tel.idle());
  // The flow returns under a different (re-cached) entry: same record slot,
  // fresh binding, periodic export.
  tel.sample(h, /*rule=*/9, 0.3, 100);
  tel.on_rule_removed(9, 0.4, /*export_counts=*/true);
  records = tel.drain(obs::ExportKind::kPeriodic);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rule, 9u);
  EXPECT_EQ(records[0].sampled_packets, 1u);
  EXPECT_EQ(tel.flow_records(), 1u);  // one flow throughout
}

TEST(FlowTelemetryUnit, FlushOffDropsAndCrashLosesEverything) {
  FlowTelemetry tel(unit_params(), /*rng_seed=*/7);
  const BitVec h = test_header(4);
  const BitVec g = test_header(5);
  tel.sample(h, 5, 0.0, 100);
  tel.sample(g, 6, 0.0, 100);
  tel.on_rule_removed(5, 0.1, /*export_counts=*/false);  // flush off: dropped
  EXPECT_EQ(tel.dropped_records(), 1u);
  EXPECT_EQ(tel.dropped_packets(), 1u);
  tel.on_rule_removed(6, 0.1, /*export_counts=*/true);   // flushed, unsent
  tel.drop_all();                                        // ...then the crash
  EXPECT_EQ(tel.dropped_packets(), 2u);
  EXPECT_TRUE(tel.idle());
  EXPECT_TRUE(tel.drain(obs::ExportKind::kFinal).empty());
  // Post-crash samples against the same rule id must still be flushable
  // (the crash wiped the rule bindings with the records).
  tel.sample(h, 5, 0.2, 100);
  tel.on_rule_removed(5, 0.3, /*export_counts=*/true);
  const auto records = tel.drain(obs::ExportKind::kPeriodic);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sampled_packets, 1u);
}

// --------------------------------------------------------------------------
// End-to-end scenario wiring

TEST(Telemetry, FullSamplingMatchesGroundTruthExactly) {
  const auto policy = small_policy();
  const auto flows = small_traffic(policy, 31);
  Scenario scenario(policy, measured_params());
  const auto& stats = scenario.run(flows);

  // Fault-free, unsaturated: every packet reaches a terminal match.
  ASSERT_EQ(stats.queue_rejects, 0u);
  ASSERT_EQ(stats.tracer.dropped(DropReason::kNoRule), 0u);
  ASSERT_EQ(stats.tracer.dropped(DropReason::kTtlExceeded), 0u);
  EXPECT_EQ(stats.telemetry_sampled_packets, stats.tracer.injected());
  EXPECT_EQ(stats.telemetry_dropped_packets, 0u);
  EXPECT_EQ(stats.telemetry_overflow_drops, 0u);

  // At p == 1 the collector's estimate IS the exact per-flow ground truth,
  // even though a flow's counts split across ingress and authority exporters.
  const auto truth = flow_ground_truth(flows);
  const auto& collector = scenario.collector();
  EXPECT_EQ(collector.flows().size(), truth.size());
  for (const auto& t : truth) {
    const auto* totals = collector.find(t.header);
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals->sampled_packets, t.packets);
    EXPECT_EQ(totals->sampled_bytes, t.bytes);
    EXPECT_EQ(totals->estimated_packets, static_cast<double>(t.packets));
  }
  EXPECT_GT(stats.export_batches, 0u);
  EXPECT_GT(stats.export_records, 0u);
  // Exporters with nothing to say still send: keepalive batches.
  EXPECT_GT(stats.export_keepalives, 0u);
}

TEST(Telemetry, EvictionFlushPreservesEvictedElephantCounts) {
  const auto policy = small_policy();
  const auto flows = small_traffic(policy, 33, /*rate=*/3000.0, /*pool=*/400);
  // A tiny cache under a 400-flow pool churns: entries are evicted while
  // their flows still have unexported counts.
  ScenarioParams params = measured_params();
  params.edge_cache_capacity = 24;
  Scenario scenario(policy, params);
  const auto& stats = scenario.run(flows);

  ASSERT_EQ(stats.queue_rejects, 0u);
  ASSERT_GT(stats.export_evict_records, 0u);
  // Flush-on-evict means churn costs nothing: totals still exact at p == 1.
  EXPECT_EQ(stats.telemetry_dropped_packets, 0u);
  const auto truth = flow_ground_truth(flows);
  const auto& collector = scenario.collector();
  for (const auto& t : truth) {
    const auto* totals = collector.find(t.header);
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals->sampled_packets, t.packets);
  }
}

TEST(Telemetry, FlushOffDropsEvictedCountsButConserves) {
  const auto policy = small_policy();
  const auto flows = small_traffic(policy, 33, /*rate=*/3000.0, /*pool=*/400);
  ScenarioParams params = measured_params();
  params.edge_cache_capacity = 24;
  params.measurement.flush_on_evict = false;
  Scenario scenario(policy, params);
  const auto& stats = scenario.run(flows);

  // The same churn now loses counts — the fidelity gap bench_e12 measures —
  // but never silently: sampled == collected + dropped.
  EXPECT_GT(stats.telemetry_dropped_packets, 0u);
  EXPECT_EQ(stats.export_evict_records, 0u);
  EXPECT_EQ(collected_sampled_packets(scenario.collector()) +
                stats.telemetry_dropped_packets,
            stats.telemetry_sampled_packets);
}

TEST(Telemetry, SampledEstimatesTrackTruthWithinBound) {
  const auto policy = small_policy();
  const auto flows = small_traffic(policy, 37);
  ScenarioParams params = measured_params();
  params.measurement.sample_prob = 0.25;
  Scenario scenario(policy, params);
  const auto& stats = scenario.run(flows);

  // Thinned by p: roughly a quarter of the offered packets are counted.
  EXPECT_LT(stats.telemetry_sampled_packets, stats.tracer.injected());
  EXPECT_GT(stats.telemetry_sampled_packets, 0u);

  // Per-flow binomial error bound: |est - n| <= 5 * sqrt(n (1-p) / p), with
  // a floor for tiny flows whose estimate quantum is 1/p.
  const double p = params.measurement.sample_prob;
  const auto truth = flow_ground_truth(flows);
  const auto& collector = scenario.collector();
  std::size_t violations = 0;
  for (const auto& t : truth) {
    const auto* totals = collector.find(t.header);
    const double est = totals == nullptr ? 0.0 : totals->estimated_packets;
    const double n = static_cast<double>(t.packets);
    const double bound =
        std::max(5.0 * std::sqrt(n * (1.0 - p) / p), 2.0 / p);
    if (std::abs(est - n) > bound) ++violations;
  }
  EXPECT_EQ(violations, 0u);
}

TEST(Telemetry, MeasurementOffLeavesNoTrace) {
  const auto policy = small_policy();
  const auto flows = small_traffic(policy, 39);
  ScenarioParams params = measured_params();
  params.measurement.enabled = false;
  Scenario scenario(policy, params);
  const auto& stats = scenario.run(flows);
  EXPECT_EQ(stats.telemetry_sampled_packets, 0u);
  EXPECT_EQ(stats.export_batches, 0u);
  EXPECT_EQ(scenario.collector().batches(), 0u);
  for (SwitchId sw = 0; sw < scenario.net().switch_count(); ++sw) {
    EXPECT_EQ(scenario.telemetry(sw), nullptr);
  }
}

// --------------------------------------------------------------------------
// Heartbeat piggyback: "quiet but alive" vs "partitioned"

// An authority that serves no traffic is silent between beats; on a lossy
// control wire its beats vanish and the monitor declares a spurious
// failover. Export batches (even keepalives) carry beat_seq, so with
// measurement on the same lossy run keeps the switch visibly alive.
TEST(Telemetry, PiggybackSuppressesSpuriousFailovers) {
  const auto policy = small_policy();
  const auto flows = small_traffic(policy, 41);

  struct Outcome {
    std::uint64_t spurious = 0;
    std::uint64_t piggyback_fresh = 0;
  };
  const auto run_with = [&](bool measurement_on) {
    ScenarioParams params = measured_params();
    params.measurement.enabled = measurement_on;
    params.measurement.export_horizon = 2.0;
    params.reliable_ctrl = true;  // exports retransmit through the loss
    params.timings.heartbeat_interval = 0.05;
    params.timings.heartbeat_miss = 3;
    params.timings.heartbeat_horizon = 2.0;
    params.faults.seed = 41;
    params.faults.msg_loss = 0.6;
    Scenario scenario(policy, params);
    const auto& stats = scenario.run(flows);
    return Outcome{stats.spurious_failovers, stats.export_piggyback_fresh};
  };

  const auto without = run_with(false);
  ASSERT_GT(without.spurious, 0u)
      << "lossy quiet-authority baseline must misfire for the piggyback "
         "comparison to mean anything";
  const auto with = run_with(true);
  EXPECT_LT(with.spurious, without.spurious);
  EXPECT_GT(with.piggyback_fresh, 0u);
}

}  // namespace
}  // namespace difane
