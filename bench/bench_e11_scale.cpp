// E11 — scale-out stress tier. Not a paper figure: this tier exists to prove
// the engine holds production-scale state — ≥10M installed rules and ≥1M
// concurrent flows in flight — on the fault-free DIFANE data plane, and to
// track what that costs (RSS high-water, wall time) across the trajectory.
//
// Metric conventions:
//   * Deterministic (gated byte-identical by bench_compare): rule counts,
//     flow counts, peak concurrency, delivery counters — all derived from
//     the simulation, reproducible from the seed on any host.
//   * Host measurements (exempt, "_wall_"/"_rss_" keys): build/run wall
//     time and RSS high-water.
//
// The full tier is deliberately heavy (minutes, ~10 GiB); --quick shrinks
// every axis into CI territory while keeping the same metric keys so the
// BASELINE gate covers the protocol end to end.
#include <sys/resource.h>

#include <algorithm>

#include "common.hpp"

using namespace difane;
using namespace difane::bench;

namespace {

double rss_high_water_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double wall_s(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Peak number of flows simultaneously in flight: sweep over each flow's
// [first packet, last packet] span. Deterministic — computed from the
// generated schedule, not from execution.
std::uint64_t peak_concurrency(const std::vector<FlowSpec>& flows) {
  std::vector<std::pair<double, int>> events;
  events.reserve(flows.size() * 2);
  for (const auto& f : flows) {
    const double end =
        f.start + static_cast<double>(f.packets > 0 ? f.packets - 1 : 0) *
                      f.packet_gap;
    events.emplace_back(f.start, +1);
    events.emplace_back(end, -1);
  }
  // Ends sort before starts at the same instant ((t,-1) < (t,+1)), so a
  // flow whose last packet coincides with another's first does not count as
  // overlapping — the conservative reading.
  std::sort(events.begin(), events.end());
  // Signed: a single-packet flow's end coincides with its start and sweeps
  // first, dipping the running count below zero transiently.
  std::int64_t live = 0, peak = 0;
  for (const auto& [t, delta] : events) {
    (void)t;
    live += delta;
    peak = std::max(peak, live);
  }
  return static_cast<std::uint64_t>(std::max<std::int64_t>(peak, 0));
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "E11", /*default_seed=*/29);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header(
          "E11: scale-out stress tier (10M rules / 1M concurrent flows)",
          "none — production-scale capacity proof for the event engine",
          "construction near-linear in rules; run survives 1M in-flight flows");
    }

    const std::size_t rules_target = args.pick<std::size_t>(10'000'000, 50'000);
    const std::size_t concurrent_target = args.pick<std::size_t>(1'000'000, 10'000);

    auto t0 = std::chrono::steady_clock::now();
    const auto policy = campus_like(rules_target, rep.seed);
    const double policy_wall = wall_s(t0);

    ScenarioParams params;
    params.mode = Mode::kDifane;
    params.edge_switches = 8;
    params.core_switches = 8;
    params.authority_count = 8;
    params.edge_cache_capacity = 1u << 21;
    params.partitioner.capacity = args.pick<std::size_t>(32768, 2048);
    params.cache_strategy = CacheStrategy::kMicroflow;
    rep.report.params["rules_target"] = obs::Json(rules_target);
    rep.report.params["concurrent_target"] = obs::Json(concurrent_target);
    rep.report.params["partition_capacity"] = obs::Json(params.partitioner.capacity);

    t0 = std::chrono::steady_clock::now();
    Scenario scenario(policy, params);
    const double build_wall = wall_s(t0);

    // Count what actually landed in hardware: the policy once per serving
    // replica in the authority band, plus the per-switch partition band.
    std::uint64_t authority_entries = 0, partition_entries = 0;
    Network& net = scenario.net();
    for (SwitchId id = 0; id < net.switch_count(); ++id) {
      authority_entries += net.sw(id).table().size(Band::kAuthority);
      partition_entries += net.sw(id).table().size(Band::kPartition);
    }

    // Arrival schedule sized so the in-flight plateau clears the target:
    // two-packet flows spanning 0.88 s, arrivals over 1 s at ~1.16x the
    // target rate => peak concurrency ~= 0.88 * rate > target.
    TrafficParams tp;
    tp.seed = rep.seed;
    tp.flow_pool = concurrent_target;
    tp.zipf_s = 1.05;
    tp.duration = 1.0;
    tp.arrival_rate = static_cast<double>(concurrent_target) * 1.3;
    // Flow length is bounded-Pareto(1, max_packets) scaled by mean/3; this
    // pair lands every draw in [2, 4] packets, so each flow spans at least
    // one packet_gap and stays in flight past the arrival window's end.
    tp.mean_packets = 6.0;
    tp.max_packets = 2.0;
    tp.packet_gap = 0.88;
    tp.ingress_count = 8;
    t0 = std::chrono::steady_clock::now();
    TrafficGenerator gen(policy, tp);
    const auto flows = gen.generate();
    const double traffic_wall = wall_s(t0);
    const std::uint64_t peak = peak_concurrency(flows);

    t0 = std::chrono::steady_clock::now();
    const auto& stats = scenario.run(flows);
    const double run_wall = wall_s(t0);

    const bool targets_met = policy.size() >= rules_target &&
                             authority_entries >= rules_target &&
                             peak >= concurrent_target;
    rep.set("scale_policy_rules", static_cast<double>(policy.size()));
    rep.set("scale_authority_entries", static_cast<double>(authority_entries));
    rep.set("scale_partition_entries", static_cast<double>(partition_entries));
    rep.set("scale_flows", static_cast<double>(flows.size()));
    rep.set("scale_peak_concurrent_flows", static_cast<double>(peak));
    rep.set("scale_packets_injected", static_cast<double>(stats.tracer.injected()));
    rep.set("scale_packets_delivered", static_cast<double>(stats.tracer.delivered()));
    rep.set("scale_cache_hits", static_cast<double>(stats.ingress_cache_hits));
    rep.set("scale_targets_met", targets_met ? 1.0 : 0.0);
    rep.set("scale_policy_wall_s", policy_wall);
    rep.set("scale_build_wall_s", build_wall);
    rep.set("scale_traffic_wall_s", traffic_wall);
    rep.set("scale_run_wall_s", run_wall);
    rep.set("scale_rss_high_water_mib", rss_high_water_mib());

    if (rep.verbose) {
      TextTable table({"axis", "value"});
      table.add_row({"policy rules", TextTable::integer(policy.size())});
      table.add_row({"authority entries", TextTable::integer(authority_entries)});
      table.add_row({"partition entries", TextTable::integer(partition_entries)});
      table.add_row({"flow arrivals", TextTable::integer(flows.size())});
      table.add_row({"peak concurrent flows", TextTable::integer(peak)});
      table.add_row({"packets delivered", TextTable::integer(stats.tracer.delivered())});
      table.add_row({"build wall (s)", TextTable::num(build_wall, 1)});
      table.add_row({"run wall (s)", TextTable::num(run_wall, 1)});
      table.add_row({"RSS high-water (MiB)", TextTable::num(rss_high_water_mib(), 0)});
      std::printf("%s\n", table.render().c_str());
      std::printf("targets (%zu rules, %zu concurrent): %s\n", rules_target,
                  concurrent_target, targets_met ? "MET" : "MISSED");
    }
  });
}
