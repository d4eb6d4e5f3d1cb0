// E8 — Redirection cost: path stretch of first packets and the fraction of
// traffic taking the authority-switch detour, as a function of ingress cache
// size. DIFANE trades a bounded data-plane detour (vs a control-plane punt)
// for keeping packets moving; this quantifies the detour.
#include "common.hpp"

using namespace difane;
using namespace difane::bench;

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "E8", /*default_seed=*/53);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header("E8: path stretch and redirected-traffic fraction vs cache size",
                   "redirection-overhead discussion (stretch of the detour path)",
                   "stretch bounded by the two-tier detour (<2x); redirected "
                   "fraction falls as the cache grows");
    }

    const std::size_t policy_size = args.pick<std::size_t>(3000, 1000);
    const auto policy = classbench_like(policy_size, 47);
    rep.report.params["policy_rules"] = obs::Json(policy_size);
    const double duration = args.pick(2.0, 0.6);

    TextTable table({"cache entries", "redirected %", "stretch p50", "stretch p99",
                     "first-pkt delay p50 (ms)", "installs"});
    const std::vector<std::size_t> caches =
        args.quick ? std::vector<std::size_t>{0u, 200u, 1000u}
                   : std::vector<std::size_t>{0u, 50u, 200u, 1000u, 5000u};
    for (const std::size_t cache : caches) {
      // cache == 0 means pure redirection: no installs at all, every packet
      // detours. CacheStrategy::kNone declares that intent explicitly —
      // validate() rejects a zero-capacity cache under an installing strategy.
      auto params = difane_params(
          2, cache == 0 ? CacheStrategy::kNone : CacheStrategy::kCoverSet,
          std::max<std::size_t>(cache, 1));
      if (cache == 0) params.edge_cache_capacity = 0;
      Scenario scenario(policy, params);
      const auto flows = zipf_traffic(policy, 3000.0, duration, 4000, 1.0, rep.seed);
      const auto& stats = scenario.run(flows);
      const double redirected =
          100.0 * static_cast<double>(stats.tracer.redirected()) /
          static_cast<double>(stats.tracer.delivered() ? stats.tracer.delivered() : 1);
      const std::string suffix = tag("_cap", static_cast<double>(cache));
      rep.set("redirected_pct" + suffix, redirected);
      if (stats.stretch.count()) {
        rep.set("stretch_p50" + suffix, stats.stretch.percentile(0.5));
        rep.set("stretch_p99" + suffix, stats.stretch.percentile(0.99));
      }
      rep.set("installs" + suffix, static_cast<double>(stats.cache_installs));
      table.add_row(
          {TextTable::integer(static_cast<long long>(cache)),
           TextTable::num(redirected, 1),
           stats.stretch.count() ? TextTable::num(stats.stretch.percentile(0.5), 2) : "-",
           stats.stretch.count() ? TextTable::num(stats.stretch.percentile(0.99), 2) : "-",
           stats.tracer.first_packet_delay().count()
               ? TextTable::num(stats.tracer.first_packet_delay().percentile(0.5) * 1e3, 3)
               : "-",
           TextTable::integer(static_cast<long long>(stats.cache_installs))});
    }
    if (rep.verbose) std::printf("%s\n", table.render().c_str());

    // Topology sensitivity: in a folded-Clos an authority switch sits on most
    // shortest paths, so the detour is nearly free. On a chain the detour is
    // real: packets walk to the nearest authority node and back.
    if (rep.verbose) {
      std::printf("line topology (16-switch chain, 2 authority nodes)\n");
    }
    TextTable line({"cache entries", "redirected %", "stretch p50", "stretch p99",
                    "first-pkt delay p50 (ms)"});
    const std::vector<std::size_t> line_caches =
        args.quick ? std::vector<std::size_t>{0u, 200u}
                   : std::vector<std::size_t>{0u, 200u, 2000u};
    for (const std::size_t cache : line_caches) {
      ScenarioParams params;
      params.mode = Mode::kDifane;
      params.topology = TopologyKind::kLine;
      params.edge_switches = 16;
      params.core_switches = 2;
      params.authority_count = 2;
      params.edge_cache_capacity = cache;
      params.partitioner.capacity = 1000;
      params.cache_strategy =
          cache == 0 ? CacheStrategy::kNone : CacheStrategy::kCoverSet;
      Scenario scenario(policy, params);
      TrafficParams tp;
      tp.seed = rep.seed;
      tp.flow_pool = 4000;
      tp.zipf_s = 1.0;
      tp.arrival_rate = 2000.0;
      tp.duration = duration;
      tp.mean_packets = 5.0;
      tp.ingress_count = 16;
      TrafficGenerator gen(policy, tp);
      const auto& stats = scenario.run(gen.generate());
      const double redirected =
          100.0 * static_cast<double>(stats.tracer.redirected()) /
          static_cast<double>(stats.tracer.delivered() ? stats.tracer.delivered() : 1);
      const std::string suffix = tag("_cap", static_cast<double>(cache));
      rep.set("line_redirected_pct" + suffix, redirected);
      if (stats.stretch.count()) {
        rep.set("line_stretch_p50" + suffix, stats.stretch.percentile(0.5));
        rep.set("line_stretch_p99" + suffix, stats.stretch.percentile(0.99));
      }
      line.add_row(
          {TextTable::integer(static_cast<long long>(cache)),
           TextTable::num(redirected, 1),
           stats.stretch.count() ? TextTable::num(stats.stretch.percentile(0.5), 2) : "-",
           stats.stretch.count() ? TextTable::num(stats.stretch.percentile(0.99), 2) : "-",
           stats.tracer.first_packet_delay().count()
               ? TextTable::num(stats.tracer.first_packet_delay().percentile(0.5) * 1e3, 3)
               : "-"});
    }
    if (rep.verbose) std::printf("%s\n", line.render().c_str());
  });
}
