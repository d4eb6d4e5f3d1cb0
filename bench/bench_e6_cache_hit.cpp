// E6 — Cache effectiveness: ingress cache-hit fraction vs cache size, for
// DIFANE's wildcard caching (dependent-set and cover-set splicing) against
// the Ethane/NOX-era microflow (exact-match) cache, under Zipf traffic.
// This is the premise experiment: wildcard rules let a small TCAM absorb
// most traffic; microflow entries cannot share across flows.
#include "common.hpp"

using namespace difane;
using namespace difane::bench;

namespace {

const char* strategy_slug(CacheStrategy strategy) {
  switch (strategy) {
    case CacheStrategy::kMicroflow: return "microflow";
    case CacheStrategy::kDependentSet: return "dependent_set";
    case CacheStrategy::kCoverSet: return "cover_set";
    case CacheStrategy::kNone: return "none";
  }
  return "unknown";
}

// One heavy-tail workload row, measured with the elephant policy OFF and ON.
struct HeavyRow {
  const char* slug;
  double alpha;
  TrafficMode mode;
};

// What a heavy-tail cell measures: cache effectiveness (hit rate), the TCAM
// footprint left behind (live entries + total install writes), and the
// policy's own accounting.
struct HeavyCell {
  double hit_pct = 0.0;
  double tcam_final = 0.0;
  double installs = 0.0;
  double bypassed = 0.0;
  double promotions = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "E6", /*default_seed=*/37);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header("E6: ingress cache-hit rate vs cache size",
                   "wildcard-caching motivation (and the CacheFlow-style splice "
                   "comparison)",
                   "wildcard strategies reach high hit rates with small caches; "
                   "microflow needs far more entries");
    }

    // Many distinct microflows per policy rule (100K-flow pool over a 1K-rule
    // policy): a cached wildcard rule aggregates every flow it covers, while a
    // microflow entry serves only exact repeats. This flow-to-rule ratio is
    // what makes wildcard caching the winning design in the paper.
    const std::size_t policy_size = args.pick<std::size_t>(1000, 400);
    const auto policy = classbench_like(policy_size, 31);
    rep.report.params["policy_rules"] = obs::Json(policy_size);
    const double duration = args.pick(1.5, 0.4);
    const std::size_t pool = args.pick<std::size_t>(100000, 30000);

    TextTable table({"cache entries", "microflow hit%", "dependent-set hit%",
                     "cover-set hit%"});
    const std::vector<std::size_t> caches =
        args.quick ? std::vector<std::size_t>{50u, 200u, 800u}
                   : std::vector<std::size_t>{25u, 50u, 100u, 200u, 400u, 800u, 1600u};
    const CacheStrategy strategies[] = {CacheStrategy::kMicroflow,
                                        CacheStrategy::kDependentSet,
                                        CacheStrategy::kCoverSet};
    constexpr std::size_t kStrategies = 3;
    // Each (cache size, strategy) pair is an independent cell; run them on
    // the worker pool and emit metrics/rows serially afterwards.
    std::vector<double> hit_pct(caches.size() * kStrategies);
    run_cells(args.threads, hit_pct.size(), [&](std::size_t cell) {
      const std::size_t cache = caches[cell / kStrategies];
      const CacheStrategy strategy = strategies[cell % kStrategies];
      auto params = difane_params(2, strategy, cache);
      // An authority that knows the ingress budget can afford bigger splice
      // groups on bigger caches.
      params.max_splice_cost = std::max<std::size_t>(8, cache / 4);
      Scenario scenario(policy, params);
      const auto flows =
          zipf_traffic(policy, /*rate=*/20000.0, duration, pool, /*skew=*/0.9,
                       rep.seed, /*mean_packets=*/1.0);
      hit_pct[cell] = scenario.run(flows).cache_hit_fraction() * 100.0;
    });
    for (std::size_t c = 0; c < caches.size(); ++c) {
      const std::size_t cache = caches[c];
      std::vector<std::string> row{TextTable::integer(static_cast<long long>(cache))};
      for (std::size_t s = 0; s < kStrategies; ++s) {
        const double pct = hit_pct[c * kStrategies + s];
        rep.set(std::string("hit_pct_") + strategy_slug(strategies[s]) +
                    tag("_cap", static_cast<double>(cache)),
                pct);
        row.push_back(TextTable::num(pct, 1));
      }
      table.add_row(std::move(row));
    }
    if (rep.verbose) std::printf("%s\n", table.render().c_str());

    // ---------------------------------------------------------------------
    // Heavy-tail rows: elephant-aware install policy OFF vs ON, per workload
    // mode. Flows are sparse (40ms packet gap) and heavy-tailed; the 35ms
    // base idle timeout cannot bridge the gap, so the plain cache pays a
    // miss per packet on long flows AND churns a TCAM slot for every one of
    // them. ON bypasses mice, puts unproven flows on a 5ms probation leash,
    // and pins detected elephants just past the gap. The acceptance gate for
    // this table: at Zipf α=1.2, ON beats OFF on hit rate AND leaves fewer
    // live TCAM entries behind.
    const std::vector<HeavyRow> rows =
        args.quick
            ? std::vector<HeavyRow>{{"zipf_1_2", 1.2, TrafficMode::kPoissonZipf},
                                    {"storm", 1.0, TrafficMode::kMiceStorm}}
            : std::vector<HeavyRow>{{"zipf_0_8", 0.8, TrafficMode::kPoissonZipf},
                                    {"zipf_1_2", 1.2, TrafficMode::kPoissonZipf},
                                    {"zipf_1_6", 1.6, TrafficMode::kPoissonZipf},
                                    {"flash", 1.0, TrafficMode::kFlashCrowd},
                                    {"storm", 1.0, TrafficMode::kMiceStorm},
                                    {"diurnal", 1.0, TrafficMode::kDiurnal}};
    const double ht_duration = args.pick(1.2, 1.0);
    const std::size_t ht_pool = 10000;
    const double ht_rate = 20000.0;
    std::vector<HeavyCell> cells(rows.size() * 2);
    run_cells(args.threads, cells.size(), [&](std::size_t cell) {
      const HeavyRow& hr = rows[cell / 2];
      const bool on = (cell % 2) == 1;
      auto params = difane_params(2, CacheStrategy::kMicroflow, /*cache=*/512);
      params.timings.cache_idle_timeout = 0.035;
      params.elephants = elephant_policy(on);
      // Sample TCAM occupancy at the end of the arrival window, not after the
      // drain tail: the longest Pareto flows keep the engine running seconds
      // past the last arrival, by which time every short-idle entry would
      // have expired and the footprint comparison would be meaningless.
      params.occupancy_sample_at = ht_duration;
      Scenario scenario(policy, params);
      TrafficGenerator gen(policy, heavy_tail_params(rep.seed, hr.alpha, ht_rate,
                                                     ht_duration, ht_pool, hr.mode));
      const auto& stats = scenario.run(gen.generate());
      HeavyCell& out = cells[cell];
      out.hit_pct = stats.cache_hit_fraction() * 100.0;
      out.tcam_final = static_cast<double>(stats.cache_entries_final);
      out.installs = static_cast<double>(stats.cache_rules_installed);
      out.bypassed = static_cast<double>(stats.mice_bypassed);
      out.promotions = static_cast<double>(stats.elephant_promotions);
    });
    TextTable ht_table({"workload", "policy", "hit%", "tcam live", "installs",
                        "bypassed", "promotions"});
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const HeavyRow& hr = rows[c / 2];
      const bool on = (c % 2) == 1;
      const HeavyCell& cell = cells[c];
      const std::string suffix =
          std::string("_elephant_") + (on ? "on" : "off") + "_" + hr.slug;
      rep.set("hit_pct" + suffix, cell.hit_pct);
      rep.set("tcam_final" + suffix, cell.tcam_final);
      rep.set("tcam_installs" + suffix, cell.installs);
      rep.set("bypass_mice" + suffix, cell.bypassed);
      rep.set("promotions" + suffix, cell.promotions);
      ht_table.add_row({hr.slug, on ? "elephant" : "plain",
                        TextTable::num(cell.hit_pct, 1),
                        TextTable::num(cell.tcam_final, 0),
                        TextTable::num(cell.installs, 0),
                        TextTable::num(cell.bypassed, 0),
                        TextTable::num(cell.promotions, 0)});
    }
    if (rep.verbose) {
      std::printf("heavy-tail workloads (cache 512, base idle 35ms, 40ms "
                  "packet gap):\n%s\n",
                  ht_table.render().c_str());
    }
  });
}
