// E7 — Policy churn: cost of rule insert/delete with incremental partition
// maintenance vs a full repartition. DIFANE's controller must absorb policy
// updates without touching unrelated authority switches; the metric is how
// many partitions (and rule copies) each update disturbs, and wall-clock
// time per operation.
#include <chrono>

#include "common.hpp"

#include "partition/incremental.hpp"

using namespace difane;
using namespace difane::bench;

namespace {

Rule random_rule(Rng& rng, RuleId id) {
  Rule r;
  r.id = id;
  r.priority = static_cast<Priority>(rng.uniform(1, 5000));
  const auto dst = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffULL));
  match_prefix(r.match, Field::kIpDst, dst, 8 + rng.uniform(0, 24));
  if (rng.bernoulli(0.6)) {
    const auto src = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffULL));
    match_prefix(r.match, Field::kIpSrc, src, 8 + rng.uniform(0, 24));
  }
  if (rng.bernoulli(0.4)) {
    match_exact(r.match, Field::kIpProto, rng.bernoulli(0.5) ? 6 : 17);
  }
  r.action = rng.bernoulli(0.5) ? Action::drop() : Action::forward(1);
  return r;
}

// One heavy-tail cache-churn row, measured with the elephant policy OFF and
// ON. E7's angle (vs E6's hit-rate table) is the churn itself: how many TCAM
// install writes the workload costs and how many of them are dead weight the
// mice bypass could have skipped.
struct ChurnRow {
  const char* slug;
  double alpha;
  TrafficMode mode;
};

struct ChurnCell {
  double hit_pct = 0.0;
  double tcam_final = 0.0;
  double installs = 0.0;
  double churned = 0.0;  // install writes whose entry was gone at sample time
  double bypassed = 0.0;
  double promotions = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "E7", /*default_seed=*/43);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header("E7: policy-churn cost, incremental vs full repartition",
                   "network-dynamics discussion (policy changes)",
                   "incremental updates touch a small constant number of "
                   "partitions; full rebuild touches all of them");
    }

    const int ops = args.pick(400, 150);
    rep.report.params["ops"] = obs::Json(ops);
    const std::vector<std::size_t> policy_sizes =
        args.quick ? std::vector<std::size_t>{1000u}
                   : std::vector<std::size_t>{1000u, 5000u};
    for (const std::size_t policy_size : policy_sizes) {
      const auto policy = classbench_like(policy_size, 41);
      PartitionerParams params;
      params.capacity = std::max<std::size_t>(64, policy_size / 16);
      IncrementalPartitioner inc(policy, params, 4);
      const auto partitions_total = inc.partition_count();

      Rng rng(rep.seed);
      OnlineStats touched_insert, touched_remove;
      std::vector<RuleId> inserted;

      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < ops; ++i) {
        const Rule r = random_rule(rng, 900000 + static_cast<RuleId>(i));
        touched_insert.add(static_cast<double>(inc.insert(r).size()));
        inserted.push_back(r.id);
      }
      for (const auto id : inserted) {
        touched_remove.add(static_cast<double>(inc.remove(id).size()));
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double us_per_op =
          std::chrono::duration<double, std::micro>(t1 - t0).count() / (2.0 * ops);

      // Full repartition reference cost (time + everything touched).
      const auto t2 = std::chrono::steady_clock::now();
      const auto full = Partitioner(params).build(policy, 4);
      const auto t3 = std::chrono::steady_clock::now();
      const double full_ms = std::chrono::duration<double, std::milli>(t3 - t2).count();

      const std::string suffix = tag("_n", static_cast<double>(policy_size));
      rep.set("partitions_total" + suffix, static_cast<double>(partitions_total));
      rep.set("insert_touched_mean" + suffix, touched_insert.mean());
      rep.set("insert_touched_max" + suffix, touched_insert.max());
      rep.set("remove_touched_mean" + suffix, touched_remove.mean());
      rep.set("remove_touched_max" + suffix, touched_remove.max());
      // Host-timing metrics carry the _wall_ marker: exempt from determinism
      // comparisons in bench_compare and the tests.
      rep.set("incremental_wall_us_per_op" + suffix, us_per_op);
      rep.set("full_repartition_wall_ms" + suffix, full_ms);

      if (rep.verbose) {
        std::printf("policy: %zu rules, %zu partitions\n", policy.size(),
                    partitions_total);
        TextTable table({"operation", "avg partitions touched", "max", "of total",
                         "time/op"});
        table.add_row({"incremental insert", TextTable::num(touched_insert.mean(), 2),
                       TextTable::num(touched_insert.max(), 0),
                       TextTable::integer(static_cast<long long>(partitions_total)),
                       TextTable::num(us_per_op, 1) + " us"});
        table.add_row({"incremental remove", TextTable::num(touched_remove.mean(), 2),
                       TextTable::num(touched_remove.max(), 0),
                       TextTable::integer(static_cast<long long>(partitions_total)),
                       TextTable::num(us_per_op, 1) + " us"});
        table.add_row({"full repartition",
                       TextTable::num(static_cast<double>(full.partitions().size()), 0),
                       TextTable::num(static_cast<double>(full.partitions().size()), 0),
                       TextTable::integer(static_cast<long long>(full.partitions().size())),
                       TextTable::num(full_ms * 1000.0, 1) + " us"});
        std::printf("%s\n", table.render().c_str());
      }
    }

    // -----------------------------------------------------------------------
    // Heavy-tail cache churn: the flow-level analogue of the policy churn
    // above. Diurnal rotation and mice storms keep replacing the working set,
    // so the cache pays install writes continuously; the elephant policy's
    // mice bypass deletes the single-packet share of that churn outright and
    // the probation leash returns unproven slots quickly. Metrics: hit rate,
    // live TCAM entries at the end of the arrival window, total install
    // writes, and churned = installs that were already gone again by sample
    // time (the TCAM write amplification of the workload).
    const std::vector<ChurnRow> churn_rows =
        args.quick
            ? std::vector<ChurnRow>{{"diurnal", 1.0, TrafficMode::kDiurnal}}
            : std::vector<ChurnRow>{{"zipf_1_2", 1.2, TrafficMode::kPoissonZipf},
                                    {"storm", 1.0, TrafficMode::kMiceStorm},
                                    {"diurnal", 1.0, TrafficMode::kDiurnal}};
    const double ht_duration = args.pick(1.2, 1.0);
    const std::size_t ht_pool = 10000;
    const double ht_rate = 20000.0;
    const auto churn_policy = classbench_like(600, 31);
    std::vector<ChurnCell> cells(churn_rows.size() * 2);
    run_cells(args.threads, cells.size(), [&](std::size_t cell) {
      const ChurnRow& cr = churn_rows[cell / 2];
      const bool on = (cell % 2) == 1;
      auto params = difane_params(2, CacheStrategy::kMicroflow, /*cache=*/512);
      params.timings.cache_idle_timeout = 0.035;
      params.elephants = elephant_policy(on);
      params.occupancy_sample_at = ht_duration;
      Scenario scenario(churn_policy, params);
      TrafficGenerator gen(churn_policy,
                           heavy_tail_params(rep.seed, cr.alpha, ht_rate,
                                             ht_duration, ht_pool, cr.mode));
      const auto& stats = scenario.run(gen.generate());
      ChurnCell& out = cells[cell];
      out.hit_pct = stats.cache_hit_fraction() * 100.0;
      out.tcam_final = static_cast<double>(stats.cache_entries_final);
      out.installs = static_cast<double>(stats.cache_rules_installed);
      out.churned = out.installs > out.tcam_final ? out.installs - out.tcam_final
                                                  : 0.0;
      out.bypassed = static_cast<double>(stats.mice_bypassed);
      out.promotions = static_cast<double>(stats.elephant_promotions);
    });
    TextTable churn_table({"workload", "policy", "hit%", "tcam live",
                           "installs", "churned", "bypassed", "promotions"});
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const ChurnRow& cr = churn_rows[c / 2];
      const bool on = (c % 2) == 1;
      const ChurnCell& cell = cells[c];
      const std::string suffix =
          std::string("_elephant_") + (on ? "on" : "off") + "_" + cr.slug;
      rep.set("hit_pct" + suffix, cell.hit_pct);
      rep.set("tcam_final" + suffix, cell.tcam_final);
      rep.set("tcam_installs" + suffix, cell.installs);
      rep.set("tcam_churned" + suffix, cell.churned);
      rep.set("bypass_mice" + suffix, cell.bypassed);
      rep.set("promotions" + suffix, cell.promotions);
      churn_table.add_row({cr.slug, on ? "elephant" : "plain",
                           TextTable::num(cell.hit_pct, 1),
                           TextTable::num(cell.tcam_final, 0),
                           TextTable::num(cell.installs, 0),
                           TextTable::num(cell.churned, 0),
                           TextTable::num(cell.bypassed, 0),
                           TextTable::num(cell.promotions, 0)});
    }
    if (rep.verbose) {
      std::printf("heavy-tail cache churn (cache 512, base idle 35ms):\n%s\n",
                  churn_table.render().c_str());
    }

    // -----------------------------------------------------------------------
    // Live partition migration: the authority-level analogue of the rule
    // churn above. A make-before-break re-home keeps both copies of a
    // partition installed across the flip+drain window, so the costs are
    // (a) the rules moved to the destination, (b) the peak TCAM
    // double-occupancy while both copies are live, and (c) redirect stretch —
    // redirects per delivered packet — against an identical migration-off
    // run. Service must not degrade: deliveries match the off run's regime.
    struct MigrationCell {
      double started = 0.0;
      double completed = 0.0;
      double aborted = 0.0;
      double rules_moved = 0.0;
      double double_peak = 0.0;
      double inflight = 0.0;
      double redirect_stretch = 0.0;  // redirects per delivered packet
      double hit_pct = 0.0;
      double delivered = 0.0;
    };
    const double mig_duration = args.pick(0.5, 0.3);
    const auto mig_traffic = heavy_tail_params(rep.seed, 1.0, 12000.0,
                                               mig_duration, 4000,
                                               TrafficMode::kPoissonZipf);
    std::vector<MigrationCell> mig_cells(2);
    run_cells(args.threads, mig_cells.size(), [&](std::size_t cell) {
      const bool on = cell == 1;
      auto params = difane_params(3, CacheStrategy::kMicroflow, /*cache=*/512);
      params.timings.cache_idle_timeout = 0.035;
      params.reliable_ctrl = true;  // both cells: isolate the migration cost
      params.migration = on;
      Scenario scenario(churn_policy, params);
      if (on) {
        // Re-home a spread of partitions to the authority that is neither
        // their primary nor (under the 3-authority ring) their backup, so
        // every move installs real rules rather than flipping to a
        // pre-stocked replica. The plan shape is seed-deterministic, so the
        // same requests are issued on every run.
        const auto& parts = scenario.plan()->partitions();
        const std::size_t moves = std::min<std::size_t>(parts.size(), 6);
        for (std::size_t i = 0; i < moves; ++i) {
          const std::size_t index = (i * parts.size()) / moves;
          const auto dest = static_cast<AuthorityIndex>(
              (parts[index].primary + 2) % 3);
          scenario.request_rehome(index, dest,
                                  0.05 + 0.03 * static_cast<double>(i));
        }
      }
      TrafficGenerator gen(churn_policy, mig_traffic);
      const auto& stats = scenario.run(gen.generate());
      MigrationCell& out = mig_cells[cell];
      out.started = static_cast<double>(stats.migrations_started);
      out.completed = static_cast<double>(stats.migrations_completed);
      out.aborted = static_cast<double>(stats.migrations_aborted);
      out.rules_moved = static_cast<double>(stats.migration_rules_moved);
      out.double_peak = static_cast<double>(stats.migration_double_peak);
      out.inflight = static_cast<double>(stats.migration_inflight_redirects);
      const double delivered = static_cast<double>(stats.tracer.delivered());
      out.delivered = delivered;
      out.redirect_stretch =
          delivered > 0.0 ? static_cast<double>(stats.redirects) / delivered
                          : 0.0;
      out.hit_pct = stats.cache_hit_fraction() * 100.0;
    });
    TextTable mig_table({"migration", "moves done", "rules moved",
                         "double peak", "inflight redir", "redir/pkt", "hit%",
                         "delivered"});
    for (std::size_t c = 0; c < mig_cells.size(); ++c) {
      const bool on = c == 1;
      const MigrationCell& cell = mig_cells[c];
      const std::string suffix = on ? "_migration_on" : "_migration_off";
      rep.set("migrations_started" + suffix, cell.started);
      rep.set("migrations_completed" + suffix, cell.completed);
      rep.set("migrations_aborted" + suffix, cell.aborted);
      rep.set("migration_rules_moved" + suffix, cell.rules_moved);
      rep.set("migration_double_peak" + suffix, cell.double_peak);
      rep.set("migration_inflight_redirects" + suffix, cell.inflight);
      rep.set("redirect_stretch" + suffix, cell.redirect_stretch);
      rep.set("hit_pct" + suffix, cell.hit_pct);
      rep.set("delivered" + suffix, cell.delivered);
      mig_table.add_row({on ? "on" : "off",
                         TextTable::num(cell.completed, 0) + "/" +
                             TextTable::num(cell.started, 0),
                         TextTable::num(cell.rules_moved, 0),
                         TextTable::num(cell.double_peak, 0),
                         TextTable::num(cell.inflight, 0),
                         TextTable::num(cell.redirect_stretch, 3),
                         TextTable::num(cell.hit_pct, 1),
                         TextTable::num(cell.delivered, 0)});
    }
    if (rep.verbose) {
      std::printf(
          "live partition migration (3 authorities, make-before-break, "
          "drain 10ms):\n%s\n",
          mig_table.render().c_str());
    }
  });
}
