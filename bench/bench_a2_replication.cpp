// A2 (ablation) — Hot-partition replication. All setup load lands in one
// partition's region of flow space; replication lets ingresses spread their
// redirects across several authority switches holding the same partition,
// lifting the hot partition's setup ceiling.
#include "common.hpp"

using namespace difane;
using namespace difane::bench;

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "A2", /*default_seed=*/211);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header("A2: hot-partition setup throughput vs replication factor",
                   "authority replication discussion (load distribution)",
                   "completions scale with replicas until the offered load or the "
                   "replica count is exhausted");
    }

    const std::size_t policy_size = args.pick<std::size_t>(800, 400);
    const auto policy = classbench_like(policy_size, rep.seed);
    rep.report.params["policy_rules"] = obs::Json(policy_size);
    const double duration = args.pick(0.03, 0.012);
    const double offered = 2.4e6;  // 3x one authority switch
    rep.set("offered_flows_per_s", offered);

    TextTable table({"replicas", "offered (flows/s)", "completed (flows/s)",
                     "queue rejects"});
    for (const std::uint32_t replicas : {1u, 2u, 3u, 4u}) {
      ScenarioParams params;
      params.mode = Mode::kDifane;
      params.edge_switches = 4;
      params.core_switches = 4;
      params.authority_count = 4;
      params.authority_replicas = replicas;
      params.edge_cache_capacity = 1u << 20;
      params.partitioner.capacity = 400;
      params.cache_strategy = CacheStrategy::kMicroflow;
      Scenario scenario(policy, params);

      // Generate the hot load inside one concrete partition region.
      const Ternary hot = scenario.plan()->partitions()[0].region;
      Rng rng(rep.seed + 1);
      std::vector<FlowSpec> flows;
      double t = 0.0;
      std::uint64_t id = 0;
      while (t < duration) {
        t += rng.exponential(offered);
        FlowSpec f;
        f.id = id++;
        f.header = hot.sample_point(rng);
        f.start = t;
        f.packets = 1;
        f.ingress_index = static_cast<std::uint32_t>(id % 4);
        flows.push_back(std::move(f));
      }
      const auto& stats = scenario.run(flows);
      rep.set(tag("completed_flows_per_s_r", replicas), stats.setup_completions.rate());
      rep.set(tag("queue_rejects_r", replicas), static_cast<double>(stats.queue_rejects));
      table.add_row({TextTable::integer(replicas), TextTable::num(offered, 0),
                     TextTable::num(stats.setup_completions.rate(), 0),
                     TextTable::integer(static_cast<long long>(stats.queue_rejects))});
    }
    if (rep.verbose) std::printf("%s\n", table.render().c_str());
  });
}
