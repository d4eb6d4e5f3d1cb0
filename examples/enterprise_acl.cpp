// Enterprise scenario: a campus-scale ACL (thousands of rules) served by
// DIFANE on a two-tier network under realistic Zipf traffic. Prints the
// partitioning summary, cache behaviour over time, and the delay/stretch
// profile an operator would care about.
#include <cstdio>

#include "core/system.hpp"
#include "util/table.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

using namespace difane;

int main(int argc, char** argv) {
  const std::size_t rules = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 5000;
  const double duration = argc > 2 ? std::atof(argv[2]) : 3.0;

  std::printf("Enterprise ACL scenario: %zu rules, %.1fs of traffic\n\n", rules,
              duration);
  const auto policy = classbench_like(rules, 2026);

  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 8;
  params.core_switches = 4;
  params.authority_count = 4;
  params.edge_cache_capacity = 2000;  // a realistic TCAM budget
  params.partitioner.capacity = 2000;
  params.cache_strategy = CacheStrategy::kCoverSet;
  Scenario scenario(policy, params);

  const auto& plan = *scenario.plan();
  std::printf("partitioning: %zu partitions, duplication %.2fx\n",
              plan.partitions().size(), plan.duplication_factor());
  const auto loads = plan.rules_per_authority();
  for (std::size_t a = 0; a < loads.size(); ++a) {
    std::printf("  authority switch %zu: %zu TCAM entries\n", a, loads[a]);
  }

  TrafficParams tp;
  tp.seed = 99;
  tp.flow_pool = 50000;
  tp.zipf_s = 1.0;
  tp.arrival_rate = 5000.0;
  tp.duration = duration;
  tp.mean_packets = 8.0;
  tp.ingress_count = 8;
  TrafficGenerator gen(policy, tp);
  const auto flows = gen.generate();
  std::printf("\ntraffic: %zu flows, Zipf(s=%.1f) over %zu distinct headers\n",
              flows.size(), tp.zipf_s, tp.flow_pool);

  const auto& stats = scenario.run(flows);

  std::printf("\nresults\n-------\n");
  std::printf("packets: %s\n", stats.tracer.summary().c_str());
  std::printf("ingress cache hit fraction: %.1f%%\n",
              stats.cache_hit_fraction() * 100.0);
  std::printf("cache installs: %llu (%llu rules; %.1f rules/install)\n",
              static_cast<unsigned long long>(stats.cache_installs),
              static_cast<unsigned long long>(stats.cache_rules_installed),
              stats.cache_installs
                  ? static_cast<double>(stats.cache_rules_installed) /
                        static_cast<double>(stats.cache_installs)
                  : 0.0);
  TextTable delays({"metric", "p50", "p90", "p99"});
  const auto& first = stats.tracer.first_packet_delay();
  const auto& later = stats.tracer.later_packet_delay();
  if (!first.empty()) {
    delays.add_row({"first-packet delay (ms)",
                    TextTable::num(first.percentile(0.5) * 1e3, 3),
                    TextTable::num(first.percentile(0.9) * 1e3, 3),
                    TextTable::num(first.percentile(0.99) * 1e3, 3)});
  }
  if (!later.empty()) {
    delays.add_row({"later-packet delay (ms)",
                    TextTable::num(later.percentile(0.5) * 1e3, 3),
                    TextTable::num(later.percentile(0.9) * 1e3, 3),
                    TextTable::num(later.percentile(0.99) * 1e3, 3)});
  }
  if (!stats.stretch.empty()) {
    delays.add_row({"path stretch (x)", TextTable::num(stats.stretch.percentile(0.5), 2),
                    TextTable::num(stats.stretch.percentile(0.9), 2),
                    TextTable::num(stats.stretch.percentile(0.99), 2)});
  }
  std::printf("\n%s", delays.render().c_str());

  std::printf("\nper-switch state at end of run:\n");
  for (SwitchId id = 0; id < scenario.net().switch_count(); ++id) {
    std::printf("  %s\n", scenario.net().sw(id).describe().c_str());
  }
  for (const SwitchId sw : scenario.difane()->authority_switches()) {
    const AuthorityNode& node = *scenario.difane()->node_at(sw);
    std::printf("  authority switch %u: %zu partitions bound, %zu authority rules\n", sw,
                node.partition_count(), node.rule_count());
  }
  return 0;
}
