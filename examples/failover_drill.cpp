// Failover drill: kill an authority switch mid-run and watch DIFANE
// re-point its partitions to the pre-positioned backups. Prints a timeline
// of the loss window and the recovery.
#include <cstdio>

#include "core/system.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

using namespace difane;

int main() {
  std::printf("DIFANE failover drill\n=====================\n\n");
  const auto policy = classbench_like(1000, 404);

  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 4;
  params.core_switches = 3;
  params.authority_count = 3;
  params.edge_cache_capacity = 1u << 16;
  params.partitioner.capacity = 200;
  // Microflow caching keeps redirects flowing, so the drill exercises the
  // authority switches throughout.
  params.cache_strategy = CacheStrategy::kMicroflow;
  params.timings.failover_detect = 0.1;
  // Authority 0 crashes at t=2.0s and stays down.
  AuthorityCrash crash;
  crash.at = 2.0;
  params.faults.crashes.push_back(crash);
  Scenario scenario(policy, params);

  const auto authorities = scenario.difane()->authority_switches();
  std::printf("authority switches:");
  for (const auto sw : authorities) std::printf(" %u", sw);
  std::printf("\npartitions: %zu\n", scenario.plan()->partitions().size());
  std::size_t victim_partitions = 0;
  for (const auto& p : scenario.plan()->partitions()) {
    if (scenario.difane()->authority_switch(p.primary) == authorities[0]) {
      ++victim_partitions;
    }
  }
  std::printf("victim: switch %u (primary for %zu partitions)\n", authorities[0],
              victim_partitions);
  std::printf("timeline: traffic 0..4s; failure at t=2.0s; detection after %.0f ms\n\n",
              params.timings.failover_detect * 1e3);

  TrafficParams tp;
  tp.seed = 505;
  tp.flow_pool = 1u << 20;
  tp.zipf_s = 0.0;
  tp.arrival_rate = 3000.0;
  tp.duration = 4.0;
  tp.mean_packets = 1.0;
  tp.max_packets = 1.0;
  tp.ingress_count = 4;
  TrafficGenerator gen(policy, tp);
  const auto flows = gen.generate();

  const auto& stats = scenario.run(flows);

  const auto lost = stats.tracer.dropped(DropReason::kSwitchFailed) +
                    stats.tracer.dropped(DropReason::kUnreachable);
  std::printf("injected flows:        %zu\n", flows.size());
  std::printf("completed setups:      %llu (%.2f%%)\n",
              static_cast<unsigned long long>(stats.setup_completions.total()),
              100.0 * static_cast<double>(stats.setup_completions.total()) /
                  static_cast<double>(flows.size()));
  std::printf("lost in failover:      %llu packets (%.2f%% of traffic)\n",
              static_cast<unsigned long long>(lost),
              100.0 * static_cast<double>(lost) /
                  static_cast<double>(stats.tracer.injected()));
  std::printf("expected loss window:  ~%.0f ms of the victim's share (1/%zu of "
              "flow space)\n",
              params.timings.failover_detect * 1e3, authorities.size());
  std::printf("\nfinal state:\n");
  for (SwitchId id = 0; id < scenario.net().switch_count(); ++id) {
    std::printf("  %s\n", scenario.net().sw(id).describe().c_str());
  }
  for (const SwitchId sw : scenario.difane()->authority_switches()) {
    const AuthorityNode& node = *scenario.difane()->node_at(sw);
    std::printf("  authority switch %u: %zu partitions bound, %zu authority rules\n", sw,
                node.partition_count(), node.rule_count());
  }
  std::printf("\nAfter detection, partition rules at every ingress were "
              "re-pointed to the backup authority switches, which already "
              "held replicated authority rules — no controller round trip on "
              "the packet path at any time.\n");
  return 0;
}
