// Quickstart: the DIFANE pipeline end to end on a policy small enough to
// read. Builds a 7-rule policy, partitions it across two authority
// switches, shows the partition plan and the rules installed in each
// switch, then pushes a few packets through and narrates what happens.
#include <cstdio>

#include "core/system.hpp"
#include "util/table.hpp"
#include "workload/rulegen.hpp"

using namespace difane;

namespace {

RuleTable build_policy() {
  // An enterprise-flavored mini ACL:
  //   block a quarantined /24, allow web+ssh to the server block,
  //   drop all other TCP to the servers, default-forward everything else.
  RuleTable policy;
  RuleId id = 0;

  auto add = [&](Priority priority, Ternary match, Action action) {
    Rule r;
    r.id = id++;
    r.priority = priority;
    r.match = match;
    r.action = action;
    r.weight = 0.1;
    policy.add(r);
  };

  Ternary quarantine;
  match_prefix(quarantine, Field::kIpSrc, make_ipv4(10, 66, 6, 0), 24);
  add(500, quarantine, Action::drop());

  Ternary web;
  match_prefix(web, Field::kIpDst, make_ipv4(10, 1, 0, 0), 16);
  match_exact(web, Field::kIpProto, 6);
  match_exact(web, Field::kTpDst, 80);
  add(400, web, Action::forward(1));

  Ternary ssh = web;
  // (rebuild rather than mutate: ssh needs port 22)
  ssh = Ternary();
  match_prefix(ssh, Field::kIpDst, make_ipv4(10, 1, 0, 0), 16);
  match_exact(ssh, Field::kIpProto, 6);
  match_exact(ssh, Field::kTpDst, 22);
  add(400, ssh, Action::forward(1));

  Ternary tcp_servers;
  match_prefix(tcp_servers, Field::kIpDst, make_ipv4(10, 1, 0, 0), 16);
  match_exact(tcp_servers, Field::kIpProto, 6);
  add(300, tcp_servers, Action::drop());

  Ternary udp_monitor;
  match_exact(udp_monitor, Field::kIpProto, 17);
  match_exact(udp_monitor, Field::kTpDst, 514);  // syslog
  add(200, udp_monitor, Action::forward(2));

  Ternary dns;
  match_exact(dns, Field::kIpProto, 17);
  match_exact(dns, Field::kTpDst, 53);
  add(200, dns, Action::forward(0));

  add(0, Ternary::wildcard(), Action::forward(0));
  return policy;
}

BitVec packet(std::uint32_t src, std::uint32_t dst, std::uint8_t proto,
              std::uint16_t dport) {
  return PacketBuilder().ip_src(src).ip_dst(dst).ip_proto(proto).tp_dst(dport).build();
}

}  // namespace

int main() {
  std::printf("DIFANE quickstart\n=================\n\n");
  const RuleTable policy = build_policy();

  std::printf("policy (%zu rules):\n", policy.size());
  for (const auto& rule : policy.rules()) {
    std::printf("  %s\n", rule.to_string().c_str());
  }

  // Two edge switches, two core switches; both cores act as authorities.
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 2;
  params.core_switches = 2;
  params.authority_count = 2;
  params.edge_cache_capacity = 100;
  params.partitioner.capacity = 4;  // force a real partition
  params.cache_strategy = CacheStrategy::kCoverSet;
  Scenario scenario(policy, params);

  std::printf("\npartition plan (%zu partitions over %u authority switches):\n",
              scenario.plan()->partitions().size(), scenario.plan()->authority_count());
  for (const auto& p : scenario.plan()->partitions()) {
    std::printf("  partition %u -> authority %u (backup %u): %zu rules, region %s\n",
                p.id, p.primary, p.backup, p.rules.size(),
                pattern_to_string(p.region).c_str());
  }

  std::printf("\nswitch tables after proactive install:\n");
  for (SwitchId id = 0; id < scenario.net().switch_count(); ++id) {
    std::printf("  %s\n", scenario.net().sw(id).describe().c_str());
  }
  for (const SwitchId sw : scenario.difane()->authority_switches()) {
    const AuthorityNode& node = *scenario.difane()->node_at(sw);
    std::printf("  authority switch %u: %zu partitions bound, %zu authority rules\n", sw,
                node.partition_count(), node.rule_count());
  }

  // Drive a handful of flows: same flow twice (cache hit on the second),
  // a quarantined source, and a DNS lookup.
  std::vector<FlowSpec> flows;
  auto flow = [&](std::uint64_t id, BitVec header, double start) {
    FlowSpec f;
    f.id = id;
    f.header = header;
    f.start = start;
    f.packets = 2;           // second packet shows the cached fast path
    f.packet_gap = 0.01;
    f.ingress_index = 0;
    flows.push_back(f);
  };
  flow(1, packet(make_ipv4(192, 168, 1, 5), make_ipv4(10, 1, 3, 4), 6, 80), 0.001);
  flow(2, packet(make_ipv4(10, 66, 6, 66), make_ipv4(10, 1, 3, 4), 6, 80), 0.050);
  flow(3, packet(make_ipv4(192, 168, 1, 9), make_ipv4(8, 8, 8, 8), 17, 53), 0.100);

  const auto& stats = scenario.run(flows);

  std::printf("\nrun summary:\n  %s\n", stats.tracer.summary().c_str());
  std::printf("  redirects (first packets via authority): %llu\n",
              static_cast<unsigned long long>(stats.redirects));
  std::printf("  ingress cache hits (later packets):      %llu\n",
              static_cast<unsigned long long>(stats.ingress_cache_hits));
  std::printf("  cache installs pushed to ingress:        %llu (%llu rules)\n",
              static_cast<unsigned long long>(stats.cache_installs),
              static_cast<unsigned long long>(stats.cache_rules_installed));
  if (stats.tracer.first_packet_delay().count() > 0) {
    std::printf("  first-packet delay (median): %.3f ms\n",
                stats.tracer.first_packet_delay().percentile(0.5) * 1e3);
  }
  if (stats.tracer.later_packet_delay().count() > 0) {
    std::printf("  later-packet delay (median): %.3f ms\n",
                stats.tracer.later_packet_delay().percentile(0.5) * 1e3);
  }
  std::printf("\nedge switch 0 cache after the run:\n");
  const auto& cache =
      scenario.net().sw(scenario.ingress_switch(0)).table().entries(Band::kCache);
  for (const auto& entry : cache) {
    std::printf("  %s\n", entry.rule.to_string().c_str());
  }
  return 0;
}
