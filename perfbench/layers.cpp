#include "layers.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>

#include "ctrlchan/switch_agent.hpp"
#include "flowspace/dependency.hpp"
#include "netsim/engine.hpp"
#include "switchsim/flow_table.hpp"

namespace perfbench {
namespace {

using namespace difane;

// Per-call timings. A steady_clock::now() pair costs tens of nanoseconds,
// which is most of an exact-match cache hit, so each sample has the median
// cost of an empty pair taken off.
double clock_pair_ns() {
  SampleSet pairs;
  for (int i = 0; i < 20001; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    pairs.add(std::chrono::duration<double, std::nano>(b - a).count());
  }
  return pairs.median();
}

struct CallStats {
  SampleSet ns;
  double total_s = 0.0;

  void add(Clock::time_point a, Clock::time_point b, double overhead_ns) {
    const double v =
        std::max(0.0, std::chrono::duration<double, std::nano>(b - a).count() - overhead_ns);
    ns.add(v);
    total_s += v * 1e-9;
  }
  double pct(double q) const { return ns.empty() ? 0.0 : ns.percentile(q); }
  double count() const { return static_cast<double>(ns.count()); }
};

// Every injected packet in the order Scenario::run schedules them: flow-major
// insertion, stably sorted by arrival time (the engine breaks time ties by
// schedule order).
struct Arrival {
  double at;
  std::uint32_t flow;
  std::uint32_t ingress;
};

std::vector<Arrival> arrivals_in_order(const std::vector<FlowSpec>& flows,
                                       std::size_t edges) {
  std::vector<Arrival> out;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const FlowSpec& flow = flows[f];
    for (std::size_t p = 0; p < flow.packets; ++p) {
      out.push_back({flow.start + static_cast<double>(p) * flow.packet_gap,
                     static_cast<std::uint32_t>(f),
                     static_cast<std::uint32_t>(flow.ingress_index % edges)});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  return out;
}

bool full_mask(const Ternary& match) {
  for (auto word : match.care().w) {
    if (word != ~0ULL) return false;
  }
  return true;
}

struct IngressReplay {
  CallStats exact, wild, miss, install, find, match_index, handle;
  std::vector<bool> partition_used;  // by plan index: got at least one redirect
  std::uint64_t redirects = 0;
  FlowTableStats table;              // summed over the replay tables
};

// One cache-band FlowMod on its way to an ingress switch.
struct PendingMod {
  double at;  // when the switch agent applies it
  Rule rule;
  std::vector<RuleId> guards;
};

// Queues an install the way Scenario::install_cache sends it: the group
// sorted protectors first, each non-redirect member guarded by the earlier
// ones, groups larger than the cache skipped. Each FlowMod reaches the
// ingress agent `arrive` and is applied once the agent's FIFO has paid
// `flow_mod_cost` for it and every earlier FlowMod.
void queue_install(const CacheInstall& install, double arrive, double flow_mod_cost,
                   std::size_t capacity, double& agent_free,
                   std::deque<PendingMod>& queue) {
  if (install.rules.empty() || install.rules.size() > capacity) return;
  auto ordered = install.rules;
  std::sort(ordered.begin(), ordered.end(), rule_before);
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    std::vector<RuleId> guards;
    if (ordered[i].action.type != ActionType::kEncap) {
      for (std::size_t g = 0; g < i; ++g) guards.push_back(ordered[g].id);
    }
    agent_free = std::max(agent_free, arrive) + flow_mod_cost;
    queue.push_back({agent_free, std::move(ordered[i]), std::move(guards)});
  }
}

// Replays every ingress lookup in packet order against a fresh table per
// edge switch: the partition band from make_partition_rules (redirecting to
// the replica the controller picks for that switch), and the cache band fed
// by the authority's own handle() on each redirect, applied when the
// simulated install would land (link hop, authority service, control-channel
// latency, then the switch agent's per-FlowMod apply queue). The authority
// nodes are the scenario's, so their dependency graphs are already built
// (warm handle()). match_index and find are timed in a second pass over the
// redirected headers, so handle() does not run on rows they just touched.
IngressReplay replay_ingress(const TracedRep& rep, const std::vector<Arrival>& arrivals,
                             double overhead_ns) {
  Scenario& scenario = rep.scenario;
  DifaneController& ctl = *scenario.difane();
  const PartitionPlan& plan = ctl.plan();
  const ScenarioParams params = scenario_params(rep.workload);
  const Timings& tm = params.timings;
  const double arrive_delay = params.link.latency + tm.switch_proc +
                              tm.authority_service + tm.cache_install_latency;
  const double flow_mod_cost = SwitchAgentParams{}.flow_mod_cost;

  IngressReplay out;
  out.partition_used.assign(plan.partitions().size(), false);
  std::vector<std::unique_ptr<FlowTable>> tables;
  std::vector<std::deque<PendingMod>> pending(params.edge_switches);
  std::vector<double> agent_free(params.edge_switches, 0.0);
  const auto redirects = plan.make_partition_rules(0, 0x20000000u);
  for (std::size_t e = 0; e < params.edge_switches; ++e) {
    tables.push_back(std::make_unique<FlowTable>(params.edge_cache_capacity));
    const SwitchId sw = scenario.ingress_switch(static_cast<std::uint32_t>(e));
    std::vector<Rule> band = redirects;
    std::vector<const Rule*> ptrs;
    for (std::size_t p = 0; p < band.size(); ++p) {
      band[p].action = Action::encap(ctl.replica_for(plan.partitions()[p], sw));
      ptrs.push_back(&band[p]);
    }
    tables.back()->install_bulk(ptrs, Band::kPartition, 0.0);
  }

  // Applies every queued FlowMod due by `now` (all of them at the end: the
  // run keeps going until the agents' backlog has drained).
  auto apply_due = [&](std::size_t ingress, double now) {
    auto& queue = pending[ingress];
    while (!queue.empty() && queue.front().at <= now) {
      PendingMod& mod = queue.front();
      const auto t0 = Clock::now();
      tables[ingress]->install(mod.rule, Band::kCache, mod.at, tm.cache_idle_timeout,
                               0.0, std::move(mod.guards));
      const auto t1 = Clock::now();
      out.install.add(t0, t1, overhead_ns);
      queue.pop_front();
    }
  };

  std::vector<const BitVec*> redirected;
  for (const Arrival& a : arrivals) {
    FlowTable& table = *tables[a.ingress];
    auto& queue = pending[a.ingress];
    apply_due(a.ingress, a.at);
    const BitVec& header = rep.flows[a.flow].header;
    const auto t0 = Clock::now();
    const FlowEntry* entry = table.lookup(header, a.at);
    const auto t1 = Clock::now();
    if (entry != nullptr && entry->band == Band::kCache) {
      (full_mask(entry->rule.match) ? out.exact : out.wild).add(t0, t1, overhead_ns);
    } else {
      out.miss.add(t0, t1, overhead_ns);
    }
    if (entry == nullptr || entry->rule.action.type != ActionType::kEncap) continue;

    redirected.push_back(&header);
    AuthorityNode* node = ctl.node_at(entry->rule.action.arg);
    const auto h0 = Clock::now();
    auto result = node->handle(header);
    const auto h1 = Clock::now();
    out.handle.add(h0, h1, overhead_ns);
    if (result.has_value()) {
      queue_install(result->install, a.at + arrive_delay, flow_mod_cost,
                    params.edge_cache_capacity, agent_free[a.ingress], queue);
    }
  }
  for (std::size_t e = 0; e < tables.size(); ++e) {
    apply_due(e, std::numeric_limits<double>::infinity());
  }
  out.redirects = redirected.size();
  for (const auto& table : tables) {
    const FlowTableStats& s = table->stats();
    out.table.installs += s.installs;
    out.table.evictions += s.evictions;
    out.table.cascade_evictions += s.cascade_evictions;
  }

  for (const BitVec* header : redirected) {
    const auto f0 = Clock::now();
    const Partition& partition = plan.find(*header);
    const auto f1 = Clock::now();
    out.find.add(f0, f1, overhead_ns);
    const auto m0 = Clock::now();
    static_cast<void>(partition.rules.match_index(*header));  // only its cost counts
    const auto m1 = Clock::now();
    out.match_index.add(m0, m1, overhead_ns);
    out.partition_used[static_cast<std::size_t>(&partition - plan.partitions().data())] =
        true;
  }
  return out;
}

// Engine::at + Engine::run with `executed` empty handlers: one chain per
// injected packet, scheduled at its arrival time like Scenario::run does,
// each chain re-arming itself until the run's events-per-packet is spent.
double replay_dispatch_ns(const std::vector<Arrival>& arrivals, std::uint64_t executed) {
  if (arrivals.empty() || executed == 0) return 0.0;
  struct Chain {
    Engine* engine;
    std::uint64_t left;
    void operator()() const {
      if (left > 1) engine->after(1e-6, Chain{engine, left - 1});
    }
  };
  Engine engine;
  const std::uint64_t per = executed / arrivals.size();
  const std::uint64_t extra = executed % arrivals.size();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const std::uint64_t left = per + (i < extra ? 1 : 0);
    if (left > 0) engine.at(arrivals[i].at, Chain{&engine, left});
  }
  engine.run();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(engine.executed());
}

}  // namespace

std::vector<Metric> measure_layers(const TracedRep& rep, SpanLog& spans) {
  Scenario& scenario = rep.scenario;
  const ScenarioStats& stats = scenario.stats();
  const ScenarioParams params = scenario_params(rep.workload);
  const double overhead_ns = clock_pair_ns();
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit)});
  };
  const double run_s = spans.total("scenario.run");

  // Setup layers: the repetition's own spans, plus the two steps of the
  // DifaneController the Scenario constructor builds (partition the policy,
  // install authority and partition rules), replayed on a fresh network.
  {
    Network net;
    const TwoTierTopology topo =
        build_two_tier(net, params.edge_switches, params.core_switches,
                       params.edge_cache_capacity, params.edge_cache_capacity, params.link);
    DifaneControllerParams cp;
    cp.partitioner = params.partitioner;
    cp.cache_strategy = params.cache_strategy;
    cp.max_splice_cost = params.max_splice_cost;
    cp.replicas = params.authority_replicas;
    std::unique_ptr<DifaneController> ctl;
    {
      SpanScope s(&spans, "partition.build");
      ctl = std::make_unique<DifaneController>(
          net, rep.policy,
          std::vector<SwitchId>(topo.core.begin(), topo.core.begin() + params.authority_count),
          cp);
    }
    SpanScope s(&spans, "difane_controller.install");
    ctl->install_all();
  }
  const auto& partitions = scenario.plan()->partitions();
  std::size_t max_rules = 0;
  for (const auto& p : partitions) max_rules = std::max(max_rules, p.rules.size());
  std::size_t proactive_entries = 0;
  for (SwitchId sw = 0; sw < scenario.net().switch_count(); ++sw) {
    const FlowTable& table = scenario.net().sw(sw).table();
    proactive_entries += table.size(Band::kAuthority) + table.size(Band::kPartition);
  }
  add("workload.policy_gen_s", spans.total("workload.policy_gen"), "s");
  add("workload.traffic_gen_s", spans.total("workload.traffic_gen"), "s");
  add("partition.build_s", spans.total("partition.build"), "s");
  add("partition.count", static_cast<double>(partitions.size()), "count");
  add("partition.max_rules", static_cast<double>(max_rules), "count");
  add("difane_controller.install_s", spans.total("difane_controller.install"), "s");
  add("difane_controller.entries", static_cast<double>(proactive_entries), "count");

  // Run layers, replayed on this repetition's packets.
  const auto arrivals = arrivals_in_order(rep.flows, params.edge_switches);
  IngressReplay ing;
  {
    SpanScope s(&spans, "switchsim.replay");
    ing = replay_ingress(rep, arrivals, overhead_ns);
  }
  const bool builds_graph = params.cache_strategy == CacheStrategy::kCoverSet ||
                            params.cache_strategy == CacheStrategy::kDependentSet;
  double dep_s = 0.0;
  double dep_max_s = 0.0;
  std::size_t dep_edges = 0;
  {
    SpanScope all(&spans, "flowspace.dependency");
    for (std::size_t i = 0; builds_graph && i < partitions.size(); ++i) {
      if (!ing.partition_used[i]) continue;
      SpanScope one(&spans, "flowspace.dependency_build");
      const auto t0 = Clock::now();
      const DependencyGraph graph = build_dependency_graph(partitions[i].rules);
      const double s = seconds_between(t0, Clock::now());
      dep_s += s;
      dep_max_s = std::max(dep_max_s, s);
      dep_edges += graph.edge_count();
    }
  }
  const std::uint64_t executed = scenario.net().engine().executed();
  double dispatch_ns = 0.0;
  {
    SpanScope s(&spans, "netsim.dispatch_replay");
    dispatch_ns = replay_dispatch_ns(arrivals, executed);
  }

  add("flowspace.dependency_build_s", dep_s, "s");
  add("flowspace.dependency_build_max_s", dep_max_s, "s");
  add("flowspace.dependency_edges", static_cast<double>(dep_edges), "count");
  add("flowspace.match_index_ns_p50", ing.match_index.pct(0.5), "ns");
  add("flowspace.match_index_ns_p99", ing.match_index.pct(0.99), "ns");
  add("flowspace.match_index_s", ing.match_index.total_s, "s");
  add("partition.find_ns_p50", ing.find.pct(0.5), "ns");
  add("core.authority_handle_ns_p50", ing.handle.pct(0.5), "ns");
  add("core.authority_handle_ns_p99", ing.handle.pct(0.99), "ns");
  add("core.authority_handle_self_s",
      std::max(0.0, ing.handle.total_s - ing.match_index.total_s), "s");
  add("core.authority_handles", static_cast<double>(stats.redirects), "count");
  add("core.cache_rules_per_install",
      stats.cache_installs == 0 ? 0.0
                                : static_cast<double>(stats.cache_rules_installed) /
                                      static_cast<double>(stats.cache_installs),
      "rules/install");
  add("switchsim.lookup_exact_ns_p50", ing.exact.pct(0.5), "ns");
  add("switchsim.lookup_wild_ns_p50", ing.wild.pct(0.5), "ns");
  add("switchsim.lookup_miss_ns_p50", ing.miss.pct(0.5), "ns");
  add("switchsim.lookups_exact", ing.exact.count(), "count");
  add("switchsim.lookups_wild", ing.wild.count(), "count");
  add("switchsim.lookups_miss", ing.miss.count(), "count");
  add("switchsim.lookup_exact_s", ing.exact.total_s, "s");
  add("switchsim.lookup_wild_s", ing.wild.total_s, "s");
  add("switchsim.lookup_miss_s", ing.miss.total_s, "s");
  add("switchsim.install_ns_p50", ing.install.pct(0.5), "ns");
  add("switchsim.install_s", ing.install.total_s, "s");
  add("switchsim.installs", static_cast<double>(ing.table.installs), "count");
  add("switchsim.evictions", static_cast<double>(ing.table.evictions), "count");
  add("switchsim.cascade_evictions", static_cast<double>(ing.table.cascade_evictions),
      "count");
  const double hits = ing.exact.count() + ing.wild.count();
  add("switchsim.replay_hit_frac",
      hits / std::max(1.0, hits + static_cast<double>(ing.redirects)), "frac");
  add("netsim.engine_events", static_cast<double>(executed), "count");
  add("netsim.events_per_pkt",
      static_cast<double>(executed) /
          std::max<double>(1.0, static_cast<double>(stats.tracer.injected())),
      "events/pkt");
  add("netsim.dispatch_ns", dispatch_ns, "ns");
  const double dispatch_s = dispatch_ns * 1e-9 * static_cast<double>(executed);
  add("netsim.dispatch_s", dispatch_s, "s");
  add("ctrlchan.install_msgs", static_cast<double>(stats.ctrl_transmissions), "count");
  add("core.authority_queue_rejects", static_cast<double>(stats.queue_rejects), "count");
  add("core.verify_sampled_s", spans.total("core.verify_sampled"), "s");
  add("core.verify_violations", static_cast<double>(rep.verify_violations), "count");

  // What the replayed layers account for out of the repetition's own run.
  const double attributed = ing.exact.total_s + ing.wild.total_s + ing.miss.total_s +
                            ing.install.total_s + ing.handle.total_s + dep_s + dispatch_s;
  add("trace.run_s", run_s, "s");
  add("trace.unattributed_frac", run_s > 0.0 ? 1.0 - attributed / run_s : 0.0, "frac");
  return m;
}

}  // namespace perfbench
