// The benchmark's workloads and the inputs they generate. Each workload is
// sized so that one layer of the simulator dominates its run (see NOTES.md
// for which layer, and which end-to-end metric it should move). Everything is
// derived from the seed: the same seed gives the same policy and flow list.
#pragma once

#include <cstdint>
#include <string>

#include "core/system.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  bool campus;                      // campus_like policy, else classbench_like
  std::size_t rules;
  std::size_t partition_capacity;
  std::size_t cache_entries;        // per edge switch
  difane::CacheStrategy strategy;
  double zipf;                      // 0 => uniform over the pool
  std::size_t pool;
  double mean_packets;              // 1 => single-packet flows
  double flows_per_s;
  double duration_s;
};

// Full-size shapes first, then the reduced shapes the self-test runs. The
// sizes are what make each workload load its layer:
//  * zipf-hits: a 2000-entry cover-set cache over a 5K Zipf 1.1 pool, so
//    ~99% of packets hit wildcard cache entries (FlowTable::lookup).
//  * wide-partitions: partitions of up to ~3.8K rules, so the lazy
//    per-partition dependency graph (O(n^2)) dominates and each redirect
//    pays a linear match_index. 20K flows/s keeps every ingress switch
//    agent at about half its 10K FlowMod/s; nearer saturation installs
//    back up and the hit rate tips between seeds.
//  * setup-storm: single-packet flows over a 2M uniform pool with microflow
//    caching, so every packet misses and installs; no dependency graph.
inline constexpr Workload kWorkloads[] = {
    {"zipf-hits", true, 20000, 200, 2000, difane::CacheStrategy::kCoverSet,
     1.1, 5000, 20.0, 20000.0, 1.0},
    {"wide-partitions", true, 30000, 4096, 1000, difane::CacheStrategy::kCoverSet,
     1.0, 50000, 5.0, 20000.0, 0.5},
    {"setup-storm", false, 2000, 1000, 1000, difane::CacheStrategy::kMicroflow,
     0.0, 2000000, 1.0, 400000.0, 0.1},
};

inline constexpr Workload kSmallWorkloads[] = {
    {"zipf-hits", true, 2000, 50, 500, difane::CacheStrategy::kCoverSet,
     1.1, 1000, 20.0, 2000.0, 0.5},
    {"wide-partitions", true, 5000, 1024, 200, difane::CacheStrategy::kCoverSet,
     1.0, 5000, 5.0, 5000.0, 0.5},
    {"setup-storm", false, 500, 200, 200, difane::CacheStrategy::kMicroflow,
     0.0, 50000, 1.0, 40000.0, 0.5},
};

inline const Workload* find_workload(const std::string& name, bool small) {
  const auto& table = small ? kSmallWorkloads : kWorkloads;
  for (const auto& w : table) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Single-threaded scalar data plane, four edges, two authority switches.
inline difane::ScenarioParams scenario_params(const Workload& w) {
  difane::ScenarioParams p;
  p.edge_switches = 4;
  p.core_switches = 2;
  p.authority_count = 2;
  p.edge_cache_capacity = w.cache_entries;
  p.partitioner.capacity = w.partition_capacity;
  p.cache_strategy = w.strategy;
  p.threads = 1;
  p.burst = 0;
  return p;
}

inline difane::RuleTable make_policy(const Workload& w, std::uint64_t seed) {
  return w.campus ? difane::campus_like(w.rules, seed)
                  : difane::classbench_like(w.rules, seed);
}

inline difane::TrafficParams traffic_params(const Workload& w, std::uint64_t seed,
                                            std::uint32_t ingresses) {
  difane::TrafficParams tp;
  tp.seed = seed ^ 0x7777;
  tp.flow_pool = w.pool;
  tp.zipf_s = w.zipf;
  tp.arrival_rate = w.flows_per_s;
  tp.duration = w.duration_s;
  tp.mean_packets = w.mean_packets;
  if (w.mean_packets <= 1.0) tp.max_packets = 1.0;
  tp.ingress_count = ingresses;
  return tp;
}

}  // namespace perfbench
