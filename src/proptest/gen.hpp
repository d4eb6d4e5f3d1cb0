// Seeded generators for the property-based testing harness. Everything here
// is a pure function of the Rng handed in, so a property failure replays
// bit-for-bit from its printed case seed. The generators are tuned to make
// the *hard* inputs likely: rule tables with dense wildcard overlap, nested
// prefixes, priority ties, and packets sitting on rule boundaries — the
// regime where wildcard caching and cut-based partitioning break subtly.
#pragma once

#include <cstdint>
#include <vector>

#include "flowspace/rule_table.hpp"
#include "util/rng.hpp"
#include "workload/trafficgen.hpp"

namespace difane::proptest {

// The table's shape. How rules overlap and what they do are fixed constants
// in gen.cpp.
struct TableGenParams {
  std::size_t min_rules = 2;
  std::size_t max_rules = 48;
  // Probability two consecutive rules share a priority (tie-break coverage).
  double p_priority_tie = 0.3;
  // Append a lowest-priority full-wildcard forward rule so every packet
  // matches (required by the end-to-end scenarios; partition/classifier
  // oracles also exercise tables without it).
  bool add_default = true;
};

// Random rule table. Ids are 0..n-1 in generation order; priorities descend
// in bands with occasional ties; weights are uniform.
RuleTable gen_table(Rng& rng, const TableGenParams& params);

// A packet biased to land on decision boundaries: inside a random rule, in
// the intersection of two overlapping rules, one bit-flip off a rule's
// border, or uniformly random. Tables may be empty (falls back to uniform).
BitVec gen_boundary_packet(Rng& rng, const RuleTable& table);

// A batch of boundary-biased packets.
std::vector<BitVec> gen_packets(Rng& rng, const RuleTable& table, std::size_t count);

// Small random two-tier scenario shape for the end-to-end properties.
struct TopoGen {
  std::size_t edge_switches = 2;
  std::size_t core_switches = 1;
  std::uint32_t authority_count = 1;
  std::size_t edge_cache_capacity = 64;
  std::size_t partition_capacity = 16;
};

TopoGen gen_topology(Rng& rng);

// Deterministic flow specs from a packet list: flow i starts at i * gap with
// 1..3 packets, spread round-robin over `ingress_count` ingresses.
std::vector<FlowSpec> flows_from_packets(const std::vector<BitVec>& packets,
                                         std::uint32_t ingress_count,
                                         double gap = 5e-3);

}  // namespace difane::proptest
