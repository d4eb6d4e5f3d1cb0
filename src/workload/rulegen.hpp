// Synthetic policy generator. The paper evaluates partitioning on
// enterprise ACLs (proprietary); this generator reproduces the structural
// properties that drive partitioning and caching cost — realistic prefix
// length mixes on src/dst IP, port ranges that TCAM-expand, protocol
// constraints, nested-prefix dependency chains, and a default rule — in the
// style of ClassBench. Fully seeded and deterministic.
#pragma once

#include <cstdint>

#include "flowspace/rule_table.hpp"
#include "util/rng.hpp"

namespace difane {

enum class WeightMode : std::uint8_t {
  kFlowSpaceProportional,  // weight ∝ 2^(wildcard bits), as in the literature
  kZipfByIndex,            // rank rules randomly, Zipf weights
  kUniform,
};

struct RuleGenParams {
  std::size_t num_rules = 1000;  // target count, including expansions + default
  std::uint64_t seed = 1;

  // Probability a rule constrains each dimension.
  double p_src_prefix = 0.9;
  double p_dst_prefix = 0.9;
  double p_proto = 0.5;
  double p_dst_port = 0.4;
  // Of the rules with a port constraint, fraction using a range (which
  // TCAM-expands into several entries) rather than an exact port.
  double p_port_range = 0.3;
  // Probability of drawing a long (/24../32) prefix instead of the backbone
  // mix. High values give specific, mostly-disjoint rules (router-config
  // style, shallow dependencies).
  double p_long_prefix = 0.0;

  // Nested-prefix chains: `chain_count` families of up to `chain_depth`
  // successively longer prefixes of one address, giving the long dependency
  // chains that make naive caching expensive.
  std::size_t chain_count = 32;
  std::size_t chain_depth = 4;

  // Rule actions draw a drop with probability kDropFraction, else a forward
  // to one of kEgressCount ports (both in rulegen.cpp).

  WeightMode weight_mode = WeightMode::kFlowSpaceProportional;
  double zipf_s = 1.0;

  bool add_default = true;  // lowest-priority match-all forward rule
};

// Generate a policy. Rule ids are 0..n-1 in generation order; priorities
// descend with specificity so nested prefixes behave like real ACLs.
RuleTable generate_policy(const RuleGenParams& params);

// Presets used by the experiments.
RuleTable classbench_like(std::size_t num_rules, std::uint64_t seed);
// Flat IP-pair policy with shallow dependencies (router-style config).
RuleTable campus_like(std::size_t num_rules, std::uint64_t seed);

}  // namespace difane
