#include "workload/rulegen.hpp"

#include <algorithm>

#include "flowspace/header.hpp"
#include "util/contract.hpp"

namespace difane {

namespace {

constexpr std::uint8_t kTcp = 6;
constexpr std::uint8_t kUdp = 17;

// Empirical-flavored prefix length mix: backbone tables cluster at /8, /16,
// /24 with a tail of longer prefixes. With probability `p_long` draw from
// the specific end only (/24../32), giving mostly-disjoint rules.
std::size_t sample_prefix_len(Rng& rng, double p_long = 0.0) {
  if (p_long > 0.0 && rng.bernoulli(p_long)) {
    return 24 + 2 * rng.uniform(0, 4);  // 24, 26, 28, 30, 32
  }
  const double u = rng.uniform01();
  if (u < 0.10) return 8;
  if (u < 0.30) return 16;
  if (u < 0.45) return 20;
  if (u < 0.75) return 24;
  if (u < 0.90) return 28;
  return 32;
}

// Non-default rules drop with this probability and otherwise forward to one
// of kEgressCount egress ports, uniformly.
constexpr double kDropFraction = 0.3;
constexpr std::uint32_t kEgressCount = 4;

Action sample_action(Rng& rng) {
  if (rng.bernoulli(kDropFraction)) return Action::drop();
  return Action::forward(static_cast<std::uint32_t>(rng.uniform(0, kEgressCount - 1)));
}

void assign_weights(std::vector<Rule>& rules, const RuleGenParams& params, Rng& rng) {
  switch (params.weight_mode) {
    case WeightMode::kFlowSpaceProportional: {
      // weight ∝ 2^(wildcard bits), normalized. Use only the bits inside the
      // used header so the default rule doesn't dwarf everything by 2^256.
      double max_log = 0.0;
      for (const auto& r : rules) {
        max_log = std::max(max_log, static_cast<double>(header_bits_used()) -
                                        r.match.care().popcount());
      }
      double sum = 0.0;
      for (auto& r : rules) {
        const double wild = static_cast<double>(header_bits_used()) -
                            static_cast<double>(r.match.care().popcount());
        r.weight = std::pow(2.0, wild - max_log);
        sum += r.weight;
      }
      for (auto& r : rules) r.weight /= sum;
      break;
    }
    case WeightMode::kZipfByIndex: {
      std::vector<std::size_t> perm(rules.size());
      for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      std::shuffle(perm.begin(), perm.end(), rng.engine());
      ZipfDistribution zipf(rules.size(), params.zipf_s);
      for (std::size_t rank = 0; rank < perm.size(); ++rank) {
        rules[perm[rank]].weight = zipf.pmf(rank);
      }
      break;
    }
    case WeightMode::kUniform: {
      for (auto& r : rules) r.weight = 1.0 / static_cast<double>(rules.size());
      break;
    }
  }
}

}  // namespace

RuleTable generate_policy(const RuleGenParams& params) {
  expects(params.num_rules >= 1, "generate_policy: need at least one rule");
  Rng rng(params.seed);
  std::vector<Rule> rules;
  rules.reserve(params.num_rules);
  RuleId next_id = 0;

  // 1. Nested-prefix chains (dependency structure). Each family fixes a
  //    random 32-bit address and emits successively longer dst prefixes; the
  //    longer (more specific) prefix gets the higher priority, like an ACL
  //    with specific exceptions above broad statements.
  const std::size_t budget = params.num_rules > 1 && params.add_default
                                 ? params.num_rules - 1
                                 : params.num_rules;
  for (std::size_t c = 0; c < params.chain_count && rules.size() < budget; ++c) {
    const auto addr = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffULL));
    const std::size_t depth = 1 + rng.uniform(0, params.chain_depth - 1);
    for (std::size_t d = 0; d < depth && rules.size() < budget; ++d) {
      const std::size_t plen = std::min<std::size_t>(32, 8 + 6 * d + rng.uniform(0, 3));
      Rule r;
      r.id = next_id++;
      r.priority = static_cast<Priority>(1000 + plen * 10 + d);
      match_prefix(r.match, Field::kIpDst, addr, plen);
      if (rng.bernoulli(params.p_src_prefix * 0.5)) {
        const auto src = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffULL));
        match_prefix(r.match, Field::kIpSrc, src, sample_prefix_len(rng, params.p_long_prefix));
      }
      r.action = sample_action(rng);
      rules.push_back(std::move(r));
    }
  }

  // 2. General 5-tuple ACL rules until the budget is filled. Port ranges
  //    expand into several TCAM entries (same priority, distinct ids),
  //    mirroring the range-expansion blowup real ACLs suffer.
  while (rules.size() < budget) {
    Ternary base;
    int specificity = 0;
    if (rng.bernoulli(params.p_src_prefix)) {
      const auto src = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffULL));
      const auto plen = sample_prefix_len(rng, params.p_long_prefix);
      match_prefix(base, Field::kIpSrc, src, plen);
      specificity += static_cast<int>(plen);
    }
    if (rng.bernoulli(params.p_dst_prefix)) {
      const auto dst = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffULL));
      const auto plen = sample_prefix_len(rng, params.p_long_prefix);
      match_prefix(base, Field::kIpDst, dst, plen);
      specificity += static_cast<int>(plen);
    }
    if (rng.bernoulli(params.p_proto)) {
      match_exact(base, Field::kIpProto, rng.bernoulli(0.7) ? kTcp : kUdp);
      specificity += 8;
    }
    const Action action = sample_action(rng);
    const auto priority = static_cast<Priority>(100 + specificity);

    std::vector<Ternary> expanded;
    if (rng.bernoulli(params.p_dst_port)) {
      if (rng.bernoulli(params.p_port_range)) {
        const auto lo = rng.uniform(1, 32768);
        const auto hi = lo + rng.uniform(1, 2048);
        expanded = match_range(base, Field::kTpDst, lo, std::min<std::uint64_t>(hi, 65535));
      } else {
        Ternary t = base;
        match_exact(t, Field::kTpDst, rng.uniform(1, 65535));
        expanded.push_back(t);
      }
    } else {
      expanded.push_back(base);
    }
    for (const auto& pattern : expanded) {
      if (rules.size() >= budget) break;
      Rule r;
      r.id = next_id++;
      r.priority = priority;
      r.match = pattern;
      r.action = action;
      rules.push_back(std::move(r));
    }
  }

  // 3. Default rule so every packet matches something.
  if (params.add_default) {
    Rule def;
    def.id = next_id++;
    def.priority = 0;
    def.match = Ternary::wildcard();
    def.action = Action::forward(0);
    rules.push_back(std::move(def));
  }

  assign_weights(rules, params, rng);
  return RuleTable(std::move(rules));
}

RuleTable classbench_like(std::size_t num_rules, std::uint64_t seed) {
  RuleGenParams params;
  params.num_rules = num_rules;
  params.seed = seed;
  params.chain_count = std::max<std::size_t>(8, num_rules / 50);
  params.chain_depth = 6;
  params.p_dst_port = 0.45;
  params.p_port_range = 0.35;
  return generate_policy(params);
}

RuleTable campus_like(std::size_t num_rules, std::uint64_t seed) {
  RuleGenParams params;
  params.num_rules = num_rules;
  params.seed = seed;
  params.chain_count = 0;     // no designed nesting
  params.p_src_prefix = 1.0;  // every rule pins BOTH endpoints: a src-only
  params.p_dst_prefix = 1.0;  // rule would overlap every dst-only rule and
                              // recreate deep cross-field dependency chains
  params.p_dst_port = 0.1;
  params.p_proto = 0.2;
  params.p_long_prefix = 1.0; // specific pairs only: rules barely overlap
  return generate_policy(params);
}

}  // namespace difane
