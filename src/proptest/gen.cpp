#include "proptest/gen.hpp"

#include <algorithm>

#include "flowspace/header.hpp"

namespace difane::proptest {

namespace {

// Probability a rule is derived from an already-generated rule (copy its
// pattern, then widen/narrow a few bits) instead of drawn fresh. Derived
// rules are what creates overlap chains and shadowing.
constexpr double kPDerive = 0.5;
// For fresh rules: probability each of the classic 5-tuple dimensions is
// constrained at all (src/dst IP prefix, proto, dst port).
constexpr double kPDim = 0.6;
// Of constrained IP dimensions, bias toward short prefixes (wide rules).
// Higher = more wildcard bits = denser overlap.
constexpr double kWildcardDensity = 0.4;
constexpr double kPDropAction = 0.3;
constexpr std::uint32_t kEgressCount = 4;

// Common transport ports (the values real ACLs constrain) plus a random tail.
std::uint16_t gen_port(Rng& rng) {
  static constexpr std::uint16_t kCommon[] = {22, 53, 80, 123, 443, 8080};
  if (rng.bernoulli(0.7)) {
    return kCommon[rng.uniform(0, std::size(kCommon) - 1)];
  }
  return static_cast<std::uint16_t>(rng.uniform(0, 0xffff));
}

std::size_t gen_prefix_len(Rng& rng) {
  // Wide prefixes (the overlap makers) with probability kWildcardDensity,
  // otherwise the /16../32 range real configs use.
  if (rng.bernoulli(kWildcardDensity)) return rng.uniform(4, 16);
  return rng.uniform(16, 32);
}

// Widen or narrow an existing pattern by a few bits, staying inside the used
// header so derived rules keep overlapping their ancestors.
Ternary mutate_pattern(Rng& rng, const Ternary& base) {
  BitVec value = base.value();
  BitVec care = base.care();
  const std::size_t used = header_bits_used();
  const int flips = static_cast<int>(rng.uniform(1, 6));
  for (int i = 0; i < flips; ++i) {
    const std::size_t bit = rng.uniform(0, used - 1);
    if (care.get(bit)) {
      if (rng.bernoulli(0.5)) {
        care.set(bit, false);  // widen: wildcard this bit
      } else {
        value.set(bit, !value.get(bit));  // shift: sibling pattern
      }
    } else {
      care.set(bit, true);  // narrow: pin this bit
      value.set(bit, rng.bernoulli(0.5));
    }
  }
  return Ternary(value, care);
}

// Random ternary pattern constraining a few 5-tuple dimensions.
Ternary gen_pattern(Rng& rng) {
  Ternary t;
  if (rng.bernoulli(kPDim)) {
    match_prefix(t, Field::kIpSrc, rng.next_u64() & 0xffffffffu,
                 gen_prefix_len(rng));
  }
  if (rng.bernoulli(kPDim)) {
    match_prefix(t, Field::kIpDst, rng.next_u64() & 0xffffffffu,
                 gen_prefix_len(rng));
  }
  if (rng.bernoulli(kPDim * 0.7)) {
    static constexpr std::uint8_t kProtos[] = {1, 6, 17};
    match_exact(t, Field::kIpProto, kProtos[rng.uniform(0, 2)]);
  }
  if (rng.bernoulli(kPDim * 0.6)) {
    match_exact(t, Field::kTpDst, gen_port(rng));
  }
  return t;
}

}  // namespace

RuleTable gen_table(Rng& rng, const TableGenParams& params) {
  const std::size_t n = rng.uniform(params.min_rules, params.max_rules);
  std::vector<Rule> rules;
  rules.reserve(n + 1);
  Priority priority = static_cast<Priority>(2 * n + 2);
  for (std::size_t i = 0; i < n; ++i) {
    Rule r;
    r.id = static_cast<RuleId>(i);
    if (i > 0 && !rng.bernoulli(params.p_priority_tie)) {
      priority -= static_cast<Priority>(rng.uniform(1, 2));
    }
    r.priority = priority;
    if (!rules.empty() && rng.bernoulli(kPDerive)) {
      r.match = mutate_pattern(rng, rules[rng.uniform(0, rules.size() - 1)].match);
    } else {
      r.match = gen_pattern(rng);
    }
    r.action = rng.bernoulli(kPDropAction)
                   ? Action::drop()
                   : Action::forward(static_cast<std::uint32_t>(
                         rng.uniform(0, kEgressCount - 1)));
    r.weight = rng.uniform01() + 0.01;
    rules.push_back(std::move(r));
  }
  if (params.add_default) {
    Rule def;
    def.id = static_cast<RuleId>(n);
    def.priority = priority - 1;
    def.match = Ternary::wildcard();
    def.action = Action::forward(0);
    def.weight = 0.01;
    rules.push_back(std::move(def));
  }
  return RuleTable(std::move(rules));
}

BitVec gen_boundary_packet(Rng& rng, const RuleTable& table) {
  if (table.empty()) return Ternary::wildcard().sample_point(rng);
  const auto pick = [&]() -> const Ternary& {
    return table.at(rng.uniform(0, table.size() - 1)).match;
  };
  switch (rng.uniform(0, 3)) {
    case 0:
      return Ternary::wildcard().sample_point(rng);
    case 1:
      return pick().sample_point(rng);
    case 2: {
      // A point where two rules compete: sample their intersection.
      const Ternary& a = pick();
      for (int tries = 0; tries < 4; ++tries) {
        if (const auto both = intersect(a, pick())) return both->sample_point(rng);
      }
      return a.sample_point(rng);
    }
    default: {
      // One bit off a rule's border: flips in and out of neighboring rules.
      BitVec pkt = pick().sample_point(rng);
      const std::size_t bit = rng.uniform(0, header_bits_used() - 1);
      pkt.set(bit, !pkt.get(bit));
      return pkt;
    }
  }
}

std::vector<BitVec> gen_packets(Rng& rng, const RuleTable& table, std::size_t count) {
  std::vector<BitVec> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(gen_boundary_packet(rng, table));
  return out;
}

TopoGen gen_topology(Rng& rng) {
  TopoGen t;
  t.edge_switches = rng.uniform(1, 4);
  t.core_switches = rng.uniform(1, 3);
  t.authority_count = static_cast<std::uint32_t>(rng.uniform(1, t.core_switches));
  static constexpr std::size_t kCaches[] = {8, 16, 64, 256};
  t.edge_cache_capacity = kCaches[rng.uniform(0, std::size(kCaches) - 1)];
  t.partition_capacity = rng.uniform(4, 32);
  return t;
}

std::vector<FlowSpec> flows_from_packets(const std::vector<BitVec>& packets,
                                         std::uint32_t ingress_count,
                                         double gap) {
  std::vector<FlowSpec> flows;
  flows.reserve(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    FlowSpec f;
    f.id = i;
    f.header = packets[i];
    f.start = static_cast<double>(i) * gap;
    f.packets = 1 + i % 3;
    f.packet_gap = gap / 4.0;
    f.ingress_index = static_cast<std::uint32_t>(i % std::max(1u, ingress_count));
    flows.push_back(std::move(f));
  }
  return flows;
}

}  // namespace difane::proptest
