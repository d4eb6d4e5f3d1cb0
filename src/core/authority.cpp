#include "core/authority.hpp"

namespace difane {

void AuthorityNode::bind(const PartitionIndex& index, RuleId synth_id_base,
                         RuleId synth_id_end) {
  bindings_.push_back(Binding{
      &index,
      CacheRuleGenerator(index, switch_id_, strategy_, synth_id_base, synth_id_end,
                         max_splice_cost_),
      std::vector<HitCounters>(index.partition().rules.size())});
}

void AuthorityNode::unbind(PartitionId partition) {
  // Binding is not assignable (the generator pins a partition reference), so
  // rebuild instead of erase(); bindings per node are few. Unbinding an
  // unknown partition is a no-op, which keeps retransmitted retires silent.
  std::vector<Binding> kept;
  kept.reserve(bindings_.size());
  bool removed = false;
  for (auto& binding : bindings_) {
    if (!removed && binding.index->partition().id == partition) {
      removed = true;
      const auto& rules = binding.index->partition().rules.rules();
      for (std::size_t i = 0; i < rules.size(); ++i) {
        const HitCounters& hits = binding.counters[i];
        if (rules[i].action.type == ActionType::kEncap) continue;
        if (hits.packets == 0 && hits.bytes == 0) continue;
        HitCounters& row = retired_[rules[i].origin_or_self()];
        row.packets += hits.packets;
        row.bytes += hits.bytes;
      }
      continue;
    }
    kept.push_back(std::move(binding));
  }
  bindings_.swap(kept);
}

std::size_t AuthorityNode::rule_count() const {
  std::size_t rules = 0;
  for (const auto& binding : bindings_) rules += binding.counters.size();
  return rules;
}

std::optional<AuthorityNode::Located> AuthorityNode::locate(
    const BitVec& packet) const {
  for (std::size_t i = 0; i < bindings_.size(); ++i) {
    const PartitionIndex& index = *bindings_[i].index;
    const Partition& partition = index.partition();
    if (!partition.region.matches(packet)) continue;
    Located at{i, index.tree().classify_index(packet), {}};
    at.result.partition = partition.id;
    // nullptr winner: the partition covers the packet, no rule does.
    if (at.rule) at.result.winner = &partition.rules.at(*at.rule);
    return at;
  }
  return std::nullopt;
}

void AuthorityNode::credit(const Located& at, std::uint64_t bytes) {
  if (!at.rule) return;
  HitCounters& hits = bindings_[at.binding].counters[*at.rule];
  ++hits.packets;
  hits.bytes += bytes;
}

std::optional<AuthorityNode::RedirectResult> AuthorityNode::resolve(
    const BitVec& packet) const {
  auto at = locate(packet);
  if (!at) return std::nullopt;
  return std::move(at->result);
}

std::optional<AuthorityNode::RedirectResult> AuthorityNode::handle(
    const BitVec& packet, std::uint64_t bytes) {
  auto at = locate(packet);
  if (!at) return std::nullopt;
  credit(*at, bytes);
  if (at->rule) {
    at->result.install = bindings_[at->binding].generator.generate(packet, *at->rule);
  }
  return std::move(at->result);
}

const Rule* AuthorityNode::match_local(const BitVec& packet, std::uint64_t bytes) {
  const auto at = locate(packet);
  if (!at) return nullptr;
  credit(*at, bytes);
  return at->result.winner;
}

std::vector<FlowStatsEntry> AuthorityNode::flow_stats() const {
  std::vector<FlowStatsEntry> rows;
  for (const auto& binding : bindings_) {
    const auto& rules = binding.index->partition().rules.rules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (rules[i].action.type == ActionType::kEncap) continue;
      rows.push_back(FlowStatsEntry{rules[i].origin_or_self(), binding.counters[i].packets,
                                    binding.counters[i].bytes, 1});
    }
  }
  for (const auto& [origin, hits] : retired_) {
    rows.push_back(FlowStatsEntry{origin, hits.packets, hits.bytes, 0});
  }
  return rows;
}

}  // namespace difane
