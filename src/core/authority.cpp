#include "core/authority.hpp"

namespace difane {

void AuthorityNode::bind(const PartitionIndex& index, RuleId synth_id_base,
                         RuleId synth_id_end) {
  bindings_.push_back(Binding{
      &index, CacheRuleGenerator(index, switch_id_, strategy_, synth_id_base,
                                 synth_id_end, max_splice_cost_)});
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
      continue;
    }
    kept.push_back(std::move(binding));
  }
  bindings_.swap(kept);
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

std::optional<AuthorityNode::RedirectResult> AuthorityNode::resolve(
    const BitVec& packet) const {
  auto at = locate(packet);
  if (!at) return std::nullopt;
  return std::move(at->result);
}

std::optional<AuthorityNode::RedirectResult> AuthorityNode::handle(
    const BitVec& packet) {
  auto at = locate(packet);
  if (!at) return std::nullopt;
  if (at->rule) {
    at->result.install = bindings_[at->binding].generator.generate(packet, *at->rule);
  }
  return std::move(at->result);
}

}  // namespace difane
