// Authority-switch control logic. An authority switch hosts one or more
// partitions: the clipped authority rules live in its TCAM's authority band
// (installed by the DIFANE controller), and this class answers the two
// questions a redirected packet raises — which rule wins, and which cache
// rules should be pushed back to the ingress switch.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cache.hpp"

namespace difane {

class AuthorityNode {
 public:
  AuthorityNode(SwitchId switch_id, CacheStrategy strategy,
                std::size_t max_splice_cost = 32)
      : switch_id_(switch_id),
        strategy_(strategy),
        max_splice_cost_(max_splice_cost) {}

  SwitchId switch_id() const { return switch_id_; }

  // Bind a partition this switch serves (as primary or backup), borrowing
  // its index, which must outlive the binding. The binding's generator draws
  // its synthetic rule ids from [synth_id_base, synth_id_end); callers hand
  // each binding a disjoint range.
  void bind(const PartitionIndex& index, RuleId synth_id_base, RuleId synth_id_end);

  // Drop the binding for `partition` (live migration retired this switch
  // from the serving set). Unbinding a partition that is not bound is a
  // no-op, which keeps retransmitted/duplicated retire paths idempotent.
  void unbind(PartitionId partition);

  std::size_t partition_count() const { return bindings_.size(); }

  // The index a binding of `partition` borrows, or nullptr if unbound.
  const PartitionIndex* bound(PartitionId partition) const {
    for (const auto& binding : bindings_) {
      if (binding.index->partition().id == partition) return binding.index;
    }
    return nullptr;
  }
  bool serves(PartitionId partition) const { return bound(partition) != nullptr; }

  struct RedirectResult {
    const Rule* winner = nullptr;   // nullptr => no rule in the partition
    PartitionId partition = 0;
    CacheInstall install;           // cache rules for the ingress switch
  };

  // Resolve a redirected packet without side effects: locate the owning
  // partition among this switch's bindings and match it through the
  // partition's tree (built on first use). The install stays empty. Returns
  // nullopt if no bound partition covers the packet (a misdirected packet —
  // e.g. stale partition rules right after failover).
  std::optional<RedirectResult> resolve(const BitVec& packet) const;

  // resolve(), then produce the cache install for the winner. Generating
  // builds the partition's dependency graph on first use and advances the
  // binding's microflow ids, so only the data plane calls this.
  std::optional<RedirectResult> handle(const BitVec& packet);

 private:
  struct Binding {
    const PartitionIndex* index;
    CacheRuleGenerator generator;
  };
  // Where a packet lands: the first binding whose partition covers it and
  // the index of the partition rule it matches there, if any.
  struct Located {
    std::size_t binding;              // position in bindings_
    std::optional<std::size_t> rule;  // nullopt => no rule in the partition
    RedirectResult result;            // install left empty
  };
  std::optional<Located> locate(const BitVec& packet) const;

  SwitchId switch_id_;
  CacheStrategy strategy_;
  std::size_t max_splice_cost_;
  std::vector<Binding> bindings_;
};

}  // namespace difane
