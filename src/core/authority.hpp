// Authority-switch control logic. An authority switch hosts one or more
// partitions, and its bindings are its authority band: each one is a view
// onto the partition's shared clipped table (the PartitionIndex it borrows)
// plus one packet/byte counter pair per clipped rule. No FlowTable holds a
// copy of these rules. This class answers the two questions a redirected
// packet raises — which rule wins, and which cache rules should be pushed
// back to the ingress switch — and keeps the per-rule counters a real
// switch would keep on its TCAM entries.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/cache.hpp"
#include "ctrlchan/switch_agent.hpp"

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
  // each binding a disjoint range. Its rules' counters start at zero.
  void bind(const PartitionIndex& index, RuleId synth_id_base, RuleId synth_id_end);

  // Drop the binding for `partition` (live migration retired this switch
  // from the serving set), folding its rules' counters into the retired
  // ones, as a switch reports a removed entry's counters. Unbinding a
  // partition that is not bound is a no-op, which keeps
  // retransmitted/duplicated retire paths idempotent.
  void unbind(PartitionId partition);

  std::size_t partition_count() const { return bindings_.size(); }
  // Clipped rules across every binding: the size of this authority band.
  std::size_t rule_count() const;

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

  // The data plane's authority-band hits; each credits the winning rule
  // with one packet of `bytes`. A redirected packet takes handle: resolve(),
  // the credit, then the cache install for the winner. Generating builds the
  // partition's dependency graph on first use and advances the binding's
  // microflow ids. A packet whose ingress is this switch (the line topology)
  // takes match_local after its cache band misses: the winner, or nullptr
  // when no bound rule matches; it generates no install.
  std::optional<RedirectResult> handle(const BitVec& packet, std::uint64_t bytes = 1);
  const Rule* match_local(const BitVec& packet, std::uint64_t bytes);

  // Counter rows for merge_stats: one per bound rule (installed_copies 1)
  // and one per origin whose counters unbind() retired (installed_copies
  // 0). Redirect rules (encap actions) are left out, as collect_stats does.
  std::vector<FlowStatsEntry> flow_stats() const;

 private:
  struct HitCounters {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  struct Binding {
    const PartitionIndex* index;
    CacheRuleGenerator generator;
    std::vector<HitCounters> counters;  // per clipped rule, partition order
  };
  // Where a packet lands: the first binding whose partition covers it and
  // the index of the partition rule it matches there, if any.
  struct Located {
    std::size_t binding;              // position in bindings_
    std::optional<std::size_t> rule;  // nullopt => no rule in the partition
    RedirectResult result;            // install left empty
  };
  std::optional<Located> locate(const BitVec& packet) const;
  void credit(const Located& at, std::uint64_t bytes);

  SwitchId switch_id_;
  CacheStrategy strategy_;
  std::size_t max_splice_cost_;
  std::vector<Binding> bindings_;
  std::unordered_map<RuleId, HitCounters> retired_;  // by origin rule
};

}  // namespace difane
