// The DIFANE controller. Proactive and off the packet path: it partitions
// the policy, binds each partition at its authority switches (primary,
// replicas and backup; a binding is the switch's authority band, see
// core/authority.hpp), installs partition rules at every switch, and — on
// authority failure — re-points the affected partition rules at the
// backups. After setup, no packet ever visits the controller; that is the
// paper's thesis.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/authority.hpp"
#include "netsim/topology.hpp"
#include "partition/partitioner.hpp"

namespace difane {

struct DifaneControllerParams {
  PartitionerParams partitioner;
  CacheStrategy cache_strategy = CacheStrategy::kDependentSet;
  // Rules whose splice set exceeds this degrade to microflow caching.
  std::size_t max_splice_cost = 32;
  // Each partition is served by this many authority switches (primary plus
  // ring successors), and ingress switches spread their redirects across the
  // live replicas. Replication is DIFANE's answer to hot partitions: one
  // busy region of flow space need not bottleneck on one switch. Clamped to
  // the number of authority switches.
  std::uint32_t replicas = 1;
  // Partition redirect rules take their priority and ids from
  // kPartitionRulePriority and kPartitionRuleIdBase in difane_controller.cpp.
  RuleId synth_id_base = 0x40000000u;
  // Synthetic-id space per partition binding, in strides: one stride, or
  // enough whole strides to hold a cover-set binding's n^2 shadow ids. When
  // the initial bindings do not fit below the largest RuleId at this
  // stride, the controller shrinks it (see fit_synth_id_stride).
  RuleId synth_id_stride = 1u << 22;
};

class DifaneController {
 public:
  // Partitions `policy` across `authority_switches` (k = list size) and
  // binds every partition at its serving set. Call install_all() to push
  // the partition rules into `net`.
  DifaneController(Network& net, const RuleTable& policy,
                   std::vector<SwitchId> authority_switches,
                   DifaneControllerParams params);

  // Install the partition rules at every switch: one per partition,
  // redirecting to a live replica. The authority rules need no install:
  // the bindings made at construction are the authority bands. Idempotent.
  void install_all();

  const PartitionPlan& plan() const { return plan_; }
  // The shared index (tree and dependency graph) of plan partition `index`.
  const PartitionIndex& partition_index(std::size_t index) const {
    return *indexes_.at(index);
  }
  const std::vector<SwitchId>& authority_switches() const { return authority_switches_; }
  SwitchId authority_switch(AuthorityIndex index) const {
    return authority_switches_.at(index);
  }

  // The control logic living at an authority switch, or nullptr.
  AuthorityNode* node_at(SwitchId sw);
  const AuthorityNode* node_at(SwitchId sw) const;

  // React to an authority switch failure: flip affected partitions to their
  // backups and reinstall partition rules at every live switch (pointing
  // only at live replicas). Returns the number of partitions re-pointed.
  std::size_t handle_authority_failure(SwitchId failed);

  // React to an authority switch rejoining after a crash: refresh partition
  // rules everywhere (the restarted switch's own partition band included)
  // so replica selection sees it live again. Its bindings outlive the crash,
  // so its authority band resolves, and counts, from the moment it is back.
  // Partitions failed over while it was down stay with their current
  // primary — the restarted switch rejoins as a replica/backup rather than
  // preempting.
  void handle_authority_restart(SwitchId restarted);

  // The authority switch that ingress `sw` should redirect to for
  // `partition`: a live replica chosen by (switch, partition) hash so load
  // spreads; falls back to the backup when every replica is down.
  SwitchId replica_for(const Partition& partition, SwitchId sw) const;

  // ---- live migration hooks (driven by the Scenario state machine) -------

  // Authority index of `sw`; throws if `sw` is not an authority switch.
  AuthorityIndex index_of(SwitchId sw) const;

  // The serving set (primary + ring successors + backup-if-absent) of a
  // partition under the plan's *current* assignment, or under a hypothetical
  // (primary, backup) pair — the migration planner uses the latter to
  // compute the post-move serving set before committing the re-home.
  std::vector<AuthorityIndex> serving_set(const Partition& partition) const;
  std::vector<AuthorityIndex> serving_set(AuthorityIndex primary,
                                          AuthorityIndex backup) const;

  // Bind/unbind partition `index` at one authority's control node. Every
  // binding of a partition borrows the partition's one PartitionIndex, so
  // its tree and dependency graph are built once. Binds allocate a fresh
  // disjoint synthetic-id range of whole strides past the binding's shadow
  // ids; a bind that finds no room left fails a contract check. Unbinding a
  // switch that does not serve the partition is a no-op. A binding is the
  // switch's copy of the partition's rules; the caller sends the install and
  // retire messages whose apply cost the move pays.
  void bind_partition(std::size_t index, AuthorityIndex authority);
  void unbind_partition(std::size_t index, AuthorityIndex authority);

  // Commit the re-home into the plan (primary = dest, backup = old primary).
  // Call between "destination stocked" and the partition-rule flips, so
  // replica_for answers with the new home for every flip rule.
  void commit_re_home(std::size_t index, AuthorityIndex dest);

  // Purge, at every live switch, the cache-band shadow redirects that still
  // encap to `target` and intersect `within`: all of them after a failover,
  // a partition's region after a migration. Returns entries removed
  // (dependents cascade).
  std::size_t purge_redirects_to(SwitchId target,
                                 const Ternary& within = Ternary::wildcard());

  // The partition-band redirect rule for partition `index` as `for_switch`
  // should hold it now (stable id, encap to replica_for under the current
  // plan) — the payload of a PartitionFlip.
  Rule partition_redirect_rule(std::size_t index, SwitchId for_switch) const;

  // Write partition `index`'s redirect rule at every live switch, refreshing
  // the entry in place. A migration ends with it, once its flips are acked.
  void install_partition_rule(std::size_t index);

 private:
  void install_partition_rules();
  // The stride bind_partition() spaces ranges by: the configured one when
  // every initial binding fits below the largest RuleId at it, else one
  // small enough that the initial bindings take at most half the space past
  // their shadow ids, leaving the rest for live-migration rebinds.
  RuleId fit_synth_id_stride() const;

  Network& net_;
  const RuleTable& policy_;
  std::vector<SwitchId> authority_switches_;
  DifaneControllerParams params_;
  PartitionPlan plan_;
  // One per plan partition, in plan order; bindings borrow them.
  std::vector<std::unique_ptr<PartitionIndex>> indexes_;
  // Indexed by SwitchId; null at switches that are not authorities.
  std::vector<std::unique_ptr<AuthorityNode>> nodes_;
  RuleId synth_id_stride_ = 0;  // fit_synth_id_stride()
  RuleId next_synth_base_ = 0;  // start of the next binding's synthetic ids
};

}  // namespace difane
