// Partition plan: the output of DIFANE's flow-space partitioning. The plan
// carves the whole flow space into disjoint ternary regions (the leaves of a
// cut tree), clips the policy into each region, and assigns regions to
// authority switches. Partition rules — the low-priority redirect rules the
// controller installs in *every* switch — are synthesized from the plan.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "flowspace/rule_table.hpp"

namespace difane {

using PartitionId = std::uint32_t;
using AuthorityIndex = std::uint32_t;  // 0..k-1, mapped to switch ids by core

struct Partition {
  PartitionId id = 0;
  Ternary region;          // disjoint from all other partitions; union covers all
  RuleTable rules;         // policy clipped to `region`
  AuthorityIndex primary = 0;
  AuthorityIndex backup = 0;  // used when the primary authority switch fails
};

class PartitionPlan {
 public:
  PartitionPlan() = default;
  PartitionPlan(std::vector<Partition> partitions, std::size_t original_rule_count,
                std::uint32_t authority_count);

  const std::vector<Partition>& partitions() const { return partitions_; }
  std::uint32_t authority_count() const { return authority_count_; }
  std::size_t original_rule_count() const { return original_rule_count_; }

  // The partition whose region contains `packet`. Regions are disjoint and
  // complete by construction, so exactly one matches.
  const Partition& find(const BitVec& packet) const;

  // Low-priority redirect rules: one per partition, encap to the partition's
  // primary (or backup) authority. `priority` should sit below every policy
  // priority; ids are allocated from `first_id`.
  std::vector<Rule> make_partition_rules(Priority priority, RuleId first_id,
                                         bool use_backup = false) const;

  // ---- cost metrics (what the paper's partitioning evaluation reports) ----
  // Sum of clipped rule copies across all partitions.
  std::size_t total_rules() const;
  // total_rules / original policy size: the duplication overhead of cutting.
  double duplication_factor() const;
  // Rules hosted by each authority switch (sum over its partitions).
  std::vector<std::size_t> rules_per_authority() const;
  std::size_t max_rules_per_authority() const;

  // Exact structural check, no sampling: the regions are pairwise disjoint
  // and together cover the header space, and each partition's clipped table
  // is [r ∩ region | r ∈ policy, r ∩ region ≠ ∅] in policy order (same
  // match, priority, action and origin). Then every partition's winner is
  // the policy's winner everywhere in its region. Returns a description of
  // the first violation, or nullopt.
  std::optional<std::string> validate(const RuleTable& policy) const;

  // Reassign the partitions of a failed authority to their backups.
  void fail_over(AuthorityIndex failed);

  // Live migration: re-home partition `index` to `new_primary`. The old
  // primary becomes the backup (never retired from the plan), so a crash of
  // the new home mid- or post-migration rolls back via the ordinary
  // fail_over path to a fully stocked copy. Region and rules are untouched —
  // bound AuthorityNode pointers into partitions() stay valid.
  void re_home(std::size_t index, AuthorityIndex new_primary);

 private:
  std::vector<Partition> partitions_;
  std::size_t original_rule_count_ = 0;
  std::uint32_t authority_count_ = 0;
};

}  // namespace difane
