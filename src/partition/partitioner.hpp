// DIFANE's decision-tree flow-space partitioner. Recursively cuts the flow
// space on header bits, duplicating rules that span a cut, until every leaf
// fits an authority switch's TCAM budget; then bin-packs leaves onto the k
// authority switches. The cut-bit choice trades rule duplication against
// balance, like the paper's HiCuts-style partitioning.
#pragma once

#include <cstdint>

#include "partition/plan.hpp"

namespace difane {

enum class CutStrategy : std::uint8_t {
  kBestBit,    // scan all header bits, pick min(duplication+imbalance) [paper]
  kIpBitsOnly, // restrict cuts to src/dst IP bits (ablation: fixed dimensions)
  kRandomBit,  // random separating bit (ablation: no cost function)
};

// Recursion bound of the partition tree (>= header bits suffices).
inline constexpr std::size_t kPartitionMaxDepth = 200;
// Stop splitting a leaf when even the best cut keeps more than this fraction
// of its rules on one side: past that point cuts only duplicate broad
// wildcard rules without spreading load. Capacity becomes soft for such
// leaves (wildcard-heavy policies cannot be partitioned arbitrarily finely —
// every partition must carry its own copy of rules like the default).
inline constexpr double kPartitionMinProgress = 0.95;

struct PartitionerParams {
  // Max rules per partition (authority-switch TCAM budget per region).
  std::size_t capacity = 1000;
  // Cut scoring: score = max(n0,n1) + dup_penalty * duplicated.
  double dup_penalty = 1.0;
  CutStrategy strategy = CutStrategy::kBestBit;
  std::uint64_t seed = 1;       // for kRandomBit
};

class Partitioner {
 public:
  explicit Partitioner(PartitionerParams params = {}) : params_(params) {}

  // Partition `policy` for `authority_count` authority switches. Primary
  // assignment balances rule counts (LPT greedy); backups are primary+1 mod k.
  PartitionPlan build(const RuleTable& policy, std::uint32_t authority_count) const;

  const PartitionerParams& params() const { return params_; }

 private:
  PartitionerParams params_;
};

}  // namespace difane
