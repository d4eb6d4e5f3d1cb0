// Live-migration planning. When the incremental partitioner splits/merges
// under policy churn (or the load across authorities drifts), the controller
// decides *which* partitions to re-home and batches the moves into bounded
// waves — the execution (make-before-break over the control channel) lives
// in core/. Planning is pure: given a plan, emit MigrationSteps.
#pragma once

#include <cstdint>
#include <vector>

#include "partition/plan.hpp"

namespace difane {

// One partition move. `rules` is the clipped-copy count that must be
// installed at the destination (the cost the E7 migration row reports).
struct MigrationStep {
  std::size_t partition_index = 0;  // index into plan.partitions()
  AuthorityIndex from = 0;
  AuthorityIndex to = 0;
  std::size_t rules = 0;
};

struct MigrationPlannerParams {
  std::uint32_t wave_size = 4;        // max concurrent moves per wave
  double imbalance_threshold = 1.5;   // heaviest/mean load ratio that triggers
};

// Greedy rebalance: while the heaviest authority exceeds
// `imbalance_threshold` x mean load, move its smallest partition that still
// helps to the lightest authority. At most `wave_size` steps are returned —
// the caller re-plans after the wave lands, so convergence is incremental
// and the double-occupancy window stays bounded. Deterministic: ties break
// by partition index.
std::vector<MigrationStep> plan_rebalance_wave(const PartitionPlan& plan,
                                               const MigrationPlannerParams& params);

}  // namespace difane
