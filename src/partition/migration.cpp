#include "partition/migration.hpp"

#include <algorithm>
#include <limits>

#include "util/contract.hpp"

namespace difane {

std::vector<MigrationStep> plan_rebalance_wave(const PartitionPlan& plan,
                                               const MigrationPlannerParams& params) {
  expects(params.wave_size >= 1, "plan_rebalance_wave: wave_size must be >= 1");
  const auto k = plan.authority_count();
  std::vector<MigrationStep> steps;
  if (k < 2) return steps;

  // Work on a mutable copy of the load vector and a per-partition owner map
  // so each planned step is reflected in the next iteration's choice.
  std::vector<std::size_t> load = plan.rules_per_authority();
  const auto& partitions = plan.partitions();
  std::vector<AuthorityIndex> owner(partitions.size());
  for (std::size_t i = 0; i < partitions.size(); ++i) owner[i] = partitions[i].primary;

  std::size_t total = 0;
  for (const auto l : load) total += l;
  const double mean = static_cast<double>(total) / static_cast<double>(k);
  if (mean <= 0.0) return steps;

  while (steps.size() < params.wave_size) {
    const auto heaviest = static_cast<AuthorityIndex>(
        std::max_element(load.begin(), load.end()) - load.begin());
    const auto lightest = static_cast<AuthorityIndex>(
        std::min_element(load.begin(), load.end()) - load.begin());
    if (heaviest == lightest) break;
    if (static_cast<double>(load[heaviest]) <= params.imbalance_threshold * mean)
      break;
    // Smallest partition on the heaviest authority whose move still shrinks
    // the gap (moving it must not just swap which side is overloaded).
    const std::size_t gap = load[heaviest] - load[lightest];
    std::size_t best = partitions.size();
    std::size_t best_rules = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      if (owner[i] != heaviest) continue;
      const std::size_t r = partitions[i].rules.size();
      // Moving r shrinks the pair's gap iff r < gap (new gap = |gap - 2r|).
      if (r == 0 || r >= gap) continue;
      if (r < best_rules) {
        best_rules = r;
        best = i;
      }
    }
    if (best == partitions.size()) break;  // nothing helps; wave done
    steps.push_back(MigrationStep{best, heaviest, lightest, best_rules});
    owner[best] = lightest;
    load[heaviest] -= best_rules;
    load[lightest] += best_rules;
  }
  return steps;
}

}  // namespace difane
