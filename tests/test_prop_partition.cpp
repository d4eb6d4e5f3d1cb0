// Properties of the flow-space partitioner, for every CutStrategy: regions
// disjoint and complete, every policy rule reachable, capacity respected
// except where cutting provably cannot help, and the clipped tables agree
// with the single-table policy on the exact winner, packet by packet.
#include <gtest/gtest.h>

#include "proptest/oracle.hpp"
#include "proptest/property.hpp"

namespace difane {
namespace {

using proptest::Counterexample;
using proptest::Violation;

void run_partition_case(proptest::PropertyContext& ctx, CutStrategy strategy) {
  proptest::TableGenParams tg;
  tg.add_default = ctx.rng.bernoulli(0.8);
  Counterexample cex;
  cex.rules = proptest::gen_table(ctx.rng, tg).rules();

  PartitionerParams pp;
  pp.capacity = ctx.rng.uniform(2, 24);
  pp.dup_penalty = ctx.rng.bernoulli(0.5) ? 1.0 : 4.0;
  pp.strategy = strategy;
  pp.seed = ctx.case_seed;
  const auto authority_count = static_cast<std::uint32_t>(ctx.rng.uniform(1, 4));

  const auto oracle = [&](const Counterexample& c) {
    return proptest::check_partition(c, pp, authority_count);
  };
  if (const Violation v = oracle(cex)) {
    FAIL() << "seed 0x" << std::hex << ctx.case_seed << std::dec
           << " strategy " << static_cast<int>(strategy) << " capacity "
           << pp.capacity << " authorities " << authority_count << "\n"
           << proptest::shrink_report(oracle, cex, 4000);
  }
}

DIFANE_PROPERTY(PartitionBestBit, 220) {
  run_partition_case(ctx, CutStrategy::kBestBit);
}

DIFANE_PROPERTY(PartitionIpBitsOnly, 220) {
  run_partition_case(ctx, CutStrategy::kIpBitsOnly);
}

DIFANE_PROPERTY(PartitionRandomBit, 220) {
  run_partition_case(ctx, CutStrategy::kRandomBit);
}

}  // namespace
}  // namespace difane
