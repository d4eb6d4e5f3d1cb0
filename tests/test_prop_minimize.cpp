// Properties of the table-rewriting machinery: minimize() is idempotent and
// semantics-preserving, and incremental partition maintenance (insert /
// remove churn against the live cut tree) ends at the same packet-level
// semantics as a from-scratch rebuild of the final policy.
#include <gtest/gtest.h>

#include "proptest/oracle.hpp"
#include "proptest/property.hpp"

namespace difane {
namespace {

using proptest::Counterexample;
using proptest::Violation;

DIFANE_PROPERTY(MinimizeIdempotentAndSemanticsPreserving, 250) {
  proptest::TableGenParams tg;
  tg.add_default = ctx.rng.bernoulli(0.5);
  tg.p_priority_tie = 0.5;  // sibling merges need shared priorities
  Counterexample cex;
  cex.rules = proptest::gen_table(ctx.rng, tg).rules();
  const std::uint64_t sample_seed = ctx.case_seed ^ 0x3333;

  const auto oracle = [&](const Counterexample& c) {
    return proptest::check_minimize(c, sample_seed, 48);
  };
  if (const Violation v = oracle(cex)) {
    FAIL() << "seed 0x" << std::hex << ctx.case_seed << std::dec << "\n"
           << proptest::shrink_report(oracle, cex, 8000);
  }
}

DIFANE_PROPERTY(IncrementalEqualsRebuild, 220) {
  proptest::TableGenParams tg;
  tg.min_rules = 4;
  tg.add_default = ctx.rng.bernoulli(0.8);
  Counterexample cex;
  cex.rules = proptest::gen_table(ctx.rng, tg).rules();

  PartitionerParams pp;
  pp.capacity = ctx.rng.uniform(2, 16);
  const auto authority_count = static_cast<std::uint32_t>(ctx.rng.uniform(1, 3));

  const auto oracle = [&](const Counterexample& c) {
    return proptest::check_incremental(c, pp, authority_count);
  };
  if (const Violation v = oracle(cex)) {
    FAIL() << "seed 0x" << std::hex << ctx.case_seed << std::dec << " capacity "
           << pp.capacity << " authorities " << authority_count << "\n"
           << proptest::shrink_report(oracle, cex, 4000);
  }
}

}  // namespace
}  // namespace difane
