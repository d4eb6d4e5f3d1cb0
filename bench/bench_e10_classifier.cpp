// E10 — Substrate validation microbenchmark: packet classification
// throughput of the linear TCAM-semantics reference vs the HiCuts-style
// decision tree, across rule-table sizes. Justifies the switch model's
// lookup-cost assumptions. Timing loops are manual chrono loops (wall
// metrics, `_wall_` keys); tree-structure metrics are deterministic.
#include <chrono>

#include "common.hpp"

#include "classifier/dtree.hpp"

using namespace difane;
using namespace difane::bench;

namespace {

std::vector<BitVec> make_packets(const RuleTable& policy, std::size_t n,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVec> packets;
  packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0 || policy.empty()) {
      packets.push_back(Ternary::wildcard().sample_point(rng));
    } else {
      packets.push_back(
          policy.at(rng.uniform(0, policy.size() - 1)).match.sample_point(rng));
    }
  }
  return packets;
}

// Runs `lookup` over the packet ring until ~min_iters lookups, returns
// nanoseconds per lookup. A volatile sink keeps the calls live.
template <typename Lookup>
double time_lookup_ns(const Lookup& lookup, const std::vector<BitVec>& packets,
                      std::size_t min_iters) {
  volatile const void* sink = nullptr;
  std::size_t i = 0, iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (iters < min_iters) {
    sink = lookup(packets[i++ & (packets.size() - 1)]);
    ++iters;
  }
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "E10", /*default_seed=*/3);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header("E10: classifier microbenchmark (linear vs decision tree)",
                   "substrate validation: switch-model lookup-cost assumptions",
                   "dtree lookup ~O(depth); linear ~O(rules); build cost "
                   "amortized over lookups");
    }

    const std::size_t lookups = args.pick<std::size_t>(200000, 20000);
    const std::vector<std::size_t> sizes =
        args.quick ? std::vector<std::size_t>{100u, 1000u}
                   : std::vector<std::size_t>{100u, 1000u, 10000u};
    TextTable table({"rules", "linear (ns/lookup)", "dtree (ns/lookup)",
                     "speedup", "dtree nodes", "depth", "duplication",
                     "build (ms)"});
    for (const std::size_t size : sizes) {
      const auto policy = classbench_like(size, rep.seed);
      const auto packets = make_packets(policy, 1024, 7);

      DTreeParams params;
      params.leaf_size = 64;  // coarse leaves: wildcard ACLs replicate badly below

      const auto b0 = std::chrono::steady_clock::now();
      DTreeClassifier tree(policy, params);
      const auto b1 = std::chrono::steady_clock::now();
      const double build_ms =
          std::chrono::duration<double, std::milli>(b1 - b0).count();

      const double linear_ns = time_lookup_ns(
          [&](const BitVec& p) { return policy.match(p); }, packets, lookups);
      const double dtree_ns = time_lookup_ns(
          [&](const BitVec& p) { return tree.classify(p); }, packets, lookups);

      const std::string suffix = tag("_n", static_cast<double>(size));
      // Structure metrics are deterministic (same seed => same tree).
      rep.set("dtree_nodes" + suffix, static_cast<double>(tree.node_count()));
      rep.set("dtree_leaves" + suffix, static_cast<double>(tree.leaf_count()));
      rep.set("dtree_depth" + suffix, static_cast<double>(tree.depth()));
      rep.set("dtree_duplication" + suffix, tree.duplication_factor());
      // Host-timing metrics carry the _wall_ marker (exempt from determinism
      // checks in bench_compare/tests).
      rep.set("linear_wall_ns_per_lookup" + suffix, linear_ns);
      rep.set("dtree_wall_ns_per_lookup" + suffix, dtree_ns);
      rep.set("dtree_build_wall_ms" + suffix, build_ms);

      table.add_row({TextTable::integer(static_cast<long long>(size)),
                     TextTable::num(linear_ns, 1), TextTable::num(dtree_ns, 1),
                     TextTable::num(dtree_ns > 0 ? linear_ns / dtree_ns : 0.0, 1),
                     TextTable::integer(static_cast<long long>(tree.node_count())),
                     TextTable::integer(static_cast<long long>(tree.depth())),
                     TextTable::num(tree.duplication_factor(), 2),
                     TextTable::num(build_ms, 2)});
    }
    if (rep.verbose) std::printf("%s\n", table.render().c_str());
  });
}
