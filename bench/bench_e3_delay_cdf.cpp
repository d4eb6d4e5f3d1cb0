// E3 — First-packet delay CDF: DIFANE vs NOX. The paper reports ~0.4 ms
// first-packet RTT through DIFANE's data-plane redirection vs ~10 ms through
// the NOX controller. Emits the CDF series for both systems plus a
// percentile summary, and the delay of later (cached) packets for reference.
#include "common.hpp"

using namespace difane;
using namespace difane::bench;

namespace {

const ScenarioStats& run_and_keep(Scenario& scenario, const RuleTable& policy,
                                  std::uint64_t seed, double duration) {
  // Light load (far from saturation) so delays reflect path, not queueing;
  // several packets per flow so later-packet delays exist.
  TrafficParams tp;
  tp.seed = seed;
  tp.flow_pool = 1u << 20;
  tp.zipf_s = 0.0;
  tp.arrival_rate = 2000.0;
  tp.duration = duration;
  tp.mean_packets = 3.0;
  tp.packet_gap = 0.05;  // later packets arrive after installs land
  tp.ingress_count = 4;
  TrafficGenerator gen(policy, tp);
  return scenario.run(gen.generate());
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "E3", /*default_seed=*/19);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header("E3: first-packet delay distribution",
                   "DIFANE vs NOX delay CDF figure",
                   "DIFANE median ~0.4ms (data-plane detour); NOX median ~10ms "
                   "(controller RTT + service)");
    }

    const std::size_t policy_size = args.pick<std::size_t>(1000, 300);
    const double duration = args.pick(1.0, 0.3);
    const auto policy = classbench_like(policy_size, 17);
    rep.report.params["policy_rules"] = obs::Json(policy_size);
    Scenario difane(policy, difane_params(2, CacheStrategy::kDependentSet));
    Scenario nox(policy, nox_params());
    const auto& ds = run_and_keep(difane, policy, rep.seed, duration);
    const auto& ns = run_and_keep(nox, policy, rep.seed, duration);

    TextTable pct({"percentile", "DIFANE first (ms)", "NOX first (ms)",
                   "DIFANE later (ms)", "NOX later (ms)"});
    for (const double p : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
      pct.add_row({TextTable::num(p * 100, 0),
                   TextTable::num(ds.tracer.first_packet_delay().percentile(p) * 1e3, 3),
                   TextTable::num(ns.tracer.first_packet_delay().percentile(p) * 1e3, 3),
                   TextTable::num(ds.tracer.later_packet_delay().percentile(p) * 1e3, 3),
                   TextTable::num(ns.tracer.later_packet_delay().percentile(p) * 1e3, 3)});
    }
    if (rep.verbose) std::printf("%s\n", pct.render().c_str());

    // Headline metrics ride the flat snapshot (the consolidated stats API).
    const auto difane_snap = ds.snapshot("E3");
    const auto nox_snap = ns.snapshot("E3");
    for (const auto& [name, value] : difane_snap.metrics) {
      rep.set("difane_" + name, value);
    }
    for (const auto& [name, value] : nox_snap.metrics) {
      rep.set("nox_" + name, value);
    }
    const double d50 = ds.tracer.first_packet_delay().percentile(0.5);
    const double n50 = ns.tracer.first_packet_delay().percentile(0.5);
    rep.set("delay_separation_x", d50 > 0 ? n50 / d50 : 0.0);

    if (rep.verbose) {
      std::printf("CDF series (first-packet delay, ms -> cumulative fraction)\n");
      TextTable cdf({"system", "delay (ms)", "F(x)"});
      for (const auto& [value, frac] : ds.tracer.first_packet_delay().cdf_points(10)) {
        cdf.add_row({"DIFANE", TextTable::num(value * 1e3, 3), TextTable::num(frac, 2)});
      }
      for (const auto& [value, frac] : ns.tracer.first_packet_delay().cdf_points(10)) {
        cdf.add_row({"NOX", TextTable::num(value * 1e3, 3), TextTable::num(frac, 2)});
      }
      std::printf("%s\n", cdf.render().c_str());
      std::printf("summary: DIFANE median %.3f ms vs NOX median %.3f ms (%.0fx)\n",
                  d50 * 1e3, n50 * 1e3, d50 > 0 ? n50 / d50 : 0.0);
    }
  });
}
