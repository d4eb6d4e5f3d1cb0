// E1 — Flow-setup throughput: DIFANE (one authority switch) vs a NOX-style
// reactive controller, across offered flow-arrival rates. Reproduces the
// paper's headline throughput figure: NOX saturates at controller capacity
// (~50K flows/s); DIFANE's data-plane miss path sustains ~800K flows/s per
// authority switch.
#include "common.hpp"

using namespace difane;
using namespace difane::bench;

namespace {

// Rate over the actual completion span (not the arrival window): a saturated
// system keeps draining its queue after arrivals stop, and that drain must
// not inflate the measured throughput.
double run_mode(const RuleTable& policy, Mode mode, double rate,
                double duration, std::uint64_t seed) {
  const auto flows = setup_storm(policy, rate, duration, seed);
  const ScenarioParams params = mode == Mode::kDifane
                                    ? difane_params(1, CacheStrategy::kMicroflow)
                                    : nox_params();
  Scenario scenario(policy, params);
  return scenario.run(flows).setup_completions.rate();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "E1", /*default_seed=*/41);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header(
          "E1: flow-setup throughput vs offered rate",
          "DIFANE vs NOX throughput figure (SIGCOMM'10 evaluation)",
          "NOX flat-lines ~50K/s; DIFANE (k=1) tracks offered load to ~800K/s");
    }

    const std::size_t policy_size = args.pick<std::size_t>(1000, 300);
    const auto policy = classbench_like(policy_size, 7);
    rep.report.params["policy_rules"] = obs::Json(policy_size);

    TextTable table({"offered (flows/s)", "DIFANE (flows/s)", "NOX (flows/s)",
                     "DIFANE/NOX"});
    const std::vector<double> rates =
        args.quick ? std::vector<double>{1e4, 1e5, 8e5, 1.6e6}
                   : std::vector<double>{1e4, 2e4, 5e4, 1e5, 2e5, 4e5,
                                         8e5, 1.2e6, 1.6e6};
    // Each (rate, mode) pair is an independent simulation cell; run them on
    // the worker pool and emit metrics/rows in serial order afterwards so the
    // report is identical at any --threads value.
    std::vector<double> difane_rates(rates.size()), nox_rates(rates.size());
    run_cells(args.threads, rates.size() * 2, [&](std::size_t cell) {
      const std::size_t i = cell / 2;
      const double rate = rates[i];
      // Shorter windows at higher rates keep event counts comparable.
      const double duration =
          std::min(args.pick(0.5, 0.2), args.pick(40000.0, 10000.0) / rate);
      if (cell % 2 == 0) {
        difane_rates[i] = run_mode(policy, Mode::kDifane, rate, duration, rep.seed);
      } else {
        nox_rates[i] = run_mode(policy, Mode::kNox, rate, duration, rep.seed);
      }
    });
    double difane_peak = 0.0, nox_peak = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const double rate = rates[i];
      const double difane_rate = difane_rates[i];
      const double nox_rate = nox_rates[i];
      difane_peak = std::max(difane_peak, difane_rate);
      nox_peak = std::max(nox_peak, nox_rate);
      rep.set(tag("difane_flows_per_s_at", rate), difane_rate);
      rep.set(tag("nox_flows_per_s_at", rate), nox_rate);
      table.add_row({TextTable::num(rate, 0), TextTable::num(difane_rate, 0),
                     TextTable::num(nox_rate, 0),
                     TextTable::num(nox_rate > 0 ? difane_rate / nox_rate : 0.0, 1)});
    }
    rep.set("difane_peak_flows_per_s", difane_peak);
    rep.set("nox_peak_flows_per_s", nox_peak);
    rep.set("peak_speedup", nox_peak > 0 ? difane_peak / nox_peak : 0.0);
    if (rep.verbose) std::printf("%s\n", table.render().c_str());
  });
}
