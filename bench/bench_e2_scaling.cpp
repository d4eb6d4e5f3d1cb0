// E2 — Throughput scaling with the number of authority switches. The paper
// shows DIFANE's flow-setup capacity growing near-linearly as authority
// switches are added (the partitions spread the miss load), while a central
// controller cannot scale this way.
#include "common.hpp"

using namespace difane;
using namespace difane::bench;

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "E2", /*default_seed=*/13);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header(
          "E2: peak setup throughput vs number of authority switches",
          "DIFANE multi-authority scaling figure",
          "DIFANE peak grows ~linearly in k; NOX constant at controller capacity");
    }

    const std::size_t policy_size = args.pick<std::size_t>(2000, 500);
    const auto policy = classbench_like(policy_size, 11);
    rep.report.params["policy_rules"] = obs::Json(policy_size);
    // Offered load comfortably above k * 800K/s for every k tested.
    const double offered = 4.0e6;
    const double duration = args.pick(0.02, 0.008);
    const auto flows = setup_storm(policy, offered, duration, rep.seed, /*ingress=*/8);

    TextTable table({"authority switches", "DIFANE peak (flows/s)", "per-switch",
                     "scaling vs k=1", "NOX (flows/s)"});
    const std::vector<std::uint32_t> ks =
        args.quick ? std::vector<std::uint32_t>{1u, 2u, 4u}
                   : std::vector<std::uint32_t>{1u, 2u, 3u, 4u, 6u, 8u};
    // Independent cells: the NOX reference (cell 0, independent of k) plus
    // one DIFANE run per k. Scaling ratios need the k=1 result, so they are
    // computed after the parallel sweep, walking results in serial order.
    std::vector<double> k_rates(ks.size());
    double nox_rate = 0.0;
    run_cells(args.threads, ks.size() + 1, [&](std::size_t cell) {
      if (cell == 0) {
        Scenario nox(policy, nox_params());
        nox_rate = nox.run(flows).setup_completions.rate();
        return;
      }
      const std::uint32_t k = ks[cell - 1];
      auto params = difane_params(k, CacheStrategy::kMicroflow);
      params.edge_switches = 8;
      Scenario scenario(policy, params);
      k_rates[cell - 1] = scenario.run(flows).setup_completions.rate();
    });
    rep.set("nox_flows_per_s", nox_rate);
    double base = 0.0;
    for (std::size_t i = 0; i < ks.size(); ++i) {
      const std::uint32_t k = ks[i];
      const double rate = k_rates[i];
      if (k == 1) base = rate;
      rep.set(tag("difane_flows_per_s_k", k), rate);
      rep.set(tag("scaling_vs_k1_k", k), base > 0 ? rate / base : 0.0);
      table.add_row({TextTable::integer(k), TextTable::num(rate, 0),
                     TextTable::num(rate / k, 0),
                     TextTable::num(base > 0 ? rate / base : 0.0, 2),
                     TextTable::num(nox_rate, 0)});
    }
    if (rep.verbose) std::printf("%s\n", table.render().c_str());

    // Sharded-engine demonstration row: the largest k re-run with the
    // in-scenario parallel engine (ScenarioParams::threads = --threads).
    // Wall-clock only — the simulated counters legitimately differ from the
    // serial engine's (window-boundary clamping), so only `_wall_` metrics
    // (exempt from the determinism gate) are exported from this row.
    if (args.threads > 1) {
      auto params = difane_params(ks.back(), CacheStrategy::kMicroflow);
      params.edge_switches = 8;
      const auto t0 = std::chrono::steady_clock::now();
      Scenario serial(policy, params);
      serial.run(flows);
      const double serial_wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      params.threads = static_cast<std::size_t>(args.threads);
      const auto t1 = std::chrono::steady_clock::now();
      Scenario sharded(policy, params);
      sharded.run(flows);
      const double sharded_wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
              .count();
      rep.set("engine_wall_serial_s", serial_wall);
      rep.set("engine_wall_sharded_s", sharded_wall);
      rep.set("engine_wall_speedup",
              sharded_wall > 0 ? serial_wall / sharded_wall : 0.0);
      if (rep.verbose) {
        std::printf(
            "sharded engine (k=%u, threads=%d): serial %.3fs, sharded %.3fs, "
            "speedup %.2fx\n",
            ks.back(), args.threads, serial_wall, sharded_wall,
            sharded_wall > 0 ? serial_wall / sharded_wall : 0.0);
      }
    }
  });
}
