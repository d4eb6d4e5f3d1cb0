// E9 — Authority-switch failure recovery. DIFANE pre-positions backup
// authority rules and re-points partition rules when a primary dies; the
// loss window is bounded by failure-detection time. Sweeps the detection
// delay and reports packets lost and post-recovery completion rate.
#include "common.hpp"

using namespace difane;
using namespace difane::bench;

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "E9", /*default_seed=*/61);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header("E9: authority failure — loss window vs detection delay",
                   "failure-recovery discussion (backup authority switches)",
                   "losses proportional to the detection window; completions "
                   "recover fully after re-pointing");
    }

    const std::size_t policy_size = args.pick<std::size_t>(1500, 600);
    const auto policy = classbench_like(policy_size, 59);
    rep.report.params["policy_rules"] = obs::Json(policy_size);
    const double duration = args.pick(2.0, 1.0);
    const double fail_at = duration / 2.0;

    TextTable table({"detect delay (ms)", "lost packets", "lost %", "completed %",
                     "redirects"});
    const std::vector<double> detects =
        args.quick ? std::vector<double>{0.05, 0.5}
                   : std::vector<double>{0.01, 0.05, 0.2, 0.5};
    for (const double detect : detects) {
      // Microflow keeps redirects flowing all run (every new flow detours), so
      // the authority switch is exercised through the failure.
      auto params = difane_params(2, CacheStrategy::kMicroflow);
      params.timings.failover_detect = detect;
      AuthorityCrash crash;  // authority 0, never restarted
      crash.at = fail_at;
      params.faults.crashes.push_back(crash);
      Scenario scenario(policy, params);
      const auto flows = setup_storm(policy, 5000.0, duration, rep.seed);
      const auto& stats = scenario.run(flows);
      const auto lost = stats.tracer.dropped(DropReason::kSwitchFailed) +
                        stats.tracer.dropped(DropReason::kUnreachable);
      const std::string suffix = tag("_detect_ms", detect * 1e3);
      rep.set("lost_packets" + suffix, static_cast<double>(lost));
      rep.set("lost_pct" + suffix,
              100.0 * static_cast<double>(lost) /
                  static_cast<double>(stats.tracer.injected()));
      rep.set("completed_pct" + suffix,
              100.0 * static_cast<double>(stats.setup_completions.total()) /
                  static_cast<double>(flows.size()));
      rep.set("redirects" + suffix, static_cast<double>(stats.redirects));
      table.add_row(
          {TextTable::num(detect * 1e3, 0),
           TextTable::integer(static_cast<long long>(lost)),
           TextTable::num(100.0 * static_cast<double>(lost) /
                              static_cast<double>(stats.tracer.injected()),
                          2),
           TextTable::num(100.0 * static_cast<double>(stats.setup_completions.total()) /
                              static_cast<double>(flows.size()),
                          2),
           TextTable::integer(static_cast<long long>(stats.redirects))});
    }
    if (rep.verbose) std::printf("%s\n", table.render().c_str());

    // Fault-plan modes: the same failover measured the honest way — a lossy
    // control wire ridden by reliable channels, heartbeat detection instead
    // of the fixed delay, a TCAM-clearing crash, and optionally a restart or
    // a second failure. Each row ends with an installed-state verifier
    // sweep; violations must be zero for the run to count as recovered.
    TextTable chaos({"plan", "lost %", "completed %", "retransmits",
                     "failovers", "recoveries", "violations"});
    struct PlanMode {
      const char* name;
      bool restart;
      bool second_failure;
    };
    static constexpr PlanMode kModes[] = {{"lossy", false, false},
                                          {"restart", true, false},
                                          {"double", true, true}};
    for (const auto& mode : kModes) {
      auto params = difane_params(2, CacheStrategy::kMicroflow);
      params.reliable_ctrl = true;
      params.faults.seed = rep.seed;
      params.faults.msg_loss = 0.15;  // past the 10% acceptance bar
      params.faults.msg_dup = 0.05;
      params.timings.heartbeat_interval = 0.02;
      params.timings.heartbeat_miss = 3;
      params.timings.heartbeat_horizon = duration + 1.0;
      AuthorityCrash crash;
      crash.authority_index = 0;
      crash.at = fail_at;
      crash.restart_at = mode.restart ? fail_at + 0.15 * duration : -1.0;
      params.faults.crashes.push_back(crash);
      if (mode.second_failure) {
        // The second authority dies after the first has already restarted:
        // the worst case the backup scheme is meant to survive.
        AuthorityCrash second;
        second.authority_index = 1;
        second.at = fail_at + 0.3 * duration;
        params.faults.crashes.push_back(second);
      }
      Scenario scenario(policy, params);
      const auto flows = setup_storm(policy, 5000.0, duration, rep.seed);
      const auto& stats = scenario.run(flows);
      const auto verify = scenario.verify_installed();

      const auto lost = stats.tracer.dropped(DropReason::kSwitchFailed) +
                        stats.tracer.dropped(DropReason::kUnreachable);
      const double lost_pct = 100.0 * static_cast<double>(lost) /
                              static_cast<double>(stats.tracer.injected());
      const double completed_pct =
          100.0 * static_cast<double>(stats.setup_completions.total()) /
          static_cast<double>(flows.size());
      const std::string suffix = std::string("_plan_") + mode.name;
      rep.set("lost_pct" + suffix, lost_pct);
      rep.set("completed_pct" + suffix, completed_pct);
      rep.set("ctrl_retransmits" + suffix,
              static_cast<double>(stats.ctrl_retransmits));
      rep.set("msgs_lost" + suffix, static_cast<double>(stats.msgs_lost));
      rep.set("failovers_detected" + suffix,
              static_cast<double>(stats.failovers_detected));
      rep.set("recoveries_detected" + suffix,
              static_cast<double>(stats.recoveries_detected));
      rep.set("verifier_violations" + suffix,
              static_cast<double>(verify.violations.size()));
      chaos.add_row(
          {mode.name, TextTable::num(lost_pct, 2),
           TextTable::num(completed_pct, 2),
           TextTable::integer(static_cast<long long>(stats.ctrl_retransmits)),
           TextTable::integer(static_cast<long long>(stats.failovers_detected)),
           TextTable::integer(static_cast<long long>(stats.recoveries_detected)),
           TextTable::integer(static_cast<long long>(verify.violations.size()))});
    }
    if (rep.verbose) std::printf("%s\n", chaos.render().c_str());
  });
}
