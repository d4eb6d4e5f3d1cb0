// E12 — Monitoring fidelity: flow measurement from cache rules. The
// telemetry data plane samples packets at terminal match points (NetFlow
// p-sampling), periodically exports per-flow deltas over the control
// channel, and the collector's estimate (sampled / p) is judged against the
// TrafficGenerator's exact per-flow ground truth. Four sections:
//
//  * Fidelity grid — sampling rates {0.1, 0.5, 1.0} x heavy-tail modes
//    {zipf, flash crowd}: every flow's estimate must land inside the
//    binomial sampling envelope max(6 sigma, 3/p); at p = 1 the estimate is
//    exact. Overhead columns (batches/records/transmissions) price the
//    export stream the fidelity was bought with.
//  * Eviction flush under faults — a thrashing cache plus an authority
//    crash+restart on a lossy (reliable-channel) control wire. With
//    flush-on-evict ON, an evicted elephant's counts are exported rather
//    than dropped, so the top-flow error stays near zero; OFF shows the
//    counts that die with the evicted entry.
//  * Liveness piggyback — quiet-authority scenario on a 60%-loss wire:
//    export batches carry heartbeat sequence numbers, so measurement ON
//    suppresses the spurious failovers the bare heartbeat stream misfires.
//  * Replay — the export stream is a pure function of (seed, params): the
//    same cell run twice dumps byte-identical JSON.
#include <algorithm>
#include <cmath>

#include "common.hpp"

#include "obs/flow_export.hpp"

using namespace difane;
using namespace difane::bench;

namespace {

struct ModeRow {
  const char* name;
  double alpha;
  TrafficMode mode;
};

constexpr ModeRow kModes[] = {
    {"zipf", 1.1, TrafficMode::kPoissonZipf},
    {"flash", 1.0, TrafficMode::kFlashCrowd},
};
constexpr double kRates[] = {0.1, 0.5, 1.0};

struct FidelityCell {
  double outside_bound = 0.0;   // flows whose estimate left the envelope
  double mean_rel_err_pct = 0.0;  // flows with >= 20 true packets
  double est_total_pct = 0.0;   // estimated total volume / true total
  double sampled_packets = 0.0;
  double export_records = 0.0;
  double export_batches = 0.0;
  double export_transmissions = 0.0;
  double queue_rejects = 0.0;
};

struct FaultCell {
  double elephant_err_pct = 0.0;  // top-10 flows, |est - true| / true volume
  double evict_records = 0.0;
  double final_records = 0.0;
  double dropped_packets = 0.0;
  double failovers = 0.0;
};

// Error statistics for one finished measured run: walks the exact per-flow
// ground truth and compares against the collector's estimates.
struct ErrStats {
  double outside_bound = 0.0;
  double mean_rel_err_pct = 0.0;
  double est_total_pct = 0.0;
};

ErrStats error_stats(const std::vector<FlowTruth>& truth,
                     const obs::FlowCollector& collector, double p) {
  ErrStats out;
  double rel_sum = 0.0, rel_n = 0.0, est_total = 0.0, true_total = 0.0;
  for (const auto& t : truth) {
    const auto* totals = collector.find(t.header);
    const double est = totals == nullptr ? 0.0 : totals->estimated_packets;
    const double n = static_cast<double>(t.packets);
    const double bound =
        std::max(6.0 * std::sqrt(n * (1.0 - p) / p), 3.0 / p);
    if (std::abs(est - n) > bound) out.outside_bound += 1.0;
    if (t.packets >= 20) {
      rel_sum += std::abs(est - n) / n;
      rel_n += 1.0;
    }
    est_total += est;
    true_total += n;
  }
  out.mean_rel_err_pct = rel_n > 0 ? 100.0 * rel_sum / rel_n : 0.0;
  out.est_total_pct = true_total > 0 ? 100.0 * est_total / true_total : 0.0;
  return out;
}

// Aggregate error over the ten largest flows — the elephants whose counts
// the eviction flush exists to preserve.
double elephant_error_pct(std::vector<FlowTruth> truth,
                          const obs::FlowCollector& collector) {
  std::sort(truth.begin(), truth.end(),
            [](const FlowTruth& a, const FlowTruth& b) {
              return a.packets > b.packets;
            });
  if (truth.size() > 10) truth.resize(10);
  double err = 0.0, total = 0.0;
  for (const auto& t : truth) {
    const auto* totals = collector.find(t.header);
    const double est = totals == nullptr ? 0.0 : totals->estimated_packets;
    err += std::abs(est - static_cast<double>(t.packets));
    total += static_cast<double>(t.packets);
  }
  return total > 0 ? 100.0 * err / total : 0.0;
}

ScenarioParams measured_params(double sample_prob, double horizon,
                               std::uint64_t seed,
                               std::size_t cache = 1u << 20) {
  auto params = difane_params(2, CacheStrategy::kCoverSet, cache);
  params.measurement.enabled = true;
  params.measurement.sample_prob = sample_prob;
  params.measurement.export_interval = 0.02;
  params.measurement.export_horizon = horizon;
  params.measurement.seed = seed;
  return params;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "E12", /*default_seed=*/71);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header(
          "E12: monitoring fidelity — sampled flow export vs ground truth",
          "monitoring discussion (flow measurement from TCAM cache rules)",
          "per-flow error inside the binomial envelope, exact at p=1; "
          "eviction flush preserves evicted elephants; export piggyback "
          "suppresses quiet-authority false failovers");
    }

    const std::size_t policy_size = args.pick<std::size_t>(800, 300);
    const auto policy = classbench_like(policy_size, 67);
    rep.report.params["policy_rules"] = obs::Json(policy_size);
    const double duration = args.pick(1.0, 0.4);
    const std::size_t pool = args.pick<std::size_t>(2000, 800);
    const double rate = 4000.0;

    // ---------------------------------------------------------------------
    // Fidelity grid: sampling rate x heavy-tail mode. Every cell is a full
    // measured scenario against the same policy; cells are independent, so
    // they parallelize under --threads with byte-identical metrics.
    constexpr std::size_t kNumModes = std::size(kModes);
    constexpr std::size_t kNumRates = std::size(kRates);
    std::vector<FidelityCell> cells(kNumModes * kNumRates);
    run_cells(args.threads, cells.size(), [&](std::size_t cell) {
      const ModeRow& mode = kModes[cell / kNumRates];
      const double p = kRates[cell % kNumRates];
      auto params = measured_params(p, duration, rep.seed);
      Scenario scenario(policy, params);
      TrafficGenerator gen(policy,
                           heavy_tail_params(rep.seed, mode.alpha, rate,
                                             duration, pool, mode.mode));
      const auto flows = gen.generate();
      const auto& stats = scenario.run(flows);
      const auto err =
          error_stats(flow_ground_truth(flows), scenario.collector(), p);
      FidelityCell& out = cells[cell];
      out.outside_bound = err.outside_bound;
      out.mean_rel_err_pct = err.mean_rel_err_pct;
      out.est_total_pct = err.est_total_pct;
      out.sampled_packets = static_cast<double>(stats.telemetry_sampled_packets);
      out.export_records = static_cast<double>(stats.export_records);
      out.export_batches = static_cast<double>(stats.export_batches);
      out.export_transmissions =
          static_cast<double>(stats.export_transmissions);
      out.queue_rejects = static_cast<double>(stats.queue_rejects);
    });

    TextTable grid({"mode", "p", "outside bound", "mean err % (n>=20)",
                    "est/true %", "records", "batches", "transmissions"});
    for (std::size_t cell = 0; cell < cells.size(); ++cell) {
      const ModeRow& mode = kModes[cell / kNumRates];
      const double p = kRates[cell % kNumRates];
      const FidelityCell& c = cells[cell];
      const std::string suffix =
          std::string("_") + mode.name + tag("_p", p * 100.0);
      rep.set("flows_outside_bound" + suffix, c.outside_bound);
      rep.set("telemetry_mean_rel_err_pct" + suffix, c.mean_rel_err_pct);
      rep.set("telemetry_est_total_pct" + suffix, c.est_total_pct);
      rep.set("telemetry_sampled_packets" + suffix, c.sampled_packets);
      rep.set("export_records" + suffix, c.export_records);
      rep.set("export_batches" + suffix, c.export_batches);
      rep.set("export_transmissions" + suffix, c.export_transmissions);
      rep.set("queue_rejects" + suffix, c.queue_rejects);
      grid.add_row({mode.name, TextTable::num(p, 1),
                    TextTable::integer(static_cast<long long>(c.outside_bound)),
                    TextTable::num(c.mean_rel_err_pct, 2),
                    TextTable::num(c.est_total_pct, 2),
                    TextTable::integer(static_cast<long long>(c.export_records)),
                    TextTable::integer(static_cast<long long>(c.export_batches)),
                    TextTable::integer(
                        static_cast<long long>(c.export_transmissions))});
    }
    if (rep.verbose) std::printf("%s\n", grid.render().c_str());

    // ---------------------------------------------------------------------
    // Eviction flush under a fault plan: a 48-entry cache thrashes under the
    // heavy tail while authority 0 crashes mid-run (TCAM cleared, pending
    // counters lost) and restarts, all over a 10%-loss wire ridden by
    // reliable channels. p = 1, so any error is counts that died instead of
    // being exported — flush ON closes evicted records (kEvict), flush OFF
    // drop-counts them.
    FaultCell fault_cells[2];
    run_cells(args.threads, 2, [&](std::size_t i) {
      const bool flush = i == 0;
      auto params = measured_params(1.0, duration, rep.seed, /*cache=*/48);
      params.measurement.flush_on_evict = flush;
      params.reliable_ctrl = true;
      params.faults.seed = rep.seed;
      params.faults.msg_loss = 0.1;
      params.timings.heartbeat_interval = 0.02;
      params.timings.heartbeat_miss = 3;
      params.timings.heartbeat_horizon = duration + 1.0;
      AuthorityCrash crash;
      crash.authority_index = 0;
      crash.at = 0.5 * duration;
      crash.restart_at = 0.75 * duration;
      params.faults.crashes.push_back(crash);
      Scenario scenario(policy, params);
      TrafficGenerator gen(policy,
                           heavy_tail_params(rep.seed, 1.1, rate, duration,
                                             pool, TrafficMode::kPoissonZipf));
      const auto flows = gen.generate();
      const auto& stats = scenario.run(flows);
      FaultCell& out = fault_cells[i];
      out.elephant_err_pct =
          elephant_error_pct(flow_ground_truth(flows), scenario.collector());
      out.evict_records = static_cast<double>(stats.export_evict_records);
      out.final_records = static_cast<double>(stats.export_final_records);
      out.dropped_packets = static_cast<double>(stats.telemetry_dropped_packets);
      out.failovers = static_cast<double>(stats.failovers_detected);
    });

    TextTable fault({"flush-on-evict", "elephant err %", "evict records",
                     "dropped packets", "failovers"});
    for (std::size_t i = 0; i < 2; ++i) {
      const FaultCell& c = fault_cells[i];
      const std::string suffix = i == 0 ? "_flush_on" : "_flush_off";
      rep.set("elephant_err_pct" + suffix, c.elephant_err_pct);
      rep.set("export_evict_records" + suffix, c.evict_records);
      rep.set("export_final_records" + suffix, c.final_records);
      rep.set("telemetry_dropped_packets" + suffix, c.dropped_packets);
      rep.set("failovers_detected" + suffix, c.failovers);
      fault.add_row({i == 0 ? "on" : "off",
                     TextTable::num(c.elephant_err_pct, 3),
                     TextTable::integer(static_cast<long long>(c.evict_records)),
                     TextTable::integer(
                         static_cast<long long>(c.dropped_packets)),
                     TextTable::integer(static_cast<long long>(c.failovers))});
    }
    if (rep.verbose) std::printf("%s\n", fault.render().c_str());

    // ---------------------------------------------------------------------
    // Liveness piggyback: after the traffic stops, the only evidence an
    // authority is alive crosses a 60%-loss wire. Bare heartbeats misfire;
    // with measurement on, periodic (keepalive) export batches carry
    // heartbeat sequence numbers through the reliable channel and the
    // monitor keeps the quiet authorities alive.
    double spurious[2] = {0.0, 0.0};
    double piggyback_fresh = 0.0, keepalives = 0.0;
    run_cells(args.threads, 2, [&](std::size_t i) {
      const bool measured = i == 1;
      auto params = measured_params(1.0, duration + 1.0, rep.seed);
      params.measurement.enabled = measured;
      params.measurement.export_interval = 0.05;
      params.reliable_ctrl = true;
      params.faults.seed = rep.seed;
      params.faults.msg_loss = 0.6;
      params.timings.heartbeat_interval = 0.05;
      params.timings.heartbeat_miss = 3;
      params.timings.heartbeat_horizon = duration + 1.0;
      Scenario scenario(policy, params);
      const auto flows = zipf_traffic(policy, 2000.0, 0.5 * duration, 300,
                                      0.9, rep.seed);
      const auto& stats = scenario.run(flows);
      spurious[i] = static_cast<double>(stats.spurious_failovers);
      if (measured) {
        piggyback_fresh = static_cast<double>(stats.export_piggyback_fresh);
        keepalives = static_cast<double>(stats.export_keepalives);
      }
    });
    rep.set("spurious_failovers_meas_off", spurious[0]);
    rep.set("spurious_failovers_meas_on", spurious[1]);
    rep.set("export_piggyback_fresh", piggyback_fresh);
    rep.set("export_keepalives", keepalives);
    if (rep.verbose) {
      TextTable quiet({"measurement", "spurious failovers", "piggyback fresh",
                       "keepalives"});
      quiet.add_row({"off", TextTable::integer(
                                static_cast<long long>(spurious[0])),
                     "-", "-"});
      quiet.add_row({"on",
                     TextTable::integer(static_cast<long long>(spurious[1])),
                     TextTable::integer(static_cast<long long>(piggyback_fresh)),
                     TextTable::integer(static_cast<long long>(keepalives))});
      std::printf("%s\n", quiet.render().c_str());
    }

    // ---------------------------------------------------------------------
    // Replay: the export stream is a pure function of (seed, params). Run
    // the p = 0.5 zipf cell twice; the collector stream must dump to the
    // same bytes.
    std::uint64_t batches = 0;
    const auto stream_once = [&]() {
      auto params = measured_params(0.5, duration, rep.seed);
      Scenario scenario(policy, params);
      TrafficGenerator gen(policy,
                           heavy_tail_params(rep.seed, 1.1, rate, duration,
                                             pool, TrafficMode::kPoissonZipf));
      scenario.run(gen.generate());
      batches = scenario.collector().batches();
      return scenario.collector().stream_dump();
    };
    const std::string first = stream_once();
    const std::string second = stream_once();
    rep.set("replay_identical", first == second ? 1.0 : 0.0);
    rep.set("replay_stream_bytes", static_cast<double>(first.size()));
    if (rep.verbose) {
      std::printf("replay: %s (%zu-byte export stream, %llu batches)\n\n",
                  first == second ? "byte-identical" : "DIVERGED",
                  first.size(), static_cast<unsigned long long>(batches));
    }
  });
}
