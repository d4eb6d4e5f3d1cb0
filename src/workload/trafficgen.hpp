// Traffic generation. Flow popularity is Zipfian (the paper's premise for
// why caching works): a fixed pool of concrete flows is drawn from the
// policy's rules, and arrivals sample the pool by Zipf rank with Poisson
// timing and heavy-tailed flow lengths.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "flowspace/rule_table.hpp"
#include "util/rng.hpp"

namespace difane {

struct FlowSpec {
  std::uint64_t id = 0;
  BitVec header;            // all packets of a flow share the header
  double start = 0.0;       // arrival time of the first packet
  std::size_t packets = 1;
  double packet_gap = 1e-3; // spacing between packets within the flow
  std::uint32_t ingress_index = 0;  // index into the scenario's ingress list

  bool operator==(const FlowSpec&) const = default;
};

// Arrival-schedule families. All modes sample the same header pool and are
// fully deterministic in (seed, params): identical construction replays a
// byte-identical flow list.
//
//  * kPoissonZipf — the legacy schedule: Poisson arrivals, Zipf popularity.
//  * kFlashCrowd  — inside [flash_at, flash_at + flash_duration) arrivals
//    accelerate by flash_rate_mult and concentrate on the hottest
//    flash_targets pool ranks with probability flash_target_prob (a news
//    event: everyone fetches the same few things at once).
//  * kMiceStorm   — the kPoissonZipf schedule plus an overlay of
//    single-packet flows at storm_rate in [storm_at, storm_at +
//    storm_duration), headers uniform over the whole header space — the
//    port-scan / SYN-flood shape: near-zero reuse, pure TCAM churn.
//  * kDiurnal     — sinusoidal rate modulation (period diurnal_period,
//    relative amplitude diurnal_amplitude) via Lewis-Shedler thinning, with
//    the popular set rotating by diurnal_rotate pool ranks each period
//    (day/night shift of who is hot).
enum class TrafficMode : std::uint8_t {
  kPoissonZipf = 0,
  kFlashCrowd,
  kMiceStorm,
  kDiurnal,
};

const char* traffic_mode_name(TrafficMode mode);

struct TrafficParams {
  std::uint64_t seed = 1;
  std::size_t flow_pool = 10000;     // distinct flows (headers) in the pool
  double zipf_s = 1.0;               // popularity skew across pool entries
  double arrival_rate = 1000.0;      // flows per second (Poisson)
  double duration = 10.0;            // seconds of arrivals
  // Flow length: a Pareto(1, max_packets) draw with tail index
  // kParetoAlpha (trafficgen.cpp), scaled toward this mean.
  double mean_packets = 10.0;
  double max_packets = 1000.0;
  double packet_gap = 1e-3;
  std::uint32_t ingress_count = 1;   // spread flows over this many ingresses

  // Pool construction: with probability `p_rule_directed` a pool header is
  // sampled inside a policy rule chosen by rule weight (so popular rules see
  // traffic); otherwise uniformly at random.
  double p_rule_directed = 0.9;

  TrafficMode mode = TrafficMode::kPoissonZipf;

  // kFlashCrowd knobs.
  double flash_at = 0.0;
  double flash_duration = 0.0;
  double flash_rate_mult = 10.0;     // arrival-rate multiplier in the window
  std::size_t flash_targets = 8;     // hottest pool ranks the crowd piles on
  double flash_target_prob = 0.9;    // P(crowd arrival hits a target rank)

  // kMiceStorm knobs.
  double storm_at = 0.0;
  double storm_duration = 0.0;
  double storm_rate = 0.0;           // scan flows per second in the window

  // kDiurnal knobs.
  double diurnal_period = 1.0;
  double diurnal_amplitude = 0.8;    // relative, in [0, 1)
  std::size_t diurnal_rotate = 0;    // popular-set shift per period (ranks)
};

// Exact per-header volume of an arrival schedule: every packet of every
// flow, merged by header (pool headers are shared across FlowSpecs) in
// first-appearance order — the same key and order the telemetry
// FlowCollector reports, so bench_e12 can compare estimates positionally.
struct FlowTruth {
  BitVec header;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

std::vector<FlowTruth> flow_ground_truth(const std::vector<FlowSpec>& flows,
                                         std::uint64_t bytes_per_packet = 100);

// Where each pool entry's draws start in the seed's engine stream: which
// entries drew a rule index, and how many engine calls each such draw took.
// Built by the constructor's one walk over the pool; generate() and pool()
// read it to skip straight to the entries they build.
struct PoolMap;

class TrafficGenerator {
 public:
  // The engine state left after the pool's draws (2.5 KB) and the pool's map
  // (flow_pool / 8 bytes, none for an empty policy) are memoized process-wide
  // by (policy, seed, pool parameters). Sweeps alternate at most a couple of
  // distinct pools per process, so only this many stay cached, the least
  // recently used evicted; a generator keeps its own reference to the map,
  // so it outlives its slot.
  static constexpr std::size_t kPoolCacheSlots = 2;

  // Walks the pool's draws once (skipped on a cache hit), evaluating each
  // entry's directed coin but building no header: generate() draws the pool
  // headers its schedule samples from `policy`, which must outlive the
  // generator and stay unchanged until the last generate() returns.
  TrafficGenerator(const RuleTable& policy, TrafficParams params);

  // All flow arrivals in [0, duration), sorted by start time. Stores no
  // Zipf CDF: the schedule keeps each flow's uniform draw and resolves all
  // of them in one sorted sweep of the CDF. The sampled headers are then
  // built by one replay from the seed that skips, through the pool map, to
  // each sampled entry and draws only its rule index and noise words.
  std::vector<FlowSpec> generate();

  // The pool's headers by rank; only tests need them. Builds all flow_pool
  // headers on every call, with generate()'s replay.
  std::vector<BitVec> pool() const;

 private:
  void finish_flow(FlowSpec& flow);
  // Each schedule fills `flows` (no headers yet) and, per flow, either its
  // (uniform01() draw, flow index) for the Zipf resolve, or its (rank, flow
  // index) when it picks the rank directly.
  void schedule_poisson_zipf(std::vector<FlowSpec>& flows,
                             std::vector<std::pair<double, std::size_t>>& zipf_draws);
  void schedule_flash_crowd(std::vector<FlowSpec>& flows,
                            std::vector<std::pair<double, std::size_t>>& zipf_draws,
                            std::vector<std::pair<std::size_t, std::size_t>>& picked);
  void schedule_diurnal(std::vector<FlowSpec>& flows,
                        std::vector<std::pair<double, std::size_t>>& zipf_draws);
  void add_mice_storm(std::vector<FlowSpec>& flows);
  // Sets each flow's header from its (rank, flow index), ascending by rank.
  void draw_headers(std::vector<FlowSpec>& flows,
                    const std::vector<std::pair<std::size_t, std::size_t>>& by_rank) const;
  // Replays the pool's draws from the seed and calls emit(rank, header) for
  // each rank of `wanted` (ascending, distinct), in that order.
  template <typename Emit>
  void replay(const std::vector<std::size_t>& wanted, Emit&& emit) const;

  const RuleTable& policy_;
  TrafficParams params_;
  Rng rng_;  // after construction: the state right after the pool's draws
  std::shared_ptr<const PoolMap> map_;
};

}  // namespace difane
