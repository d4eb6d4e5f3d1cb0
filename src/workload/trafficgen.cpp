#include "workload/trafficgen.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <unordered_map>

#include "util/contract.hpp"

namespace difane {

const char* traffic_mode_name(TrafficMode mode) {
  switch (mode) {
    case TrafficMode::kPoissonZipf: return "poisson-zipf";
    case TrafficMode::kFlashCrowd: return "flash-crowd";
    case TrafficMode::kMiceStorm: return "mice-storm";
    case TrafficMode::kDiurnal: return "diurnal";
  }
  return "?";
}

namespace {

// Pool memoization. Experiment sweeps (E1/E2/E9 and friends) construct a
// TrafficGenerator per sweep point with the same policy, seed, and pool
// parameters — only the arrival schedule differs. The pool draw sequence
// depends solely on (seed, flow_pool, p_rule_directed, policy matches), so
// the pool and the RNG state left behind by build_pool() are bit-identical
// across those constructions. Rebuilding the pool dominates sweep wall time
// (millions of Mersenne draws per point), so we cache the last few pools and
// the post-build RNG state; replaying from the cache is observationally
// identical to rebuilding, including every subsequent generate() draw.
struct PoolKey {
  std::uint64_t seed = 0;
  std::size_t flow_pool = 0;
  double p_rule_directed = 0.0;
  std::uint64_t policy_digest = 0;
  std::size_t policy_size = 0;

  bool operator==(const PoolKey& o) const {
    return seed == o.seed && flow_pool == o.flow_pool &&
           p_rule_directed == o.p_rule_directed &&
           policy_digest == o.policy_digest && policy_size == o.policy_size;
  }
};

// Digest over the fields of the policy that build_pool() can observe through
// its draws: the rule count and each rule's ternary match.
std::uint64_t policy_pool_digest(const RuleTable& policy) {
  std::uint64_t h = 0x5851f42d4c957f2dULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h = splitmix64(h);
  };
  mix(policy.size());
  for (const auto& rule : policy.rules()) {
    for (auto word : rule.match.value().w) mix(word);
    for (auto word : rule.match.care().w) mix(word);
  }
  return h;
}

struct PoolCacheEntry {
  PoolKey key;
  std::shared_ptr<const std::vector<BitVec>> pool;
  std::mt19937_64 rng_after;  // engine state right after build_pool()
  std::uint64_t last_used = 0;
};

// A pool can be tens of MB (E1 uses 2^21 headers), so keep the cache tiny:
// sweeps alternate at most a couple of distinct pools per process.
constexpr std::size_t kPoolCacheSlots = 2;

std::mutex g_pool_cache_mu;
std::vector<PoolCacheEntry> g_pool_cache;
std::uint64_t g_pool_cache_clock = 0;

const PoolCacheEntry* pool_cache_find(const PoolKey& key) {
  for (auto& entry : g_pool_cache) {
    if (entry.key == key) {
      entry.last_used = ++g_pool_cache_clock;
      return &entry;
    }
  }
  return nullptr;
}

void pool_cache_insert(PoolCacheEntry entry) {
  entry.last_used = ++g_pool_cache_clock;
  if (g_pool_cache.size() < kPoolCacheSlots) {
    g_pool_cache.push_back(std::move(entry));
    return;
  }
  auto victim = std::min_element(
      g_pool_cache.begin(), g_pool_cache.end(),
      [](const auto& a, const auto& b) { return a.last_used < b.last_used; });
  *victim = std::move(entry);
}

}  // namespace

TrafficGenerator::TrafficGenerator(const RuleTable& policy, TrafficParams params)
    : policy_(policy), params_(params), rng_(params.seed) {
  expects(params_.flow_pool >= 1, "TrafficGenerator: empty flow pool");
  expects(params_.arrival_rate > 0.0 && params_.duration > 0.0,
          "TrafficGenerator: bad rate/duration");
  switch (params_.mode) {
    case TrafficMode::kPoissonZipf:
      break;
    case TrafficMode::kFlashCrowd:
      expects(params_.flash_duration >= 0.0 && params_.flash_at >= 0.0,
              "TrafficGenerator: flash window must be non-negative");
      expects(params_.flash_rate_mult >= 1.0,
              "TrafficGenerator: flash_rate_mult must be >= 1");
      expects(params_.flash_targets >= 1,
              "TrafficGenerator: flash crowd needs a target set");
      expects(params_.flash_target_prob >= 0.0 && params_.flash_target_prob <= 1.0,
              "TrafficGenerator: flash_target_prob must be a probability");
      break;
    case TrafficMode::kMiceStorm:
      expects(params_.storm_duration <= 0.0 || params_.storm_rate > 0.0,
              "TrafficGenerator: a mice storm window needs storm_rate > 0");
      break;
    case TrafficMode::kDiurnal:
      expects(params_.diurnal_period > 0.0,
              "TrafficGenerator: diurnal_period must be > 0");
      expects(params_.diurnal_amplitude >= 0.0 && params_.diurnal_amplitude < 1.0,
              "TrafficGenerator: diurnal_amplitude must be in [0, 1)");
      break;
  }
  const PoolKey key{params_.seed, params_.flow_pool, params_.p_rule_directed,
                    policy_pool_digest(policy_), policy_.size()};
  std::lock_guard<std::mutex> lock(g_pool_cache_mu);
  if (const PoolCacheEntry* hit = pool_cache_find(key)) {
    pool_ = hit->pool;
    rng_.engine() = hit->rng_after;
    return;
  }
  build_pool();
  pool_cache_insert(PoolCacheEntry{key, pool_, rng_.engine(), 0});
}

void TrafficGenerator::build_pool() {
  std::vector<BitVec> pool;
  pool.reserve(params_.flow_pool);
  for (std::size_t i = 0; i < params_.flow_pool; ++i) {
    if (!policy_.empty() && rng_.bernoulli(params_.p_rule_directed)) {
      // Uniform over rules, not over rule weights: flow-space-proportional
      // weights would concentrate nearly all picks on the default rule and
      // leave specific rules unexercised. Popularity skew across the pool is
      // applied separately (Zipf over pool ranks).
      const auto idx = rng_.uniform(0, policy_.size() - 1);
      pool.push_back(policy_.at(idx).match.sample_point(rng_));
    } else {
      pool.push_back(Ternary::wildcard().sample_point(rng_));
    }
  }
  pool_ = std::make_shared<const std::vector<BitVec>>(std::move(pool));
}

std::vector<FlowSpec> TrafficGenerator::generate() {
  switch (params_.mode) {
    case TrafficMode::kPoissonZipf: return generate_poisson_zipf();
    case TrafficMode::kFlashCrowd: return generate_flash_crowd();
    case TrafficMode::kMiceStorm: return generate_mice_storm();
    case TrafficMode::kDiurnal: return generate_diurnal();
  }
  return {};
}

// Flow length and ingress draws shared by every mode, in the legacy draw
// order (length, then ingress) — kPoissonZipf must stay draw-for-draw
// identical to previous releases (committed baselines pin its output).
void TrafficGenerator::finish_flow(FlowSpec& flow) {
  if (params_.max_packets <= 1.0) {
    flow.packets = 1;  // degenerate case: pure flow-setup workloads
  } else {
    const double len = rng_.pareto(1.0, params_.max_packets, params_.pareto_alpha);
    // Scale bounded-Pareto output toward the requested mean.
    const double scale = params_.mean_packets / 3.0;  // rough E[pareto(1,..,1.5)]
    flow.packets = static_cast<std::size_t>(std::max(1.0, len * scale));
  }
  flow.packet_gap = params_.packet_gap;
  flow.ingress_index = static_cast<std::uint32_t>(
      rng_.uniform(0, params_.ingress_count == 0 ? 0 : params_.ingress_count - 1));
}

std::vector<FlowSpec> TrafficGenerator::generate_poisson_zipf() {
  std::vector<FlowSpec> flows;
  const std::vector<BitVec>& pool = *pool_;
  ZipfDistribution zipf(pool.size(), params_.zipf_s);
  double t = 0.0;
  std::uint64_t id = 0;
  while (true) {
    t += rng_.exponential(params_.arrival_rate);
    if (t >= params_.duration) break;
    FlowSpec flow;
    flow.id = id++;
    flow.header = pool[zipf.sample(rng_)];
    flow.start = t;
    finish_flow(flow);
    flows.push_back(std::move(flow));
  }
  return flows;
}

std::vector<FlowSpec> TrafficGenerator::generate_flash_crowd() {
  std::vector<FlowSpec> flows;
  const std::vector<BitVec>& pool = *pool_;
  ZipfDistribution zipf(pool.size(), params_.zipf_s);
  const double flash_end = params_.flash_at + params_.flash_duration;
  const std::size_t targets = std::min(params_.flash_targets, pool.size());
  double t = 0.0;
  std::uint64_t id = 0;
  while (true) {
    // The inter-arrival draw uses the rate at the previous arrival, so the
    // speed-up engages one arrival after the window opens — a deterministic
    // simplification that dodges inverting a piecewise-constant rate.
    const bool accelerated = t >= params_.flash_at && t < flash_end;
    t += rng_.exponential(params_.arrival_rate *
                          (accelerated ? params_.flash_rate_mult : 1.0));
    if (t >= params_.duration) break;
    FlowSpec flow;
    flow.id = id++;
    const bool in_flash = t >= params_.flash_at && t < flash_end;
    if (in_flash && rng_.bernoulli(params_.flash_target_prob)) {
      flow.header = pool[targets <= 1 ? 0 : rng_.uniform(0, targets - 1)];
    } else {
      flow.header = pool[zipf.sample(rng_)];
    }
    flow.start = t;
    finish_flow(flow);
    flows.push_back(std::move(flow));
  }
  return flows;
}

std::vector<FlowSpec> TrafficGenerator::generate_mice_storm() {
  // Base traffic first (its draws must match a standalone kPoissonZipf run of
  // the same seed), then the scan overlay, then a stable merge by start time.
  std::vector<FlowSpec> flows = generate_poisson_zipf();
  const std::size_t base_count = flows.size();
  const double storm_end =
      std::min(params_.storm_at + params_.storm_duration, params_.duration);
  double t = params_.storm_at;
  while (params_.storm_rate > 0.0) {
    t += rng_.exponential(params_.storm_rate);
    if (t >= storm_end) break;
    FlowSpec flow;
    // Uniform over the whole header space: a scanner does not respect the
    // policy's popular rules, and (near-)distinct headers defeat any cache.
    flow.header = Ternary::wildcard().sample_point(rng_);
    flow.start = t;
    flow.packets = 1;
    flow.packet_gap = params_.packet_gap;
    flow.ingress_index = static_cast<std::uint32_t>(rng_.uniform(
        0, params_.ingress_count == 0 ? 0 : params_.ingress_count - 1));
    flows.push_back(std::move(flow));
  }
  // Both halves are sorted; merge keeps base flows ahead of coincident scan
  // flows, then ids are reassigned in arrival order.
  std::inplace_merge(
      flows.begin(), flows.begin() + static_cast<std::ptrdiff_t>(base_count),
      flows.end(),
      [](const FlowSpec& a, const FlowSpec& b) { return a.start < b.start; });
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].id = static_cast<std::uint64_t>(i);
  }
  return flows;
}

std::vector<FlowSpec> TrafficGenerator::generate_diurnal() {
  std::vector<FlowSpec> flows;
  const std::vector<BitVec>& pool = *pool_;
  ZipfDistribution zipf(pool.size(), params_.zipf_s);
  constexpr double kTwoPi = 6.283185307179586476925287;
  // Lewis-Shedler thinning: draw at the peak rate, keep each arrival with
  // probability rate(t)/peak. Exact for any bounded rate function and keeps
  // the draw sequence deterministic.
  const double peak = params_.arrival_rate * (1.0 + params_.diurnal_amplitude);
  double t = 0.0;
  std::uint64_t id = 0;
  while (true) {
    t += rng_.exponential(peak);
    if (t >= params_.duration) break;
    const double rate_now =
        params_.arrival_rate *
        (1.0 + params_.diurnal_amplitude *
                   std::sin(kTwoPi * t / params_.diurnal_period));
    if (!rng_.bernoulli(rate_now / peak)) continue;
    FlowSpec flow;
    flow.id = id++;
    // Rotate who is popular each period: rank r today is rank r+rotate
    // tomorrow, so long-lived cache entries go cold on the period boundary.
    const auto epoch = static_cast<std::size_t>(t / params_.diurnal_period);
    const std::size_t rank = zipf.sample(rng_);
    flow.header = pool[(rank + epoch * params_.diurnal_rotate) % pool.size()];
    flow.start = t;
    finish_flow(flow);
    flows.push_back(std::move(flow));
  }
  return flows;
}

std::vector<FlowTruth> flow_ground_truth(const std::vector<FlowSpec>& flows,
                                         std::uint64_t bytes_per_packet) {
  std::vector<FlowTruth> truth;
  std::unordered_map<BitVec, std::size_t> index;
  for (const auto& flow : flows) {
    auto [it, fresh] = index.try_emplace(flow.header, truth.size());
    if (fresh) {
      FlowTruth t;
      t.header = flow.header;
      truth.push_back(std::move(t));
    }
    FlowTruth& t = truth[it->second];
    t.packets += flow.packets;
    t.bytes += static_cast<std::uint64_t>(flow.packets) * bytes_per_packet;
  }
  return truth;
}

}  // namespace difane
