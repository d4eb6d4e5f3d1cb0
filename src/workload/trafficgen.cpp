#include "workload/trafficgen.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
#include <numeric>
#include <optional>
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

// Tail index of the flow-length Pareto draw. Unbounded, Pareto(1, alpha) has
// mean alpha / (alpha - 1) = 3, which finish_flow scales by.
constexpr double kParetoAlpha = 1.5;
constexpr double kParetoMean = kParetoAlpha / (kParetoAlpha - 1.0);

// The pool's draw sequence. Pool entry i takes, in order: the directed coin
// (a bernoulli(p_rule_directed) draw, only when the policy has rules), the
// rule index of a directed entry (uniform over rules, not over rule weights:
// flow-space-proportional weights would concentrate nearly all picks on the
// default rule and leave specific rules unexercised; popularity skew across
// the pool is applied separately, by Zipf over pool ranks), then
// sample_point's noise words, one per header word. Only the entries a
// schedule samples need headers, so the constructor's walk skips every
// entry's noise words and the replay skips every other entry.
constexpr std::uint64_t kNoiseWords = kHeaderWords;

// An engine that returns one fixed draw, to evaluate a distribution on it.
struct FixedDraw {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return Mt19937_64::min(); }
  static constexpr result_type max() { return Mt19937_64::max(); }
  result_type draw;
  result_type operator()() { return draw; }
};

// Forwards an engine's draws and counts them: a rule-index draw usually takes
// one, and more when uniform_int_distribution rejects one.
struct CountingEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return Mt19937_64::min(); }
  static constexpr result_type max() { return Mt19937_64::max(); }
  Mt19937_64& engine;
  std::uint64_t calls = 0;
  result_type operator()() {
    ++calls;
    return engine();
  }
};

// The least draw for which bernoulli_distribution(p) loses, or nullopt when
// every draw wins. With a 64-bit engine the distribution takes one draw x
// and wins iff generate_canonical<double>(x) < p; the canonical value is
// monotone in x, so the winning draws are exactly those below the result.
std::optional<std::uint64_t> first_losing_draw(double p) {
  const auto wins = [p](std::uint64_t x) {
    FixedDraw engine{x};
    return std::bernoulli_distribution(p)(engine);
  };
  if (wins(Mt19937_64::max())) return std::nullopt;
  std::uint64_t lo = 0, hi = Mt19937_64::max();  // hi loses
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (wins(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Memoization of the pool's walk. Experiment sweeps (E1/E2/E9 and friends)
// construct a TrafficGenerator per sweep point with the same policy, seed,
// and pool parameters — only the arrival schedule differs. The pool's draw
// sequence depends solely on (seed, flow_pool, p_rule_directed, policy
// matches), so the engine state and pool map it leaves behind are
// bit-identical across those constructions, and taking them from the cache
// is observationally identical to walking the pool again.
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

// Digest over the fields of the policy that the pool's draws can observe:
// the rule count and each rule's ternary match.
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
  Mt19937_64 after_pool;  // engine state right after the pool's draws
  std::shared_ptr<const PoolMap> map;
  std::uint64_t last_used = 0;
};

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
  if (g_pool_cache.size() < TrafficGenerator::kPoolCacheSlots) {
    g_pool_cache.push_back(std::move(entry));
    return;
  }
  auto victim = std::min_element(
      g_pool_cache.begin(), g_pool_cache.end(),
      [](const auto& a, const auto& b) { return a.last_used < b.last_used; });
  *victim = std::move(entry);
}

}  // namespace

struct PoolMap {
  // Bit i is set iff entry i drew a rule index; empty for an empty policy,
  // whose entries draw neither a coin nor a rule index.
  std::vector<std::uint64_t> drew_rule;
  // (entry, engine calls) of each rule-index draw that took more than one
  // call, ascending by entry. uniform_int_distribution rejects a draw with
  // probability below (policy size) / 2^64, so this is almost always empty.
  std::vector<std::pair<std::size_t, std::uint64_t>> long_draws;

  bool drew(std::size_t entry) const { return (drew_rule[entry / 64] >> (entry % 64)) & 1; }

  // Engine calls taken by the rule-index draws of entries [from, to).
  std::uint64_t rule_calls(std::size_t from, std::size_t to) const {
    if (drew_rule.empty() || from >= to) return 0;
    std::size_t word = from / 64;
    const std::size_t last = (to - 1) / 64;
    std::uint64_t bits = drew_rule[word] & (~std::uint64_t{0} << (from % 64));
    std::uint64_t calls = 0;
    while (word < last) {
      calls += static_cast<std::uint64_t>(std::popcount(bits));
      bits = drew_rule[++word];
    }
    calls += static_cast<std::uint64_t>(
        std::popcount(bits & (~std::uint64_t{0} >> (63 - (to - 1) % 64))));
    auto it = std::lower_bound(long_draws.begin(), long_draws.end(),
                               std::pair<std::size_t, std::uint64_t>{from, 0});
    for (; it != long_draws.end() && it->first < to; ++it) calls += it->second - 1;
    return calls;
  }
};

namespace {

// Walks the pool's draws on `rng`, leaving it right after them: evaluates
// every entry's directed coin and counts each rule-index draw's engine calls,
// but skips every noise word, so no header is built.
std::shared_ptr<const PoolMap> walk_pool(const RuleTable& policy,
                                         const TrafficParams& params, Rng& rng) {
  auto map = std::make_shared<PoolMap>();
  if (policy.empty()) {
    rng.discard(params.flow_pool * kNoiseWords);
    return map;
  }
  map->drew_rule.assign((params.flow_pool + 63) / 64, 0);
  // The directed coin as one compare: a draw x is directed iff x is below
  // the least losing draw, or always when no draw loses.
  const std::optional<std::uint64_t> losing = first_losing_draw(params.p_rule_directed);
  const std::uint64_t directed_below = losing.value_or(0);
  const bool directed_always = !losing;
  for (std::size_t i = 0; i < params.flow_pool; ++i) {
    if (rng.next_u64() < directed_below || directed_always) {
      CountingEngine counted{rng.engine()};
      std::uniform_int_distribution<std::uint64_t>(0, policy.size() - 1)(counted);
      map->drew_rule[i / 64] |= std::uint64_t{1} << (i % 64);
      if (counted.calls != 1) map->long_draws.emplace_back(i, counted.calls);
    }
    rng.discard(kNoiseWords);
  }
  return map;
}

}  // namespace

TrafficGenerator::TrafficGenerator(const RuleTable& policy, TrafficParams params)
    : policy_(policy), params_(params), rng_(params.seed) {
  expects(params_.flow_pool >= 1, "TrafficGenerator: empty flow pool");
  expects(params_.arrival_rate > 0.0 && params_.duration > 0.0,
          "TrafficGenerator: bad rate/duration");
  expects(std::isfinite(params_.zipf_s), "TrafficGenerator: zipf_s must be finite");
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
    rng_.engine() = hit->after_pool;
    map_ = hit->map;
    return;
  }
  map_ = walk_pool(policy_, params_, rng_);
  pool_cache_insert(PoolCacheEntry{key, rng_.engine(), map_, 0});
}

// Entry r's draws start (r - e) * (coin + noise words) plus the rule-index
// calls of entries [e, r) after entry e's, so the replay discards straight
// from one wanted entry to the next, past its coin, and draws only its rule
// index and noise words. discard() twists the skipped words but never
// tempers them.
template <typename Emit>
void TrafficGenerator::replay(const std::vector<std::size_t>& wanted, Emit&& emit) const {
  Rng rng(params_.seed);
  const std::uint64_t coin_words = policy_.empty() ? 0 : 1;
  const Ternary wildcard;
  std::size_t entry = 0;  // the engine stands at this entry's first draw
  for (const std::size_t rank : wanted) {
    rng.discard((rank - entry) * (coin_words + kNoiseWords) +
                map_->rule_calls(entry, rank) + coin_words);
    const Ternary* pattern = &wildcard;
    if (coin_words != 0 && map_->drew(rank)) {
      pattern = &policy_.at(rng.uniform(0, policy_.size() - 1)).match;
    }
    emit(rank, pattern->sample_point(rng));
    entry = rank + 1;
  }
}

std::vector<BitVec> TrafficGenerator::pool() const {
  std::vector<std::size_t> all(params_.flow_pool);
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<BitVec> headers;
  headers.reserve(all.size());
  replay(all, [&headers](std::size_t, const BitVec& header) { headers.push_back(header); });
  return headers;
}

std::vector<FlowSpec> TrafficGenerator::generate() {
  std::vector<FlowSpec> flows;
  // (uniform01() draw, flow) for each flow ranked by Zipf, and (rank, flow)
  // for each flow the schedule ranked directly.
  std::vector<std::pair<double, std::size_t>> zipf_draws;
  std::vector<std::pair<std::size_t, std::size_t>> picked;
  switch (params_.mode) {
    case TrafficMode::kPoissonZipf:
    case TrafficMode::kMiceStorm: schedule_poisson_zipf(flows, zipf_draws); break;
    case TrafficMode::kFlashCrowd: schedule_flash_crowd(flows, zipf_draws, picked); break;
    case TrafficMode::kDiurnal: schedule_diurnal(flows, zipf_draws); break;
  }
  // (rank, flow), ascending by rank until a rotation or a direct pick
  // reorders it.
  std::vector<std::pair<std::size_t, std::size_t>> by_rank =
      zipf_ranks(params_.flow_pool, params_.zipf_s, std::move(zipf_draws));
  if (params_.mode == TrafficMode::kDiurnal) {
    for (auto& [rank, flow] : by_rank) {
      // Rotate who is popular each period: rank r today is rank r+rotate
      // tomorrow, so long-lived cache entries go cold on the period boundary.
      const auto epoch = static_cast<std::size_t>(flows[flow].start / params_.diurnal_period);
      rank = (rank + epoch * params_.diurnal_rotate) % params_.flow_pool;
    }
  }
  by_rank.insert(by_rank.end(), picked.begin(), picked.end());
  const auto rank_less = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (!std::is_sorted(by_rank.begin(), by_rank.end(), rank_less)) {
    std::sort(by_rank.begin(), by_rank.end(), rank_less);
  }
  draw_headers(flows, by_rank);
  if (params_.mode == TrafficMode::kMiceStorm) add_mice_storm(flows);
  return flows;
}

// Builds the sampled ranks' headers with one replay of the pool's draws from
// the seed; the schedule's own engine is untouched. The flows of one rank
// share the header built once.
void TrafficGenerator::draw_headers(
    std::vector<FlowSpec>& flows,
    const std::vector<std::pair<std::size_t, std::size_t>>& by_rank) const {
  std::vector<std::size_t> wanted;
  for (const auto& [rank, flow] : by_rank) {
    if (wanted.empty() || wanted.back() != rank) wanted.push_back(rank);
  }
  auto next = by_rank.begin();
  replay(wanted, [&](std::size_t rank, const BitVec& header) {
    for (; next != by_rank.end() && next->first == rank; ++next) {
      flows[next->second].header = header;
    }
  });
}

// Flow length and ingress draws shared by every mode, in the legacy draw
// order (length, then ingress) — kPoissonZipf must stay draw-for-draw
// identical to previous releases (committed baselines pin its output).
void TrafficGenerator::finish_flow(FlowSpec& flow) {
  if (params_.max_packets <= 1.0) {
    flow.packets = 1;  // degenerate case: pure flow-setup workloads
  } else {
    const double len = rng_.pareto(1.0, params_.max_packets, kParetoAlpha);
    // Scale bounded-Pareto output toward the requested mean.
    const double scale = params_.mean_packets / kParetoMean;
    flow.packets = static_cast<std::size_t>(std::max(1.0, len * scale));
  }
  flow.packet_gap = params_.packet_gap;
  flow.ingress_index = static_cast<std::uint32_t>(
      rng_.uniform(0, params_.ingress_count == 0 ? 0 : params_.ingress_count - 1));
}

void TrafficGenerator::schedule_poisson_zipf(
    std::vector<FlowSpec>& flows, std::vector<std::pair<double, std::size_t>>& zipf_draws) {
  double t = 0.0;
  std::uint64_t id = 0;
  while (true) {
    t += rng_.exponential(params_.arrival_rate);
    if (t >= params_.duration) break;
    FlowSpec flow;
    flow.id = id++;
    zipf_draws.emplace_back(rng_.uniform01(), flows.size());
    flow.start = t;
    finish_flow(flow);
    flows.push_back(std::move(flow));
  }
}

void TrafficGenerator::schedule_flash_crowd(
    std::vector<FlowSpec>& flows, std::vector<std::pair<double, std::size_t>>& zipf_draws,
    std::vector<std::pair<std::size_t, std::size_t>>& picked) {
  const double flash_end = params_.flash_at + params_.flash_duration;
  const std::size_t targets = std::min(params_.flash_targets, params_.flow_pool);
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
      picked.emplace_back(targets <= 1 ? 0 : rng_.uniform(0, targets - 1), flows.size());
    } else {
      zipf_draws.emplace_back(rng_.uniform01(), flows.size());
    }
    flow.start = t;
    finish_flow(flow);
    flows.push_back(std::move(flow));
  }
}

// The scan overlay goes after the kPoissonZipf base traffic, whose draws
// must match a standalone kPoissonZipf run of the same seed, then a stable
// merge by start time.
void TrafficGenerator::add_mice_storm(std::vector<FlowSpec>& flows) {
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
}

void TrafficGenerator::schedule_diurnal(
    std::vector<FlowSpec>& flows, std::vector<std::pair<double, std::size_t>>& zipf_draws) {
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
    zipf_draws.emplace_back(rng_.uniform01(), flows.size());  // rotated once resolved
    flow.start = t;
    finish_flow(flow);
    flows.push_back(std::move(flow));
  }
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
