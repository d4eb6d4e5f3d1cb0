// Property suite for the space-saving heavy-hitter sketch (src/obs/
// heavy_hitter.hpp). The sketch backs the elephant-aware install policy, so
// these properties are the safety net for the cache planner's promotion
// decisions: an estimate that drifted past its advertised error bound would
// silently promote mice into pinned TCAM entries.
//
// Streams are seeded and adversarial on purpose: pure Zipf popularity, a
// rotating all-distinct churn that forces an eviction per offer, and a
// "min attack" that alternates heavy keys with fresh singletons to keep the
// minimum slot contested. Every case replays from its printed seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "obs/heavy_hitter.hpp"
#include "proptest/property.hpp"
#include "util/rng.hpp"

namespace difane {
namespace {

using Sketch = obs::SpaceSaving<std::uint64_t>;

struct WeightedKey {
  std::uint64_t key;
  std::uint64_t weight;
};

// One seeded stream: a key sequence plus per-offer weights. `kind` picks the
// adversary; all of them are pure functions of the Rng.
std::vector<WeightedKey> gen_stream(Rng& rng) {
  const std::size_t length = rng.uniform(200, 3000);
  const std::size_t pool = rng.uniform(16, 4096);
  const int kind = static_cast<int>(rng.uniform(0, 3));
  const bool weighted = rng.bernoulli(0.3);
  ZipfDistribution zipf(pool, 0.8 + rng.uniform01() * 1.0);
  std::vector<WeightedKey> stream;
  stream.reserve(length);
  std::uint64_t fresh = 1u << 20;  // disjoint from the Zipf pool's ranks
  for (std::size_t i = 0; i < length; ++i) {
    std::uint64_t key = 0;
    switch (kind) {
      case 0:  // Zipf popularity: the intended workload.
        key = static_cast<std::uint64_t>(zipf.sample(rng));
        break;
      case 1:  // All-distinct churn: every offer evicts once the sketch fills.
        key = fresh++;
        break;
      case 2:  // Min attack: heavy head keys interleaved with singletons.
        key = rng.bernoulli(0.5) ? rng.uniform(0, 7) : fresh++;
        break;
      default:  // Mixed: Zipf with a singleton storm sprinkled in.
        key = rng.bernoulli(0.7)
                  ? static_cast<std::uint64_t>(zipf.sample(rng))
                  : fresh++;
        break;
    }
    stream.push_back({key, weighted ? rng.uniform(1, 4) : 1});
  }
  return stream;
}

void feed(Sketch& sketch, const std::vector<WeightedKey>& stream) {
  for (const auto& wk : stream) sketch.offer(wk.key, wk.weight);
}

std::unordered_map<std::uint64_t, std::uint64_t> exact_counts(
    const std::vector<WeightedKey>& stream) {
  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  for (const auto& wk : stream) truth[wk.key] += wk.weight;
  return truth;
}

bool same_entries(const std::vector<Sketch::Entry>& a,
                  const std::vector<Sketch::Entry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].count != b[i].count ||
        a[i].error != b[i].error) {
      return false;
    }
  }
  return true;
}

}  // namespace

// The headline guarantee, checked per tracked key over adversarial streams:
// overestimate only (true <= count), bounded error (count - true <= error),
// error never exceeding the sketch-wide N/k ceiling, and completeness (every
// key with true count > N/k is tracked). 120 cases > the 50-seed floor the
// experiment plan requires.
DIFANE_PROPERTY(HeavyHitterErrorBound, 120) {
  const std::size_t capacity = ctx.rng.uniform(4, 64);
  const auto stream = gen_stream(ctx.rng);
  Sketch sketch(capacity);
  feed(sketch, stream);
  const auto truth = exact_counts(stream);

  std::uint64_t n = 0;
  for (const auto& wk : stream) n += wk.weight;
  ASSERT_EQ(sketch.total(), n) << "seed 0x" << std::hex << ctx.case_seed;
  // ceil(N/k): the classic space-saving ceiling on min_count and error.
  const std::uint64_t ceiling = (n + capacity - 1) / capacity;
  ASSERT_LE(sketch.min_count(), ceiling)
      << "min_count exceeds N/k; seed 0x" << std::hex << ctx.case_seed;

  for (const auto& entry : sketch.entries()) {
    const auto it = truth.find(entry.key);
    ASSERT_NE(it, truth.end()) << "tracked key never offered; seed 0x"
                               << std::hex << ctx.case_seed;
    const std::uint64_t true_count = it->second;
    ASSERT_GE(entry.count, true_count)
        << "underestimate for key " << entry.key << "; seed 0x" << std::hex
        << ctx.case_seed;
    ASSERT_LE(entry.count - true_count, entry.error)
        << "error bound violated for key " << entry.key << ": count "
        << entry.count << " true " << true_count << " error " << entry.error
        << "; seed 0x" << std::hex << ctx.case_seed;
    ASSERT_LE(entry.error, ceiling)
        << "inherited error above N/k for key " << entry.key << "; seed 0x"
        << std::hex << ctx.case_seed;
    // guaranteed() is exactly the certain lower bound the install policy uses.
    ASSERT_EQ(sketch.guaranteed(entry.key), entry.count - entry.error)
        << "seed 0x" << std::hex << ctx.case_seed;
    ASSERT_LE(sketch.guaranteed(entry.key), true_count)
        << "guaranteed() overshoots the truth for key " << entry.key
        << "; seed 0x" << std::hex << ctx.case_seed;
  }

  // Completeness: a key heavier than N/k cannot have been evicted for good.
  for (const auto& [key, true_count] : truth) {
    if (true_count > ceiling) {
      ASSERT_TRUE(sketch.find(key).has_value())
          << "heavy key " << key << " (true " << true_count << " > N/k "
          << ceiling << ") untracked; seed 0x" << std::hex << ctx.case_seed;
    }
  }
}

// Determinism: the same seed yields the same stream, and the same stream
// yields a byte-identical summary — entries() order included. This is what
// makes scenario replay (and the chaos suite's byte-identical gate) possible
// with a sketch in the control path.
DIFANE_PROPERTY(HeavyHitterSeedStableReplay, 60) {
  const std::size_t capacity = ctx.rng.uniform(4, 64);
  Rng rng_a(ctx.case_seed);
  Rng rng_b(ctx.case_seed);
  const auto stream_a = gen_stream(rng_a);
  const auto stream_b = gen_stream(rng_b);
  ASSERT_EQ(stream_a.size(), stream_b.size());
  Sketch a(capacity);
  Sketch b(capacity);
  feed(a, stream_a);
  feed(b, stream_b);
  ASSERT_EQ(a.total(), b.total()) << "seed 0x" << std::hex << ctx.case_seed;
  ASSERT_TRUE(same_entries(a.entries(), b.entries()))
      << "replayed stream produced a different summary; seed 0x" << std::hex
      << ctx.case_seed;
}

// reset() restores the pristine state exactly: a reset-then-refed sketch is
// indistinguishable from a fresh one — same entries, same total, same
// min_count. (The authority trackers rely on this across crash/restart.)
DIFANE_PROPERTY(HeavyHitterResetEquivalence, 60) {
  const std::size_t capacity = ctx.rng.uniform(4, 64);
  const auto warmup = gen_stream(ctx.rng);
  const auto stream = gen_stream(ctx.rng);
  Sketch recycled(capacity);
  feed(recycled, warmup);
  recycled.reset();
  ASSERT_EQ(recycled.size(), 0u);
  ASSERT_EQ(recycled.total(), 0u);
  ASSERT_EQ(recycled.min_count(), 0u);
  feed(recycled, stream);
  Sketch fresh(capacity);
  feed(fresh, stream);
  ASSERT_EQ(recycled.total(), fresh.total())
      << "seed 0x" << std::hex << ctx.case_seed;
  ASSERT_TRUE(same_entries(recycled.entries(), fresh.entries()))
      << "reset left residue that changed the summary; seed 0x" << std::hex
      << ctx.case_seed;
}

}  // namespace difane
