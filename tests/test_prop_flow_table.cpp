// Property: the indexed, lazily-expiring FlowTable is observationally
// byte-identical to the eager reference implementation it replaced — same
// winners, same band contents in the same order, same counters/stats/retired
// accounting — under randomized op sequences mixing installs (with idle/hard
// timeouts and guard lists, including phantom guard ids), lookups, peeks,
// removals, sweeps, and band clears. Microflows take both
// the 253-bit exact_pattern shape the simulator installs and a 256-bit shape
// that also pins the spare bits, at priorities above and below the policy
// rules', and lookups revisit them with fresh spare-bit noise, so the exact
// hash competes with wildcard entries on band order. Runs of ops share one
// instant (ties at the LRU head), and one mix steps the clock back.
// Three mixes shape the sequences toward the three overhauled mechanisms:
// general traffic, timeout streaming (lazy-expiry watermark), and
// LRU/cascade churn at tiny capacity. Two more repeat a few exact headers
// over the general and the churn mix, so lookups run through the header
// memo; each sweep must see the memo answer some of them.
//
// The reference below is the pre-overhaul implementation kept verbatim
// (vector bands, full sweep per lookup, linear id scans, O(cache x guards)
// guard refresh); only the class name changed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "flowspace/header.hpp"
#include "proptest/gen.hpp"
#include "proptest/property.hpp"
#include "switchsim/flow_table.hpp"

namespace difane {
namespace {

class ReferenceFlowTable {
 public:
  explicit ReferenceFlowTable(std::size_t cache_capacity = 1000)
      : cache_capacity_(cache_capacity) {}

  bool install(const Rule& rule, Band band, double now, double idle_timeout = 0.0,
               double hard_timeout = 0.0, std::vector<RuleId> guards = {}) {
    auto& entries = bands_[index(band)];
    // Group safety (the spec the real table implements): a dependent's idle
    // budget is capped at the tightest guard's remaining lifetime, and a
    // refresh never shortens an entry that other live entries depend on —
    // either way a dependent could otherwise outlive its protector. 0 means
    // "never idles out" throughout.
    if (band == Band::kCache && !guards.empty() && idle_timeout != 0.0) {
      for (const RuleId g : guards) {
        const auto git =
            std::find_if(entries.begin(), entries.end(),
                         [g](const FlowEntry& e) { return e.rule.id == g; });
        if (git == entries.end() || git->idle_timeout <= 0.0) continue;
        const double remaining = git->last_hit + git->idle_timeout - now;
        if (remaining < idle_timeout) idle_timeout = std::max(remaining, 1e-9);
      }
    }
    const auto existing =
        std::find_if(entries.begin(), entries.end(),
                     [&](const FlowEntry& e) { return e.rule.id == rule.id; });
    if (existing != entries.end()) {
      if (band == Band::kCache && existing->idle_timeout != idle_timeout) {
        const bool has_dependents = std::any_of(
            entries.begin(), entries.end(), [&](const FlowEntry& e) {
              // A (generator-made) self-guard does not make an entry its own
              // dependent: the refresh relinks it after the timeout decision.
              return e.rule.id != rule.id &&
                     std::find(e.guards.begin(), e.guards.end(), rule.id) !=
                         e.guards.end();
            });
        if (has_dependents) {
          idle_timeout = (existing->idle_timeout <= 0.0 || idle_timeout <= 0.0)
                             ? 0.0
                             : std::max(existing->idle_timeout, idle_timeout);
        }
      }
      existing->rule = rule;
      existing->install_time = now;
      existing->idle_timeout = idle_timeout;
      existing->hard_timeout = hard_timeout;
      existing->last_hit = now;
      existing->guards = std::move(guards);
      ++stats_.installs;
      return true;
    }
    if (band == Band::kCache) {
      if (cache_capacity_ == 0) {
        ++stats_.install_rejected;
        return false;
      }
      while (entries.size() >= cache_capacity_) evict_lru_cache(now);
    }
    FlowEntry entry;
    entry.rule = rule;
    entry.band = band;
    entry.install_time = now;
    entry.idle_timeout = idle_timeout;
    entry.hard_timeout = hard_timeout;
    entry.last_hit = now;
    entry.guards = std::move(guards);
    const auto pos = std::lower_bound(entries.begin(), entries.end(), entry,
                                      [](const FlowEntry& a, const FlowEntry& b) {
                                        return rule_before(a.rule, b.rule);
                                      });
    entries.insert(pos, std::move(entry));
    ++stats_.installs;
    return true;
  }

  bool remove(RuleId id, Band band) {
    auto& entries = bands_[index(band)];
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [id](const FlowEntry& e) { return e.rule.id == id; });
    if (it == entries.end()) return false;
    retire(*it);
    const RuleId gone = it->rule.id;
    entries.erase(it);
    if (band == Band::kCache) cascade_remove_dependents({gone});
    return true;
  }

  void clear_band(Band band) {
    for (const auto& entry : bands_[index(band)]) retire(entry);
    bands_[index(band)].clear();
  }

  std::size_t expire(double now) {
    std::size_t total = 0;
    std::vector<RuleId> expired_cache;
    for (auto& entries : bands_) {
      const bool is_cache = &entries == &bands_[index(Band::kCache)];
      const auto before = entries.size();
      entries.erase(std::remove_if(entries.begin(), entries.end(),
                                   [&](const FlowEntry& e) {
                                     if (e.expired(now)) {
                                       retire(e);
                                       if (is_cache) expired_cache.push_back(e.rule.id);
                                       return true;
                                     }
                                     return false;
                                   }),
                    entries.end());
      total += before - entries.size();
    }
    stats_.expirations += total;
    if (!expired_cache.empty()) cascade_remove_dependents(std::move(expired_cache));
    return total;
  }

  const FlowEntry* lookup(const BitVec& packet, double now, std::uint64_t bytes = 1) {
    expire(now);
    for (auto& entries : bands_) {
      for (auto& entry : entries) {
        if (entry.rule.match.matches(packet)) {
          entry.last_hit = now;
          ++entry.packets;
          entry.bytes += bytes;
          ++stats_.hits_per_band[index(entry.band)];
          if (entry.band == Band::kCache && !entry.guards.empty()) {
            auto& cache = bands_[index(Band::kCache)];
            for (auto& other : cache) {
              if (std::find(entry.guards.begin(), entry.guards.end(),
                            other.rule.id) != entry.guards.end()) {
                other.last_hit = now;
              }
            }
          }
          return &entry;
        }
      }
    }
    ++stats_.misses;
    return nullptr;
  }

  const FlowEntry* peek(const BitVec& packet, double now) const {
    for (const auto& entries : bands_) {
      for (const auto& entry : entries) {
        if (entry.expired(now)) continue;
        if (entry.rule.match.matches(packet)) return &entry;
      }
    }
    return nullptr;
  }

  const std::vector<FlowEntry>& entries(Band band) const { return bands_[index(band)]; }
  const FlowTableStats& stats() const { return stats_; }
  const std::unordered_map<RuleId, FlowTable::RetiredCounters>& retired() const {
    return retired_;
  }

 private:
  static std::size_t index(Band band) { return static_cast<std::size_t>(band); }

  void retire(const FlowEntry& entry) {
    if (entry.band == Band::kPartition) return;
    if (entry.rule.action.type == ActionType::kEncap) return;
    if (entry.packets == 0 && entry.bytes == 0) return;
    auto& row = retired_[entry.rule.origin_or_self()];
    row.packets += entry.packets;
    row.bytes += entry.bytes;
  }

  void cascade_remove_dependents(std::vector<RuleId> removed_ids) {
    auto& cache = bands_[index(Band::kCache)];
    while (!removed_ids.empty()) {
      const RuleId gone = removed_ids.back();
      removed_ids.pop_back();
      for (auto it = cache.begin(); it != cache.end();) {
        const bool guarded_by_gone =
            std::find(it->guards.begin(), it->guards.end(), gone) != it->guards.end();
        if (guarded_by_gone) {
          retire(*it);
          removed_ids.push_back(it->rule.id);
          it = cache.erase(it);
          ++stats_.cascade_evictions;
        } else {
          ++it;
        }
      }
    }
  }

  void evict_lru_cache(double now) {
    auto& cache = bands_[index(Band::kCache)];
    ASSERT_FALSE(cache.empty());
    (void)now;
    const auto victim = std::min_element(cache.begin(), cache.end(),
                                         [](const FlowEntry& a, const FlowEntry& b) {
                                           return a.last_hit < b.last_hit;
                                         });
    retire(*victim);
    const RuleId gone = victim->rule.id;
    cache.erase(victim);
    ++stats_.evictions;
    cascade_remove_dependents({gone});
  }

  std::size_t cache_capacity_;
  std::vector<FlowEntry> bands_[kNumBands];
  FlowTableStats stats_;
  std::unordered_map<RuleId, FlowTable::RetiredCounters> retired_;
};

std::string entry_diff(const FlowEntry& a, const FlowEntry& b) {
  std::ostringstream os;
  if (a.rule.id != b.rule.id) os << " id " << a.rule.id << "!=" << b.rule.id;
  if (a.rule.priority != b.rule.priority) os << " priority";
  if (!(a.rule.match == b.rule.match)) os << " match";
  if (a.install_time != b.install_time) os << " install_time";
  if (a.idle_timeout != b.idle_timeout) os << " idle_timeout";
  if (a.hard_timeout != b.hard_timeout) os << " hard_timeout";
  if (a.last_hit != b.last_hit) os << " last_hit";
  if (a.packets != b.packets) os << " packets";
  if (a.bytes != b.bytes) os << " bytes";
  if (a.guards != b.guards) os << " guards";
  return os.str();
}

// Full observable-state comparison; returns "" when identical.
std::string diff_tables(const FlowTable& t, const ReferenceFlowTable& r) {
  std::ostringstream os;
  for (const Band band : {Band::kCache, Band::kAuthority, Band::kPartition}) {
    const auto view = t.entries(band);
    const auto& ref = r.entries(band);
    if (view.size() != ref.size()) {
      os << band_name(band) << " size " << view.size() << "!=" << ref.size() << ";";
      continue;
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const std::string d = entry_diff(view[i], ref[i]);
      if (!d.empty()) os << band_name(band) << "[" << i << "]:" << d << ";";
    }
  }
  const auto& ts = t.stats();
  const auto& rs = r.stats();
  for (std::size_t b = 0; b < kNumBands; ++b) {
    if (ts.hits_per_band[b] != rs.hits_per_band[b]) os << " hits_per_band[" << b << "]";
  }
  if (ts.misses != rs.misses) os << " misses";
  if (ts.installs != rs.installs) os << " installs";
  if (ts.evictions != rs.evictions) os << " evictions";
  if (ts.expirations != rs.expirations) os << " expirations";
  if (ts.cascade_evictions != rs.cascade_evictions) os << " cascade_evictions";
  if (ts.install_rejected != rs.install_rejected) os << " install_rejected";
  if (t.retired().size() != r.retired().size()) {
    os << " retired size";
  } else {
    for (const auto& [id, row] : r.retired()) {
      const auto it = t.retired().find(id);
      if (it == t.retired().end() || it->second.packets != row.packets ||
          it->second.bytes != row.bytes) {
        os << " retired[" << id << "]";
      }
    }
  }
  return os.str();
}

struct MixParams {
  double p_timeout = 0.3;    // installs carrying idle/hard timeouts
  double p_guards = 0.3;     // cache installs carrying guard lists
  std::size_t cache_cap_min = 4;
  std::size_t cache_cap_max = 64;
  std::size_t ops = 200;
  double p_same_instant = 0.3;  // an op runs at the previous op's instant
  // The clock moves backwards. Only for mixes without timeouts: the lazy
  // expiry watermark assumes a forward clock, as the engine guarantees.
  double p_step_back = 0.0;
  // A lookup's header is one of 6 boundary packets fixed per case, exactly
  // as drawn (no spare-bit noise), so headers repeat and the header memo
  // answers them across installs, removals, expiry, evictions and clears.
  double p_repeat = 0.0;
};

// Drives one case; adds the table's memo hits to `memo_hits` when given.
void drive(proptest::PropertyContext& ctx, const MixParams& mix,
           std::uint64_t* memo_hits = nullptr) {
  proptest::TableGenParams tg;
  tg.max_rules = 24;
  tg.add_default = ctx.rng.bernoulli(0.5);
  const RuleTable rules = proptest::gen_table(ctx.rng, tg);
  const std::size_t cache_cap = static_cast<std::size_t>(
      ctx.rng.uniform(mix.cache_cap_min, mix.cache_cap_max));

  FlowTable table(cache_cap);
  ReferenceFlowTable ref(cache_cap);
  double now = 0.0;
  RuleId next_id = 1000;  // microflow ids; policy rules keep their own
  std::vector<BitVec> flows;  // headers of installed microflows
  std::vector<BitVec> repeats;
  if (mix.p_repeat > 0.0) {
    for (int i = 0; i < 6; ++i) repeats.push_back(proptest::gen_boundary_packet(ctx.rng, rules));
  }

  for (std::size_t op = 0; op < mix.ops; ++op) {
    const double step = ctx.rng.exponential(4.0);  // mean 0.25s per step
    const double clock = ctx.rng.uniform01();
    if (clock < mix.p_step_back) {
      now = std::max(0.0, now - step);
    } else if (clock >= mix.p_step_back + mix.p_same_instant) {
      now += step;
    }
    const auto report = [&](const char* what) -> std::string {
      std::ostringstream os;
      os << "op " << op << " (" << what << ") at now=" << now << " seed 0x"
         << std::hex << ctx.case_seed;
      return os.str();
    };
    const std::uint64_t kind = ctx.rng.uniform(0, 99);
    if (kind < 35) {  // install
      Rule rule;
      Band band = Band::kCache;
      if (!rules.empty() && ctx.rng.bernoulli(0.5)) {
        rule = rules.at(ctx.rng.uniform(0, rules.size() - 1));
        const std::uint64_t where = ctx.rng.uniform(0, 9);
        band = where < 6 ? Band::kCache
                         : (where < 8 ? Band::kAuthority : Band::kPartition);
      } else {
        // Microflow on a boundary-biased packet, ranked anywhere among the
        // policy rules. Reusing a small id space exercises the same-id
        // refresh path.
        rule.id = ctx.rng.bernoulli(0.5)
                      ? next_id++
                      : 1000 + static_cast<RuleId>(ctx.rng.uniform(0, 40));
        rule.priority = static_cast<Priority>(ctx.rng.uniform(0, 2 * rules.size() + 4));
        flows.push_back(proptest::gen_boundary_packet(ctx.rng, rules));
        rule.match = ctx.rng.bernoulli(0.7) ? exact_pattern(flows.back())
                                            : Ternary(flows.back(), BitVec::ones());
        rule.action = Action::forward(static_cast<std::uint32_t>(ctx.rng.uniform(0, 3)));
      }
      const double idle =
          ctx.rng.bernoulli(mix.p_timeout) ? ctx.rng.exponential(2.0) : 0.0;
      const double hard =
          ctx.rng.bernoulli(mix.p_timeout) ? ctx.rng.exponential(1.0) : 0.0;
      std::vector<RuleId> guards;
      if (band == Band::kCache && ctx.rng.bernoulli(mix.p_guards)) {
        // Guard ids drawn from the same small space, so some point at live
        // entries, some at ids installed later (phantom guards), some at
        // ids that never exist.
        const std::size_t n = ctx.rng.uniform(1, 3);
        for (std::size_t g = 0; g < n; ++g) {
          guards.push_back(1000 + static_cast<RuleId>(ctx.rng.uniform(0, 45)));
        }
      }
      const bool a = table.install(rule, band, now, idle, hard, guards);
      const bool b = ref.install(rule, band, now, idle, hard, guards);
      ASSERT_EQ(a, b) << report("install");
    } else if (kind < 75) {  // lookup, with peek agreement first
      BitVec pkt = proptest::gen_boundary_packet(ctx.rng, rules);
      if (!repeats.empty() && ctx.rng.bernoulli(mix.p_repeat)) {
        pkt = repeats[ctx.rng.uniform(0, repeats.size() - 1)];
      } else if (!flows.empty() && ctx.rng.bernoulli(0.5)) {
        // Revisit a microflow's header with fresh noise in the spare bits.
        pkt = flows[ctx.rng.uniform(0, flows.size() - 1)];
        for (std::size_t b = header_bits_used(); b < kHeaderBits; ++b) {
          pkt.set(b, ctx.rng.bernoulli(0.5));
        }
      }
      const FlowEntry* pa = table.peek(pkt, now);
      const FlowEntry* pb = ref.peek(pkt, now);
      ASSERT_EQ(pa == nullptr, pb == nullptr) << report("peek");
      const bool peek_hit = pa != nullptr;
      const RuleId peek_id = peek_hit ? pa->rule.id : kInvalidRuleId;
      if (peek_hit) {
        ASSERT_EQ(peek_id, pb->rule.id) << report("peek");
      }
      // Capture peek results by value: lookup's sweep below may relocate or
      // erase entries, invalidating the peeked pointers.
      const std::uint64_t cascades_before = table.stats().cascade_evictions;
      const FlowEntry* la = table.lookup(pkt, now, 7);
      const FlowEntry* lb = ref.lookup(pkt, now, 7);
      ASSERT_EQ(la == nullptr, lb == nullptr) << report("lookup");
      if (la != nullptr) {
        ASSERT_EQ(la->rule.id, lb->rule.id) << report("lookup");
      }
      // peek is the reference scan, and lookup (memo or scan) agrees with
      // it at one instant — unless the sweep's safety cascade just removed
      // live dependents of an expired guard (then lookup legitimately sees
      // a smaller table; eager sweeping behaved the same way).
      if (table.stats().cascade_evictions == cascades_before) {
        ASSERT_EQ(peek_hit, la != nullptr) << report("peek/lookup agreement");
        if (peek_hit) {
          ASSERT_EQ(peek_id, la->rule.id) << report("peek/lookup agreement");
        }
      }
    } else if (kind < 85) {  // remove
      RuleId id = 1000 + static_cast<RuleId>(ctx.rng.uniform(0, 45));
      if (!rules.empty() && ctx.rng.bernoulli(0.4)) {
        id = rules.at(ctx.rng.uniform(0, rules.size() - 1)).id;
      }
      const Band band = static_cast<Band>(ctx.rng.uniform(0, 2));
      ASSERT_EQ(table.remove(id, band), ref.remove(id, band)) << report("remove");
    } else if (kind < 95) {  // explicit sweep
      ASSERT_EQ(table.expire(now), ref.expire(now)) << report("expire");
    } else {  // clear a band
      const Band band = static_cast<Band>(ctx.rng.uniform(0, 2));
      table.clear_band(band);
      ref.clear_band(band);
    }
    const std::string diff = diff_tables(table, ref);
    ASSERT_TRUE(diff.empty()) << report("state diff") << ": " << diff;
  }
  if (memo_hits != nullptr) *memo_hits += table.stats().memo_hits;
}

// Runs a repeated-header mix as a property sweep and checks that the memo
// answered some of its lookups, so the agreement covered the memo path.
void sweep_repeated(const char* name, const MixParams& mix) {
  std::uint64_t memo_hits = 0;
  proptest::run_property(name, 120, 0xd1fa9eULL, [&](proptest::PropertyContext& ctx) {
    drive(ctx, mix, &memo_hits);
  });
  if (std::getenv("DIFANE_PROPTEST_REPLAY") == nullptr) {
    EXPECT_GT(memo_hits, 0u);
  }
}

DIFANE_PROPERTY(FlowTableMatchesEagerReference, 120) {
  MixParams mix;
  drive(ctx, mix);
}

// Timeout-heavy mix: most installs carry idle/hard timeouts, so expiries
// stream and the lazy watermark trips continuously — every skipped or taken
// sweep must leave the table byte-identical to eager sweeping.
DIFANE_PROPERTY(FlowTableExpiryMatchesEagerReference, 120) {
  MixParams mix;
  mix.p_timeout = 0.85;
  drive(ctx, mix);
}

// Churn mix: tiny cache plus dense guard lists, so LRU eviction and the
// safety cascade (including phantom guard ids that bind late) dominate.
DIFANE_PROPERTY(FlowTableLruCascadeMatchesEagerReference, 120) {
  MixParams mix;
  mix.p_guards = 0.8;
  mix.cache_cap_min = 2;
  mix.cache_cap_max = 8;
  drive(ctx, mix);
}

// Backward clock: hits and refreshes at an earlier instant move entries
// behind later-hit ones, so the recency list must re-place them, not
// append, to keep yielding the reference's LRU victims.
DIFANE_PROPERTY(FlowTableBackwardClockMatchesEagerReference, 120) {
  MixParams mix;
  mix.p_timeout = 0.0;
  mix.p_step_back = 0.2;
  mix.cache_cap_min = 2;
  mix.cache_cap_max = 8;
  drive(ctx, mix);
}

// Repeated headers over the general mix: the memo must pick the eager
// reference's winner after every kind of table change.
TEST(Property, FlowTableRepeatedHeadersMatchEagerReference) {
  MixParams mix;
  mix.p_repeat = 0.8;
  sweep_repeated("FlowTableRepeatedHeadersMatchEagerReference", mix);
}

// Repeated headers under churn: tiny cache, dense guards and mostly
// timed-out entries, so memoized winners keep leaving by eviction,
// cascade and expiry.
TEST(Property, FlowTableRepeatedHeadersUnderChurnMatchEagerReference) {
  MixParams mix;
  mix.p_repeat = 0.8;
  mix.p_timeout = 0.85;
  mix.p_guards = 0.8;
  mix.cache_cap_min = 2;
  mix.cache_cap_max = 8;
  sweep_repeated("FlowTableRepeatedHeadersUnderChurnMatchEagerReference", mix);
}

}  // namespace
}  // namespace difane
