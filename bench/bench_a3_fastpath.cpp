// A3 (fast path) — microbenchmark of the two per-packet hot loops the
// simulator is built on: switch flow-table lookups (exact-hit, fallthrough,
// expiry-churn and wildcard-hit mixes) and event-engine schedule/dispatch.
// Wall metrics track ns/op; the allocation counters are deterministic and
// gate the zero-heap-allocation claim for steady-state operation (a counting
// global operator new observes every heap allocation in the measured loops).
#include "common.hpp"

#include <array>
#include <cstdlib>
#include <new>

#include "flowspace/header.hpp"
#include "netsim/engine.hpp"
#include "switchsim/flow_table.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every heap allocation in this binary bumps g_allocs.
// Single-threaded (bench binaries are), so a plain counter suffices.

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (n + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace difane;
using namespace difane::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Self-rescheduling engine handler with a packet-sized payload: each firing
// reschedules a copy of itself until its chain is used up, so the pending
// count (and therefore the engine's slab high-water mark) stays constant.
struct Hop {
  Engine* eng;
  std::uint64_t* fired;
  std::uint64_t remaining;
  std::array<std::uint64_t, 10> payload;

  void operator()() {
    *fired += 1 + (payload[0] & 0);  // keep the payload observable
    if (--remaining > 0) eng->after(1e-6, Hop(*this));
  }
};
static_assert(Engine::Handler::fits_inline<Hop>,
              "A3's representative event capture must use the inline path");

// The microflow shape the simulator installs: every used header bit pinned,
// the spare bits wildcarded.
Rule microflow_rule(RuleId id, const BitVec& header) {
  Rule rule;
  rule.id = id;
  rule.priority = 1000;
  rule.match = exact_pattern(header);
  rule.action = Action::forward(1);
  return rule;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "A3", /*default_seed=*/307);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header("A3: fast-path microbenchmark",
                   "flow-table lookup + event-engine dispatch hot loops",
                   "steady-state lookups and dispatch perform zero heap "
                   "allocations; ns/op stays flat as tables grow");
    }

    const std::size_t policy_size = args.pick<std::size_t>(400, 200);
    const std::size_t cache_entries = args.pick<std::size_t>(50000, 10000);
    const std::size_t lookups = args.pick<std::size_t>(2000000, 400000);
    rep.report.params["policy_rules"] = obs::Json(policy_size);
    rep.report.params["cache_entries"] = obs::Json(cache_entries);

    const auto policy = classbench_like(policy_size, 7);
    Rng rng(rep.seed);

    TextTable table({"loop", "ops", "ns/op", "allocs"});

    // -- Flow-table hit mix: every lookup hits a microflow cache entry
    // through the exact-match hash, probed on the used bits of a header
    // whose spare bits carry noise. No timeouts, so the expiry watermark
    // never trips.
    {
      FlowTable ft(/*cache_capacity=*/cache_entries + 16);
      for (const auto& rule : policy.rules()) {
        ft.install(rule, Band::kAuthority, 0.0);
      }
      std::vector<BitVec> headers;
      headers.reserve(cache_entries);
      for (std::size_t i = 0; i < cache_entries; ++i) {
        const auto& match = policy.at(rng.uniform(0, policy.size() - 1)).match;
        headers.push_back(match.sample_point(rng));
        ft.install(microflow_rule(static_cast<RuleId>(1000000 + i), headers.back()),
                   Band::kCache, 0.0);
      }
      std::uint64_t checksum = 0;
      const std::uint64_t a0 = g_allocs;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < lookups; ++i) {
        const FlowEntry* e = ft.lookup(headers[i % headers.size()], 1.0);
        if (e != nullptr) checksum += e->rule.id;
      }
      const double wall = seconds_since(t0);
      const std::uint64_t allocs = g_allocs - a0;
      rep.set("lookup_hit_steady_allocs", static_cast<double>(allocs));
      rep.set("lookup_hit_checksum", static_cast<double>(checksum % 1000000007ULL));
      rep.set("lookup_hit_ops", static_cast<double>(lookups));
      rep.set("lookup_hit_wall_ns_per_op", 1e9 * wall / static_cast<double>(lookups));
      table.add_row({"cache hit", TextTable::integer(static_cast<long long>(lookups)),
                     TextTable::num(1e9 * wall / static_cast<double>(lookups), 1),
                     TextTable::integer(static_cast<long long>(allocs))});

      // -- Fallthrough mix against the same table: random headers miss the
      // exact hash and resolve in the authority band (or miss entirely).
      std::vector<BitVec> strangers;
      strangers.reserve(4096);
      for (std::size_t i = 0; i < 4096; ++i) {
        strangers.push_back(Ternary::wildcard().sample_point(rng));
      }
      std::uint64_t fallthrough_checksum = 0;
      const std::uint64_t b0 = g_allocs;
      const auto t1 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < lookups; ++i) {
        const FlowEntry* e = ft.lookup(strangers[i % strangers.size()], 1.0);
        if (e != nullptr) fallthrough_checksum += e->rule.id;
      }
      const double wall_miss = seconds_since(t1);
      const std::uint64_t allocs_miss = g_allocs - b0;
      rep.set("lookup_fallthrough_steady_allocs", static_cast<double>(allocs_miss));
      rep.set("lookup_fallthrough_checksum",
              static_cast<double>(fallthrough_checksum % 1000000007ULL));
      rep.set("lookup_fallthrough_wall_ns_per_op",
              1e9 * wall_miss / static_cast<double>(lookups));
      rep.set("lookup_misses", static_cast<double>(ft.stats().misses));
      table.add_row({"cache fallthrough",
                     TextTable::integer(static_cast<long long>(lookups)),
                     TextTable::num(1e9 * wall_miss / static_cast<double>(lookups), 1),
                     TextTable::integer(static_cast<long long>(allocs_miss))});
    }

    // -- Expiry churn: entries with idle timeouts stream-expire as installs
    // and lookups advance the clock, so the watermark trips repeatedly and
    // every sweep finds work. This is the lazy-expiry worst case.
    {
      const std::size_t churn = args.pick<std::size_t>(20000, 5000);
      const double dt = 1e-3;
      const double idle = 1000 * dt;  // ~1000 live entries in steady state
      FlowTable ft(/*cache_capacity=*/churn + 16);
      std::vector<BitVec> headers;
      headers.reserve(churn);
      for (std::size_t i = 0; i < churn; ++i) {
        headers.push_back(Ternary::wildcard().sample_point(rng));
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < churn; ++i) {
        const double now = static_cast<double>(i) * dt;
        ft.install(microflow_rule(static_cast<RuleId>(2000000 + i), headers[i]),
                   Band::kCache, now, idle);
        // Refresh a recent entry (a hit) and probe an old one (a miss after
        // expiry), so sweeps interleave with both lookup outcomes.
        ft.lookup(headers[i / 2], now);
      }
      const double wall = seconds_since(t0);
      rep.set("expiry_churn_ops", static_cast<double>(2 * churn));
      rep.set("expiry_churn_expirations", static_cast<double>(ft.stats().expirations));
      rep.set("expiry_churn_wall_ns_per_op",
              1e9 * wall / static_cast<double>(2 * churn));
      table.add_row({"expiry churn",
                     TextTable::integer(static_cast<long long>(2 * churn)),
                     TextTable::num(1e9 * wall / static_cast<double>(2 * churn), 1),
                     "-"});
    }

    // -- Wildcard-hit mix: ~1,000 classbench rules cached as wildcard
    // entries (the cover-set shape), looked up by a cycle of headers
    // sampled inside them. One warm-up pass scans the wildcard rows once per
    // header; the measured passes repeat the same headers, so the header
    // memo answers most of them (headers sharing a memo slot rescan).
    {
      const auto wild_policy = classbench_like(1000, 11);
      FlowTable ft(/*cache_capacity=*/wild_policy.size() + 16);
      for (const auto& rule : wild_policy.rules()) ft.install(rule, Band::kCache, 0.0);
      std::vector<BitVec> headers;
      headers.reserve(wild_policy.size());
      for (std::size_t i = 0; i < wild_policy.size(); ++i) {
        headers.push_back(
            wild_policy.at(rng.uniform(0, wild_policy.size() - 1)).match.sample_point(rng));
      }
      for (const BitVec& h : headers) ft.lookup(h, 1.0);  // warm-up
      std::uint64_t checksum = 0;
      const std::uint64_t a0 = g_allocs;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < lookups; ++i) {
        const FlowEntry* e = ft.lookup(headers[i % headers.size()], 1.0);
        if (e != nullptr) checksum += e->rule.id;
      }
      const double wall = seconds_since(t0);
      const std::uint64_t allocs = g_allocs - a0;
      rep.set("lookup_wild_steady_allocs", static_cast<double>(allocs));
      rep.set("lookup_wild_checksum", static_cast<double>(checksum % 1000000007ULL));
      rep.set("lookup_wild_wall_ns_per_op", 1e9 * wall / static_cast<double>(lookups));
      table.add_row({"wildcard hit", TextTable::integer(static_cast<long long>(lookups)),
                     TextTable::num(1e9 * wall / static_cast<double>(lookups), 1),
                     TextTable::integer(static_cast<long long>(allocs))});
    }

    // -- Engine schedule/dispatch: self-rescheduling packet-sized handlers.
    // A warmup drain brings the handler slab and heap to their high-water
    // marks; the measured run must then be allocation-free.
    {
      const std::uint64_t chains = 64;
      const std::uint64_t hops = args.pick<std::uint64_t>(20000, 2000);
      Engine engine;
      std::uint64_t fired = 0;
      for (std::uint64_t c = 0; c < chains; ++c) {
        engine.at(static_cast<double>(c) * 1e-9,
                  Hop{&engine, &fired, /*remaining=*/8, {{c}}});
      }
      engine.run();  // warmup: slab/heap reach steady size
      const std::uint64_t warm_fired = fired;

      const std::uint64_t a0 = g_allocs;
      for (std::uint64_t c = 0; c < chains; ++c) {
        engine.after(static_cast<double>(c) * 1e-9,
                     Hop{&engine, &fired, hops, {{c}}});
      }
      const auto t0 = std::chrono::steady_clock::now();
      engine.run();
      const double wall = seconds_since(t0);
      const std::uint64_t allocs = g_allocs - a0;
      const std::uint64_t events = fired - warm_fired;
      rep.set("engine_steady_allocs", static_cast<double>(allocs));
      rep.set("engine_events", static_cast<double>(events));
      rep.set("engine_wall_ns_per_event", 1e9 * wall / static_cast<double>(events));
      table.add_row({"engine dispatch",
                     TextTable::integer(static_cast<long long>(events)),
                     TextTable::num(1e9 * wall / static_cast<double>(events), 1),
                     TextTable::integer(static_cast<long long>(allocs))});
    }

    if (rep.verbose) std::printf("%s\n", table.render().c_str());
  });
}
