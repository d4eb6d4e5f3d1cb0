// Switch flow table with DIFANE's three priority bands. Cache rules shadow
// authority rules shadow partition rules, regardless of the numeric
// priorities inside each band — exactly the layering the paper installs in
// every switch's TCAM. Cache entries carry idle/hard timeouts and LRU-evict
// when the cache band is full; authority and partition entries are proactive
// and never expire. The simulator keeps an authority switch's authority band
// in its AuthorityNode bindings (core/authority.hpp), matched after the cache
// band and before the partition band, so its tables hold cache and partition
// entries only; the authority band here serves tests and microbenchmarks.
//
// Fast-path layout: each band keeps its entries in its own stable slab, an
// ordered index of slab slots, a RuleId hash map and one 32-bit order key
// per slot. Keys increase along the band order with gaps between them, so an
// insert takes a key between its neighbours' and renumbers the band only
// when no gap is left. The cache band adds three indices, stored for cache
// slots only: an exact-match hash over entries that pin every used header
// bit (the microflow / NOX / kExact shape), keyed and probed on the used
// bits alone; the remaining wildcard entries as one contiguous row vector
// in band order; and a recency list sorted by last_hit whose head yields
// the LRU victim. The band order mirrors the original vector semantics
// bit-for-bit: inserts land at their rule_before position, same-id
// refreshes stay where they are (even when the refresh changes the
// priority), the winner is always the first live match in band order, and
// the victim is the first entry in band order with the minimal last_hit.
// Expiry is lazy: a min-expiry watermark skips the per-lookup sweep
// entirely until some entry can actually have timed out, at which point a
// full sweep runs — so observable behavior (stats, cascades, LRU order) is
// byte-identical to sweeping on every lookup.
//
// Header memo: while the cache band has wildcard rows, lookup remembers
// each recent header's cache winner (slot, or "no cache entry matches") in
// a direct-mapped array keyed on the full 256-bit header. Every link into
// the exact hash or the rows gets a fresh tenancy stamp (its link number)
// and a place in a log of the last kLinkLog links; an unlink clears the
// stamp. Invariant: after lookup's watermark sweep every present entry is
// live (the watermark assumes a forward clock, as the engine guarantees),
// so a header's winner — the first matching entry in band order — changes
// only when the winner leaves (its stamp no longer matches) or a matching
// entry is linked ahead of it (the log holds it). Removing any other entry
// cannot change the winner, and renumber keeps the keys' relative order.
// So a memo entry whose header matches, whose winner's stamp is current and
// which has seen at most kLinkLog links since it was validated is answered
// from the links logged since then, without scanning the rows; anything
// else falls back to the scan. Without wildcard rows the exact hash answers
// in one probe and the memo is not consulted, but links are still stamped
// and logged so earlier memo entries stay checkable. peek() is the plain
// scan, the reference the memo must agree with.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "flowspace/rule.hpp"

namespace difane {

enum class Band : std::uint8_t { kCache = 0, kAuthority = 1, kPartition = 2 };
inline constexpr std::size_t kNumBands = 3;

const char* band_name(Band band);

struct FlowEntry {
  Rule rule;
  Band band = Band::kPartition;
  double install_time = 0.0;
  double idle_timeout = 0.0;  // seconds; 0 => none
  double hard_timeout = 0.0;  // seconds; 0 => none
  double last_hit = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  // Ids of the higher-priority entries this cache entry needs present to be
  // safe (its install group's protectors: dependent-set ancestors or
  // cover-set shadows). The entry is installed only while every guard is
  // present, and leaves with the first guard that goes. Empty for
  // self-sufficient entries (microflow, shadows, proactive bands).
  std::vector<RuleId> guards;

  bool expired(double now) const {
    if (hard_timeout > 0.0 && now >= install_time + hard_timeout) return true;
    if (idle_timeout > 0.0 && now >= last_hit + idle_timeout) return true;
    return false;
  }
};

struct FlowTableStats {
  std::uint64_t hits_per_band[kNumBands] = {0, 0, 0};
  std::uint64_t misses = 0;           // matched nothing in any band
  std::uint64_t installs = 0;
  std::uint64_t evictions = 0;        // cache LRU evictions
  std::uint64_t expirations = 0;      // timeout removals
  std::uint64_t cascade_evictions = 0;  // dependents removed for safety
  std::uint64_t install_rejected = 0; // cache installs into a zero-capacity cache
  std::uint64_t guard_rejects = 0;    // cache installs refused: a guard absent
  std::uint64_t memo_hits = 0;        // lookups answered by the header memo
};

class FlowTable {
 public:
  // Header memo geometry (see the file comment), chosen on zipf-hits: 4,096
  // direct-mapped entries answer 97.1% of its lookups (1,024: 95.5%;
  // 16,384: 98.0% for 2.6 MiB more RSS), with a log of 64 links (16: 96.7%,
  // 256: 97.6%); run time was flat across all five.
  static constexpr unsigned kMemoBits = 12;
  static constexpr std::size_t kMemoSize = std::size_t{1} << kMemoBits;
  static constexpr std::uint64_t kLinkLog = 64;

  // `cache_capacity` bounds the cache band only; the authority and partition
  // bands are unbounded.
  explicit FlowTable(std::size_t cache_capacity = 1000);

  // Install an entry. Cache-band installs LRU-evict on overflow and replace
  // an existing entry with the same rule id (refreshing its timeouts and
  // guards). `guards` lists the protector entry ids this entry depends on
  // (see FlowEntry::guards). A cache install fails (returns false) when the
  // cache capacity is 0 or a guard is not a cache entry. The guard check
  // runs before room is made, changing nothing, and again after, since an
  // eviction that took a guard cascades only to installed dependents; that
  // refusal keeps the evictions.
  bool install(const Rule& rule, Band band, double now, double idle_timeout = 0.0,
               double hard_timeout = 0.0, std::vector<RuleId> guards = {});

  // Install each pointed-to rule into a non-cache band, in order, as
  // install(rule, band, now) does: no timeouts, no guards. A loop suffices:
  // the simulator's one proactive band, the partition band, holds one rule
  // per partition.
  void install_bulk(const std::vector<const Rule*>& rules, Band band, double now);

  bool remove(RuleId id, Band band);
  void clear_band(Band band);

  // Find the winning entry: lowest band first, then rule priority order
  // within the band. A hit updates last_hit and counters. Expired entries
  // are swept (with identical semantics to an eager per-lookup sweep) before
  // matching; the sweep is skipped while the expiry watermark proves no
  // entry can have timed out. A repeated header's cache winner comes from
  // the header memo (see the file comment) when it is still valid.
  const FlowEntry* lookup(const BitVec& packet, double now, std::uint64_t bytes = 1);

  // Non-mutating probe (no counter/LRU update, no expiry, no memo): the
  // reference scan, first live match in band order. lookup agrees with it
  // at any instant of a forward clock.
  const FlowEntry* peek(const BitVec& packet, double now) const;

  std::size_t expire(double now);

  std::size_t size(Band band) const { return bands_[index(band)].order.size(); }
  std::size_t total_size() const;
  std::size_t cache_capacity() const { return cache_capacity_; }
  const FlowEntry* find(RuleId id, Band band) const;

  // One entry's liveness+match test, used by the reference scan that peek
  // and lookup's memo fallback share: a rule wins iff it has not timed out
  // and its ternary pattern matches the packet.
  static bool live_match(const FlowEntry& entry, const BitVec& packet, double now) {
    return !entry.expired(now) && entry.rule.match.matches(packet);
  }

  // Read-only view of one band in match order. Iterates the band's slot
  // index over the entry slab; stable while the table is not mutated.
  class BandView {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = FlowEntry;
      using difference_type = std::ptrdiff_t;
      using pointer = const FlowEntry*;
      using reference = const FlowEntry&;
      iterator(const FlowEntry* slab, const std::uint32_t* pos)
          : slab_(slab), pos_(pos) {}
      const FlowEntry& operator*() const { return slab_[*pos_]; }
      const FlowEntry* operator->() const { return &slab_[*pos_]; }
      iterator& operator++() { ++pos_; return *this; }
      iterator operator++(int) { iterator old = *this; ++pos_; return old; }
      friend bool operator==(const iterator& a, const iterator& b) { return a.pos_ == b.pos_; }
      friend bool operator!=(const iterator& a, const iterator& b) { return a.pos_ != b.pos_; }
     private:
      const FlowEntry* slab_;
      const std::uint32_t* pos_;
    };

    iterator begin() const { return iterator(slab_, idx_); }
    iterator end() const { return iterator(slab_, idx_ + count_); }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    const FlowEntry& front() const { return slab_[idx_[0]]; }
    const FlowEntry& operator[](std::size_t i) const { return slab_[idx_[i]]; }

   private:
    friend class FlowTable;
    BandView(const FlowEntry* slab, const std::uint32_t* idx, std::size_t count)
        : slab_(slab), idx_(idx), count_(count) {}
    const FlowEntry* slab_;
    const std::uint32_t* idx_;
    std::size_t count_;
  };

  BandView entries(Band band) const {
    const auto& bs = bands_[index(band)];
    return BandView(bs.slab.data(), bs.order.data(), bs.order.size());
  }

  const FlowTableStats& stats() const { return stats_; }

  // Observes every cache-band entry leaving the table. Fired once per entry,
  // with the entry still fully intact (rule, counters, guards), immediately
  // before the slot is recycled. The listener runs mid-removal and MUST NOT
  // mutate this table; buffer and act later. The telemetry layer hangs its
  // eviction-flush semantics off this hook — an evicted elephant's pending
  // counts are exported instead of vanishing.
  using RemovalListener = std::function<void(const FlowEntry&)>;
  void set_removal_listener(RemovalListener listener) {
    removal_listener_ = std::move(listener);
  }

  // Counters of removed entries (timeout, eviction, explicit delete),
  // accumulated per origin rule. A real switch reports these in
  // flow-removed messages; keeping them lets per-policy-rule statistics
  // stay exact across cache churn (the transparency property). Redirect
  // plumbing (encap actions, partition band) is excluded — those hits are
  // re-counted at the authority switch and would double-book.
  struct RetiredCounters {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  const std::unordered_map<RuleId, RetiredCounters>& retired() const {
    return retired_;
  }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  struct BandState {
    std::vector<FlowEntry> slab;  // stable entry storage
    std::vector<std::uint32_t> free_slots;
    // Slab slots in band match order: rule_before order on insert, with
    // same-id refreshes keeping their original position (mirroring the
    // vector implementation this replaced).
    std::vector<std::uint32_t> order;
    // slot -> order key; strictly increasing along `order`, so comparing
    // two keys compares band positions.
    std::vector<std::uint32_t> key;
    std::unordered_map<RuleId, std::uint32_t> by_id;  // rule id -> slab slot
  };

  // Per cache slot: the exact-hash chain, the recency list links and the
  // tenancy stamp (the link number that put the current entry in the exact
  // hash or the rows; 0 while unlinked).
  struct CacheLinks {
    std::uint32_t exact_next = kNilSlot;
    std::uint32_t lru_prev = kNilSlot;
    std::uint32_t lru_next = kNilSlot;
    std::uint64_t stamp = 0;
  };

  // One header's memoized cache winner: its slot and stamp (kNilSlot: no
  // cache entry matches), true as of link count `links`. A fresh entry says
  // "no cache match as of link 0", which holds: nothing was linked yet.
  struct MemoEntry {
    BitVec header;
    std::uint32_t winner = kNilSlot;
    std::uint64_t stamp = 0;
    std::uint64_t links = 0;
  };

  // One wildcard cache entry's pattern, stored inline so the scan reads
  // contiguous rows and touches the slab only for a match.
  struct WildRow {
    Ternary match;
    std::uint32_t key;
    std::uint32_t slot;
  };

  static std::size_t index(Band band) { return static_cast<std::size_t>(band); }
  BandState& cache() { return bands_[index(Band::kCache)]; }
  const BandState& cache() const { return bands_[index(Band::kCache)]; }

  // Earliest instant this entry can expire (+inf when it never does).
  static double next_expiry(const FlowEntry& e);
  void note_expiry(const FlowEntry& e);
  void recompute_watermark();

  std::uint32_t alloc_slot(BandState& bs);
  void release_slot(BandState& bs, std::uint32_t slot);

  // Band-order helpers: insert at the rule_before position with a key
  // between its neighbours', erase by binary search on the keys, and
  // renumber (respacing every key) when an insert finds no gap.
  void order_insert(BandState& bs, std::uint32_t slot);
  void order_erase(BandState& bs, std::uint32_t slot);
  void renumber(BandState& bs);

  // Cache-band accelerators (exact-match chain / wildcard rows).
  void link_cache_aux(std::uint32_t slot);
  void unlink_cache_aux(std::uint32_t slot);
  void link_guards(std::uint32_t slot);
  void unlink_guards(std::uint32_t slot);

  // Recency list: `touch` sets a cache entry's last_hit and (re)places it,
  // in O(1) while time moves forward; `lru_unlink` drops it.
  void touch(std::uint32_t slot, double now);
  bool lru_linked(std::uint32_t slot) const;
  void lru_unlink(std::uint32_t slot);

  // Remove a (already retired) entry from every index of its band.
  void erase_entry(std::uint32_t slot, Band band);

  void notify_removal(const FlowEntry& entry) {
    if (removal_listener_) removal_listener_(entry);
  }

  // The reference scan: first live match in cache (exact fast path +
  // wildcard rows; a slot, kNilSlot for none), then authority, then
  // partition. find_live_match chains the two.
  std::uint32_t find_cache_match(const BitVec& packet, double now) const;
  const FlowEntry* find_proactive_match(const BitVec& packet, double now) const;
  const FlowEntry* find_live_match(const BitVec& packet, double now) const;
  // The cache-band winner through the header memo, falling back to
  // find_cache_match; either way the memo entry is left valid.
  std::uint32_t memo_cache_match(const BitVec& packet, double now);

  void evict_lru_cache();
  void retire(const FlowEntry& entry);
  // Safety cascade: when a cache entry leaves (eviction, timeout, delete),
  // every cache entry that listed it as a guard is unsafe — without its
  // protector it would steal packets — and must leave too, recursively.
  // Re-caching on the next miss restores the full group. Without this,
  // cache churn silently breaks the semantics wildcard caching promises.
  // Keyed by rule id, so a guard refreshed in place keeps its dependents.
  void cascade_remove_dependents(std::vector<RuleId> removed_ids);

  std::size_t cache_capacity_;

  BandState bands_[kNumBands];

  // Cache-band indices. Entries that cover every used header bit hash by
  // their used bits (same-key duplicates chain through exact_next); the
  // rest sit in wildcard rows sorted by key. The recency list runs from
  // the least to the most recently hit entry.
  std::vector<CacheLinks> cache_links_;  // parallel to the cache slab
  std::unordered_map<BitVec, std::uint32_t> cache_exact_;
  std::vector<WildRow> cache_wild_;
  std::uint32_t lru_head_ = kNilSlot;
  std::uint32_t lru_tail_ = kNilSlot;

  // Header memo, allocated with the first wildcard row; link n's slot sits
  // at link_log_[n % kLinkLog], and links_ counts every link.
  std::vector<MemoEntry> memo_;
  std::array<std::uint32_t, kLinkLog> link_log_{};
  std::uint64_t links_ = 0;

  // Reverse guard index: guard rule id -> ids of cache entries listing it.
  std::unordered_map<RuleId, std::vector<RuleId>> dependents_;

  // Lower bound on the earliest instant any entry can expire; +inf when no
  // entry carries a timeout. lookup() sweeps only once `now` reaches it.
  double expiry_watermark_ = std::numeric_limits<double>::infinity();

  FlowTableStats stats_;
  std::unordered_map<RuleId, RetiredCounters> retired_;
  RemovalListener removal_listener_;
};

}  // namespace difane
