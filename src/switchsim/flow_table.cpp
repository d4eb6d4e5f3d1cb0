#include "switchsim/flow_table.hpp"

#include <algorithm>
#include <utility>

#include "flowspace/header.hpp"
#include "util/contract.hpp"

namespace difane {

namespace {

// Order keys lie strictly between 0 and kKeyEnd, so kKeyEnd doubles as "no
// exact winner" in the wildcard scan.
constexpr std::uint32_t kKeyEnd = 0xffffffffu;

// Largest key step for a band of `n` entries: a renumber spreads the keys
// over the lower half of the key space, leaving the upper half for appends.
std::uint64_t key_step(std::size_t n) { return (kKeyEnd / 2) / (n + 1); }

}  // namespace

const char* band_name(Band band) {
  switch (band) {
    case Band::kCache: return "cache";
    case Band::kAuthority: return "authority";
    case Band::kPartition: return "partition";
  }
  return "?";
}

FlowTable::FlowTable(std::size_t cache_capacity) : cache_capacity_(cache_capacity) {}

double FlowTable::next_expiry(const FlowEntry& e) {
  double t = std::numeric_limits<double>::infinity();
  if (e.hard_timeout > 0.0) t = e.install_time + e.hard_timeout;
  if (e.idle_timeout > 0.0) t = std::min(t, e.last_hit + e.idle_timeout);
  return t;
}

void FlowTable::note_expiry(const FlowEntry& e) {
  expiry_watermark_ = std::min(expiry_watermark_, next_expiry(e));
}

void FlowTable::recompute_watermark() {
  double t = std::numeric_limits<double>::infinity();
  for (const auto& bs : bands_) {
    for (const auto slot : bs.order) t = std::min(t, next_expiry(bs.slab[slot]));
  }
  expiry_watermark_ = t;
}

std::uint32_t FlowTable::alloc_slot(BandState& bs) {
  if (!bs.free_slots.empty()) {
    const std::uint32_t slot = bs.free_slots.back();
    bs.free_slots.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(bs.slab.size());
  bs.slab.emplace_back();
  bs.key.push_back(0);
  if (&bs == &cache()) cache_links_.emplace_back();
  return slot;
}

void FlowTable::release_slot(BandState& bs, std::uint32_t slot) {
  FlowEntry& e = bs.slab[slot];
  e.rule = Rule{};
  e.packets = 0;
  e.bytes = 0;
  e.guards.clear();  // keeps capacity for the next tenant
  if (&bs == &cache()) cache_links_[slot] = CacheLinks{};
  bs.free_slots.push_back(slot);
}

void FlowTable::renumber(BandState& bs) {
  const std::uint64_t step = key_step(bs.order.size());
  expects(step > 0, "FlowTable: band too large for 32-bit order keys");
  std::uint64_t k = 0;
  for (const std::uint32_t slot : bs.order) bs.key[slot] = static_cast<std::uint32_t>(k += step);
  if (&bs == &cache()) {
    for (WildRow& row : cache_wild_) row.key = bs.key[row.slot];
  }
}

void FlowTable::order_insert(BandState& bs, std::uint32_t slot) {
  // Same probe sequence as lower_bound over the old entry vector, so the
  // landing position matches it bit-for-bit even when stale-positioned
  // refreshed entries leave the band not strictly sorted.
  const Rule& rule = bs.slab[slot].rule;
  const auto it = std::lower_bound(
      bs.order.begin(), bs.order.end(), rule,
      [&bs](std::uint32_t s, const Rule& r) { return rule_before(bs.slab[s].rule, r); });
  const std::uint64_t lo = it == bs.order.begin() ? 0 : bs.key[*(it - 1)];
  const std::uint64_t hi = it == bs.order.end() ? kKeyEnd : bs.key[*it];
  bs.order.insert(it, slot);
  if (hi - lo < 2) {
    renumber(bs);
    return;
  }
  const std::uint64_t gap = std::min((hi - lo) / 2, key_step(bs.order.size()));
  bs.key[slot] = static_cast<std::uint32_t>(lo + std::max<std::uint64_t>(gap, 1));
}

void FlowTable::order_erase(BandState& bs, std::uint32_t slot) {
  const auto it = std::lower_bound(
      bs.order.begin(), bs.order.end(), bs.key[slot],
      [&bs](std::uint32_t s, std::uint32_t k) { return bs.key[s] < k; });
  expects(it != bs.order.end() && *it == slot, "FlowTable: band order out of sync");
  bs.order.erase(it);
}

void FlowTable::link_cache_aux(std::uint32_t slot) {
  const BandState& bs = cache();
  const Ternary& match = bs.slab[slot].rule.match;
  if (covers_used_bits(match)) {
    const auto [it, inserted] =
        cache_exact_.try_emplace(match.value() & used_bits_mask(), slot);
    cache_links_[slot].exact_next = inserted ? kNilSlot : std::exchange(it->second, slot);
  } else {
    const auto it = std::lower_bound(
        cache_wild_.begin(), cache_wild_.end(), bs.key[slot],
        [](const WildRow& row, std::uint32_t k) { return row.key < k; });
    cache_wild_.insert(it, WildRow{match, bs.key[slot], slot});
    if (memo_.empty()) memo_.resize(kMemoSize);
  }
  cache_links_[slot].stamp = ++links_;
  link_log_[links_ % kLinkLog] = slot;
}

void FlowTable::unlink_cache_aux(std::uint32_t slot) {
  const BandState& bs = cache();
  const Ternary& match = bs.slab[slot].rule.match;
  if (covers_used_bits(match)) {
    const auto it = cache_exact_.find(match.value() & used_bits_mask());
    expects(it != cache_exact_.end(), "FlowTable: exact index out of sync");
    std::uint32_t& next = cache_links_[slot].exact_next;
    if (it->second == slot) {
      if (next == kNilSlot) {
        cache_exact_.erase(it);
      } else {
        it->second = next;
      }
    } else {
      std::uint32_t prev = it->second;
      while (cache_links_[prev].exact_next != slot) {
        prev = cache_links_[prev].exact_next;
        expects(prev != kNilSlot, "FlowTable: exact chain out of sync");
      }
      cache_links_[prev].exact_next = next;
    }
    next = kNilSlot;
  } else {
    const auto it = std::lower_bound(
        cache_wild_.begin(), cache_wild_.end(), bs.key[slot],
        [](const WildRow& row, std::uint32_t k) { return row.key < k; });
    expects(it != cache_wild_.end() && it->slot == slot,
            "FlowTable: wildcard index out of sync");
    cache_wild_.erase(it);
  }
  cache_links_[slot].stamp = 0;
}

bool FlowTable::lru_linked(std::uint32_t slot) const {
  return cache_links_[slot].lru_prev != kNilSlot || lru_head_ == slot;
}

void FlowTable::lru_unlink(std::uint32_t slot) {
  if (!lru_linked(slot)) return;
  CacheLinks& l = cache_links_[slot];
  (l.lru_prev == kNilSlot ? lru_head_ : cache_links_[l.lru_prev].lru_next) = l.lru_next;
  (l.lru_next == kNilSlot ? lru_tail_ : cache_links_[l.lru_next].lru_prev) = l.lru_prev;
  l.lru_prev = l.lru_next = kNilSlot;
}

void FlowTable::touch(std::uint32_t slot, double now) {
  auto& slab = cache().slab;
  // The list orders by last_hit alone, so an unchanged stamp keeps its place.
  if (slab[slot].last_hit == now && lru_linked(slot)) return;
  slab[slot].last_hit = now;
  lru_unlink(slot);
  // Insert after the last entry hit no later than this one: the tail
  // itself while time moves forward.
  std::uint32_t prev = lru_tail_;
  while (prev != kNilSlot && slab[prev].last_hit > now) prev = cache_links_[prev].lru_prev;
  CacheLinks& l = cache_links_[slot];
  l.lru_prev = prev;
  l.lru_next = prev == kNilSlot ? lru_head_ : cache_links_[prev].lru_next;
  (prev == kNilSlot ? lru_head_ : cache_links_[prev].lru_next) = slot;
  (l.lru_next == kNilSlot ? lru_tail_ : cache_links_[l.lru_next].lru_prev) = slot;
}

void FlowTable::link_guards(std::uint32_t slot) {
  const FlowEntry& e = cache().slab[slot];
  for (const RuleId g : e.guards) dependents_[g].push_back(e.rule.id);
}

void FlowTable::unlink_guards(std::uint32_t slot) {
  const FlowEntry& e = cache().slab[slot];
  for (const RuleId g : e.guards) {
    const auto it = dependents_.find(g);
    if (it == dependents_.end()) continue;
    auto& deps = it->second;
    const auto pos = std::find(deps.begin(), deps.end(), e.rule.id);
    if (pos != deps.end()) deps.erase(pos);
    if (deps.empty()) dependents_.erase(it);
  }
}

void FlowTable::erase_entry(std::uint32_t slot, Band band) {
  BandState& bs = bands_[index(band)];
  if (band == Band::kCache) {
    unlink_cache_aux(slot);
    unlink_guards(slot);
    lru_unlink(slot);
  }
  order_erase(bs, slot);
  bs.by_id.erase(bs.slab[slot].rule.id);
  release_slot(bs, slot);
}

bool FlowTable::install(const Rule& rule, Band band, double now, double idle_timeout,
                        double hard_timeout, std::vector<RuleId> guards) {
  BandState& bs = bands_[index(band)];
  // A dependent without one of its protectors would steal that protector's
  // packets, so it is held only while every guard is (the removal cascade
  // is the other half of this rule).
  const auto guards_present = [&bs, &guards] {
    return std::all_of(guards.begin(), guards.end(),
                       [&bs](RuleId g) { return bs.by_id.count(g) != 0; });
  };
  if (band == Band::kCache && !guards_present()) {
    ++stats_.guard_rejects;
    return false;
  }
  // Group safety under heterogeneous idle timeouts (the elephant policy
  // installs the same protector rule from groups with different leashes): a
  // dependent must never be configured to outlive a guard, or the window
  // between the guard's lazy expiry and the next sweep exposes the dependent
  // as an unguarded — mis-forwarding — match. Cap the dependent's idle
  // budget at the tightest guard's remaining lifetime. With uniform
  // timeouts the group refreshes its guards an instant earlier, so the cap
  // equals the requested timeout.
  if (band == Band::kCache && idle_timeout != 0.0) {
    for (const RuleId g : guards) {
      const FlowEntry& ge = bs.slab[bs.by_id.find(g)->second];
      if (ge.idle_timeout <= 0.0) continue;  // guard never idles out
      const double remaining = ge.last_hit + ge.idle_timeout - now;
      if (remaining < idle_timeout) {
        // A guard that is already past due still caps (a vanishingly short
        // timeout, not zero: zero would mean "never expires").
        idle_timeout = std::max(remaining, 1e-9);
      }
    }
  }
  // Same-id reinstall refreshes the entry in place (counters survive). The
  // entry keeps its band position even when the refresh changes the
  // priority — exactly what the old in-place vector refresh did — so only a
  // changed match needs the exact/wildcard indices rekeyed (the wildcard
  // rows order by key, which does not move).
  const auto existing = bs.by_id.find(rule.id);
  if (existing != bs.by_id.end()) {
    const std::uint32_t slot = existing->second;
    FlowEntry& e = bs.slab[slot];
    const bool match_changed = !(e.rule.match == rule.match);
    if (band == Band::kCache) {
      if (match_changed) unlink_cache_aux(slot);
      unlink_guards(slot);
    }
    e.rule = rule;
    e.install_time = now;
    // The dual of the guard cap above: an entry other live cache entries
    // depend on must not have its timeout shortened by a refresh from a
    // colder group — its dependents would outlive it. 0 means "never idles
    // out" and wins outright.
    if (band == Band::kCache && dependents_.find(rule.id) != dependents_.end() &&
        e.idle_timeout != idle_timeout) {
      if (e.idle_timeout <= 0.0 || idle_timeout <= 0.0) {
        idle_timeout = 0.0;
      } else {
        idle_timeout = std::max(e.idle_timeout, idle_timeout);
      }
    }
    e.idle_timeout = idle_timeout;
    e.hard_timeout = hard_timeout;
    e.guards = std::move(guards);
    if (band == Band::kCache) {
      if (match_changed) link_cache_aux(slot);
      link_guards(slot);
      touch(slot, now);
    } else {
      e.last_hit = now;
    }
    note_expiry(e);
    ++stats_.installs;
    return true;
  }
  if (band == Band::kCache) {
    if (cache_capacity_ == 0) {
      ++stats_.install_rejected;
      return false;
    }
    if (bs.order.size() >= cache_capacity_) {
      while (bs.order.size() >= cache_capacity_) evict_lru_cache();
      // The evictions cascade only to dependents already installed, so one
      // that took a guard of this entry must refuse it here.
      if (!guards_present()) {
        ++stats_.guard_rejects;
        return false;
      }
    }
  }
  const std::uint32_t slot = alloc_slot(bs);
  FlowEntry& e = bs.slab[slot];
  e.rule = rule;
  e.band = band;
  e.install_time = now;
  e.idle_timeout = idle_timeout;
  e.hard_timeout = hard_timeout;
  e.last_hit = now;
  e.packets = 0;
  e.bytes = 0;
  e.guards = std::move(guards);
  order_insert(bs, slot);
  bs.by_id.emplace(rule.id, slot);
  if (band == Band::kCache) {
    link_cache_aux(slot);
    link_guards(slot);
    touch(slot, now);
  }
  note_expiry(e);
  ++stats_.installs;
  return true;
}

void FlowTable::install_bulk(const std::vector<const Rule*>& rules, Band band,
                             double now) {
  expects(band != Band::kCache,
          "install_bulk: cache-band installs need timeouts and guards; use "
          "install()");
  for (const Rule* rule : rules) install(*rule, band, now);
}

void FlowTable::retire(const FlowEntry& entry) {
  // Plumbing entries re-count at the authority switch; see retired() docs.
  if (entry.band == Band::kPartition) return;
  if (entry.rule.action.type == ActionType::kEncap) return;
  if (entry.packets == 0 && entry.bytes == 0) return;
  auto& row = retired_[entry.rule.origin_or_self()];
  row.packets += entry.packets;
  row.bytes += entry.bytes;
}

void FlowTable::cascade_remove_dependents(std::vector<RuleId> removed_ids) {
  BandState& bs = cache();
  std::vector<RuleId> deps;
  while (!removed_ids.empty()) {
    const RuleId gone = removed_ids.back();
    removed_ids.pop_back();
    const auto dit = dependents_.find(gone);
    if (dit == dependents_.end()) continue;
    deps = std::move(dit->second);
    dependents_.erase(dit);
    for (const RuleId id : deps) {
      const auto bit = bs.by_id.find(id);
      if (bit == bs.by_id.end()) continue;
      const std::uint32_t slot = bit->second;
      retire(bs.slab[slot]);
      notify_removal(bs.slab[slot]);
      erase_entry(slot, Band::kCache);
      ++stats_.cascade_evictions;
      removed_ids.push_back(id);
    }
  }
}

void FlowTable::evict_lru_cache() {
  const BandState& bs = cache();
  expects(lru_head_ != kNilSlot, "evict_lru_cache: cache empty");
  // The recency head holds the minimal last_hit. Among the entries tied with
  // it, the first in band order (lowest key) goes — the same victim
  // min_element picked over the band-sorted entry vector.
  std::uint32_t victim = lru_head_;
  const double oldest = bs.slab[victim].last_hit;
  for (std::uint32_t s = cache_links_[victim].lru_next;
       s != kNilSlot && bs.slab[s].last_hit == oldest; s = cache_links_[s].lru_next) {
    if (bs.key[s] < bs.key[victim]) victim = s;
  }
  retire(bs.slab[victim]);
  notify_removal(bs.slab[victim]);
  const RuleId gone = bs.slab[victim].rule.id;
  erase_entry(victim, Band::kCache);
  ++stats_.evictions;
  cascade_remove_dependents({gone});
}

bool FlowTable::remove(RuleId id, Band band) {
  BandState& bs = bands_[index(band)];
  const auto it = bs.by_id.find(id);
  if (it == bs.by_id.end()) return false;
  const std::uint32_t slot = it->second;
  retire(bs.slab[slot]);
  if (band == Band::kCache) notify_removal(bs.slab[slot]);
  erase_entry(slot, band);
  if (band == Band::kCache) cascade_remove_dependents({id});
  return true;
}

void FlowTable::clear_band(Band band) {
  BandState& bs = bands_[index(band)];
  for (const std::uint32_t slot : bs.order) {
    retire(bs.slab[slot]);
    if (band == Band::kCache) notify_removal(bs.slab[slot]);
    release_slot(bs, slot);
  }
  bs.order.clear();
  bs.by_id.clear();
  if (band == Band::kCache) {
    // Guard links, the exact/wildcard indices and the recency list only
    // ever reference cache entries, so wiping the band wipes them wholesale
    // (release_slot already cleared every tenancy stamp).
    cache_exact_.clear();
    cache_wild_.clear();
    dependents_.clear();
    lru_head_ = lru_tail_ = kNilSlot;
  }
  recompute_watermark();
}

std::size_t FlowTable::expire(double now) {
  std::size_t total = 0;
  std::vector<RuleId> expired_cache;
  for (std::size_t b = 0; b < kNumBands; ++b) {
    BandState& bs = bands_[b];
    const bool is_cache = b == index(Band::kCache);
    // Compact survivors in place; their keys stay increasing along the
    // order, so nothing is renumbered.
    std::size_t kept = 0;
    for (const std::uint32_t slot : bs.order) {
      FlowEntry& e = bs.slab[slot];
      if (!e.expired(now)) {
        bs.order[kept++] = slot;
        continue;
      }
      retire(e);
      if (is_cache) {
        notify_removal(e);
        expired_cache.push_back(e.rule.id);
        unlink_cache_aux(slot);
        unlink_guards(slot);
        lru_unlink(slot);
      }
      bs.by_id.erase(e.rule.id);
      release_slot(bs, slot);
      ++total;
    }
    bs.order.resize(kept);
  }
  stats_.expirations += total;
  if (!expired_cache.empty()) cascade_remove_dependents(std::move(expired_cache));
  recompute_watermark();
  return total;
}

std::uint32_t FlowTable::find_cache_match(const BitVec& packet, double now) const {
  // Exact-match fast path plus the wildcard rows. The winner is the FIRST
  // live match in band order, so candidates from the exact chain and the
  // rows compare by key, not priority — same-id refreshes can leave a band
  // locally unsorted and the original linear scan still picked the earliest
  // entry.
  const BandState& bs = cache();
  std::uint32_t win = kNilSlot;
  std::uint32_t win_key = kKeyEnd;
  if (!cache_exact_.empty()) {
    // Generated packets carry noise in the spare bits; the key holds only
    // the used bits, and live_match still checks any spare bits an entry
    // cares about.
    const auto it = cache_exact_.find(packet & used_bits_mask());
    const std::uint32_t head = it == cache_exact_.end() ? kNilSlot : it->second;
    for (std::uint32_t s = head; s != kNilSlot; s = cache_links_[s].exact_next) {
      if (bs.key[s] < win_key && live_match(bs.slab[s], packet, now)) {
        win = s;
        win_key = bs.key[s];
      }
    }
  }
  for (const WildRow& row : cache_wild_) {
    if (row.key >= win_key) break;
    if (row.match.matches(packet) && !bs.slab[row.slot].expired(now)) return row.slot;
  }
  return win;
}

const FlowEntry* FlowTable::find_proactive_match(const BitVec& packet, double now) const {
  for (const Band band : {Band::kAuthority, Band::kPartition}) {
    const BandState& other = bands_[index(band)];
    for (const std::uint32_t s : other.order) {
      if (live_match(other.slab[s], packet, now)) return &other.slab[s];
    }
  }
  return nullptr;
}

const FlowEntry* FlowTable::find_live_match(const BitVec& packet, double now) const {
  const std::uint32_t slot = find_cache_match(packet, now);
  return slot != kNilSlot ? &cache().slab[slot] : find_proactive_match(packet, now);
}

std::uint32_t FlowTable::memo_cache_match(const BitVec& packet, double now) {
  const BandState& bs = cache();
  // BitVec::hash's low bits barely see the high bits of each word, so
  // index by the top bits of a multiplicative mix instead.
  MemoEntry& m = memo_[(packet.hash() * 0x9e3779b97f4a7c15ULL) >> (64 - kMemoBits)];
  std::uint32_t win = m.winner;
  if (links_ - m.links <= kLinkLog && m.header == packet &&
      (win == kNilSlot || cache_links_[win].stamp == m.stamp)) {
    // Only a matching entry linked ahead of the winner since m.links can
    // have taken over; a logged link still counts while its stamp holds.
    std::uint32_t win_key = win == kNilSlot ? kKeyEnd : bs.key[win];
    for (std::uint64_t n = m.links + 1; n <= links_; ++n) {
      const std::uint32_t s = link_log_[n % kLinkLog];
      if (cache_links_[s].stamp == n && bs.key[s] < win_key &&
          bs.slab[s].rule.match.matches(packet)) {
        win = s;
        win_key = bs.key[s];
      }
    }
    ++stats_.memo_hits;
  } else {
    m.header = packet;
    win = find_cache_match(packet, now);
  }
  m.winner = win;
  m.stamp = win == kNilSlot ? 0 : cache_links_[win].stamp;
  m.links = links_;
  return win;
}

const FlowEntry* FlowTable::lookup(const BitVec& packet, double now, std::uint64_t bytes) {
  // Amortized sweep: the watermark lower-bounds every entry's expiry, so
  // skipping the sweep while now < watermark removes exactly nothing — the
  // table, stats, and cascades evolve byte-identically to an eager sweep.
  if (now >= expiry_watermark_) expire(now);
  // Without wildcard rows the exact hash answers in one probe: no memo.
  const std::uint32_t slot =
      cache_wild_.empty() ? find_cache_match(packet, now) : memo_cache_match(packet, now);
  auto* entry = slot != kNilSlot ? &cache().slab[slot]
                                 : const_cast<FlowEntry*>(find_proactive_match(packet, now));
  if (entry == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  ++entry->packets;
  entry->bytes += bytes;
  ++stats_.hits_per_band[index(entry->band)];
  if (entry->band != Band::kCache) {
    entry->last_hit = now;
  } else {
    BandState& bs = cache();
    touch(static_cast<std::uint32_t>(entry - bs.slab.data()), now);
    // A hit keeps the whole protection group warm: guards that never win on
    // their own must not idle out (or become LRU victims) while the entries
    // they protect are hot — the safety cascade would then evict hot
    // entries along with them.
    for (const RuleId g : entry->guards) {
      const auto it = bs.by_id.find(g);
      if (it != bs.by_id.end()) touch(it->second, now);
    }
  }
  return entry;
}

const FlowEntry* FlowTable::peek(const BitVec& packet, double now) const {
  return find_live_match(packet, now);
}

std::size_t FlowTable::total_size() const {
  std::size_t n = 0;
  for (const auto& bs : bands_) n += bs.order.size();
  return n;
}

const FlowEntry* FlowTable::find(RuleId id, Band band) const {
  const auto& bs = bands_[index(band)];
  const auto it = bs.by_id.find(id);
  return it == bs.by_id.end() ? nullptr : &bs.slab[it->second];
}

}  // namespace difane
