#include "switchsim/flow_table.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace difane {

const char* band_name(Band band) {
  switch (band) {
    case Band::kCache: return "cache";
    case Band::kAuthority: return "authority";
    case Band::kPartition: return "partition";
  }
  return "?";
}

const char* cache_removal_name(CacheRemoval cause) {
  switch (cause) {
    case CacheRemoval::kEvicted: return "evicted";
    case CacheRemoval::kExpired: return "expired";
    case CacheRemoval::kRemoved: return "removed";
    case CacheRemoval::kCascaded: return "cascaded";
    case CacheRemoval::kCleared: return "cleared";
  }
  return "?";
}

FlowTable::FlowTable(std::size_t cache_capacity, std::size_t hw_capacity)
    : cache_capacity_(cache_capacity), hw_capacity_(hw_capacity) {}

bool FlowTable::full_mask(const Ternary& match) {
  for (auto word : match.care().w) {
    if (word != ~0ULL) return false;
  }
  return true;
}

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
    for (const auto slot : bs.order) t = std::min(t, next_expiry(slab_[slot]));
  }
  expiry_watermark_ = t;
}

std::uint32_t FlowTable::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slab_.size());
  slab_.emplace_back();
  exact_next_.push_back(kNilSlot);
  order_pos_.push_back(0);
  return slot;
}

void FlowTable::release_slot(std::uint32_t slot) {
  FlowEntry& e = slab_[slot];
  e.rule = Rule{};
  e.packets = 0;
  e.bytes = 0;
  e.guards.clear();  // keeps capacity for the next tenant
  exact_next_[slot] = kNilSlot;
  free_slots_.push_back(slot);
}

void FlowTable::refresh_positions(const BandState& bs, std::size_t from) {
  for (std::size_t i = from; i < bs.order.size(); ++i) {
    order_pos_[bs.order[i]] = static_cast<std::uint32_t>(i);
  }
}

void FlowTable::order_insert(BandState& bs, std::uint32_t slot) {
  // Same probe sequence as lower_bound over the old entry vector, so the
  // landing position matches it bit-for-bit even when stale-positioned
  // refreshed entries leave the band not strictly sorted.
  const Rule& key = slab_[slot].rule;
  const auto it = std::lower_bound(
      bs.order.begin(), bs.order.end(), key,
      [this](std::uint32_t s, const Rule& r) { return rule_before(slab_[s].rule, r); });
  const std::size_t pos = static_cast<std::size_t>(it - bs.order.begin());
  bs.order.insert(it, slot);
  refresh_positions(bs, pos);
}

void FlowTable::order_erase(BandState& bs, std::uint32_t slot) {
  const std::size_t pos = order_pos_[slot];
  bs.order.erase(bs.order.begin() + static_cast<std::ptrdiff_t>(pos));
  refresh_positions(bs, pos);
}

void FlowTable::link_cache_aux(std::uint32_t slot) {
  const FlowEntry& e = slab_[slot];
  if (full_mask(e.rule.match)) {
    const auto [it, inserted] = cache_exact_.try_emplace(e.rule.match.value(), slot);
    if (!inserted) {
      exact_next_[slot] = it->second;
      it->second = slot;
    } else {
      exact_next_[slot] = kNilSlot;
    }
  } else {
    const std::uint32_t pos = order_pos_[slot];
    const auto it = std::lower_bound(
        cache_wild_order_.begin(), cache_wild_order_.end(), pos,
        [this](std::uint32_t s, std::uint32_t p) { return order_pos_[s] < p; });
    cache_wild_order_.insert(it, slot);
  }
}

void FlowTable::unlink_cache_aux(std::uint32_t slot) {
  const FlowEntry& e = slab_[slot];
  if (full_mask(e.rule.match)) {
    const auto it = cache_exact_.find(e.rule.match.value());
    expects(it != cache_exact_.end(), "FlowTable: exact index out of sync");
    if (it->second == slot) {
      if (exact_next_[slot] == kNilSlot) {
        cache_exact_.erase(it);
      } else {
        it->second = exact_next_[slot];
      }
    } else {
      std::uint32_t prev = it->second;
      while (exact_next_[prev] != slot) {
        expects(exact_next_[prev] != kNilSlot, "FlowTable: exact chain out of sync");
        prev = exact_next_[prev];
      }
      exact_next_[prev] = exact_next_[slot];
    }
    exact_next_[slot] = kNilSlot;
  } else {
    const std::uint32_t pos = order_pos_[slot];
    const auto it = std::lower_bound(
        cache_wild_order_.begin(), cache_wild_order_.end(), pos,
        [this](std::uint32_t s, std::uint32_t p) { return order_pos_[s] < p; });
    expects(it != cache_wild_order_.end() && *it == slot,
            "FlowTable: wildcard index out of sync");
    cache_wild_order_.erase(it);
  }
}

void FlowTable::link_guards(std::uint32_t slot) {
  const FlowEntry& e = slab_[slot];
  for (const RuleId g : e.guards) dependents_[g].push_back(e.rule.id);
}

void FlowTable::unlink_guards(std::uint32_t slot) {
  const FlowEntry& e = slab_[slot];
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
    // Aux lists search by order position, so unlink before the erase shifts
    // positions.
    unlink_cache_aux(slot);
    unlink_guards(slot);
  }
  order_erase(bs, slot);
  bs.by_id.erase(slab_[slot].rule.id);
  release_slot(slot);
}

bool FlowTable::install(const Rule& rule, Band band, double now, double idle_timeout,
                        double hard_timeout, std::vector<RuleId> guards) {
  BandState& bs = bands_[index(band)];
  // Group safety under heterogeneous idle timeouts (the elephant policy
  // installs the same protector rule from groups with different leashes): a
  // dependent must never be configured to outlive a guard, or the window
  // between the guard's lazy expiry and the next sweep exposes the dependent
  // as an unguarded — mis-forwarding — match. Cap the dependent's idle
  // budget at the tightest guard's remaining lifetime. With uniform
  // timeouts (every pre-elephant configuration) guards are refreshed in the
  // same group an instant earlier, the cap equals the requested timeout,
  // and behaviour is byte-identical to before.
  if (band == Band::kCache && !guards.empty() && idle_timeout != 0.0) {
    for (const RuleId g : guards) {
      const auto git = bs.by_id.find(g);
      if (git == bs.by_id.end()) continue;
      const FlowEntry& ge = slab_[git->second];
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
  // list orders by position, which does not move).
  const auto existing = bs.by_id.find(rule.id);
  if (existing != bs.by_id.end()) {
    const std::uint32_t slot = existing->second;
    FlowEntry& e = slab_[slot];
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
    e.last_hit = now;
    e.guards = std::move(guards);
    if (band == Band::kCache) {
      if (match_changed) link_cache_aux(slot);
      link_guards(slot);
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
    while (bs.order.size() >= cache_capacity_) evict_lru_cache(now);
  } else {
    const std::size_t other = bands_[index(Band::kAuthority)].order.size() +
                              bands_[index(Band::kPartition)].order.size();
    if (other >= hw_capacity_) {
      ++stats_.install_rejected;
      return false;
    }
  }
  const std::uint32_t slot = alloc_slot();
  FlowEntry& e = slab_[slot];
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
  }
  note_expiry(e);
  ++stats_.installs;
  return true;
}

std::size_t FlowTable::install_bulk(const std::vector<const Rule*>& rules,
                                    Band band, double now) {
  expects(band != Band::kCache,
          "install_bulk: cache-band installs need the eviction/guard logic of "
          "install()");
  BandState& bs = bands_[index(band)];
  const std::size_t before = bs.order.size();
  expects(std::is_sorted(bs.order.begin(), bs.order.end(),
                         [this](std::uint32_t a, std::uint32_t b) {
                           return rule_before(slab_[a].rule, slab_[b].rule);
                         }),
          "install_bulk: band order not rule_before-sorted (a refresh changed "
          "an entry's priority?)");
  std::size_t accepted = 0;
  for (const Rule* rule : rules) {
    // Same-id refresh keeps its position — identical to install(). Non-cache
    // bands have no aux indices or guard links to rekey.
    const auto existing = bs.by_id.find(rule->id);
    if (existing != bs.by_id.end()) {
      FlowEntry& e = slab_[existing->second];
      // A same-priority refresh keeps the band sorted; a priority change
      // would leave this entry stale-positioned and break the sortedness
      // precondition for the next bulk call (and the equivalence with
      // sequential install()). No non-cache caller changes priority on a
      // refresh — partition repoints swap the action, authority reinstalls
      // are identical rules — so reject it outright.
      expects(e.rule.priority == rule->priority,
              "install_bulk: refresh must not change priority (use install())");
      e.rule = *rule;
      e.install_time = now;
      e.idle_timeout = 0.0;
      e.hard_timeout = 0.0;
      e.last_hit = now;
      e.guards.clear();
      note_expiry(e);
      ++stats_.installs;
      ++accepted;
      continue;
    }
    const std::size_t other = bands_[index(Band::kAuthority)].order.size() +
                              bands_[index(Band::kPartition)].order.size();
    if (other >= hw_capacity_) {
      ++stats_.install_rejected;
      continue;
    }
    const std::uint32_t slot = alloc_slot();
    FlowEntry& e = slab_[slot];
    e.rule = *rule;
    e.band = band;
    e.install_time = now;
    e.idle_timeout = 0.0;
    e.hard_timeout = 0.0;
    e.last_hit = now;
    e.packets = 0;
    e.bytes = 0;
    e.guards.clear();
    bs.order.push_back(slot);
    bs.by_id.emplace(rule->id, slot);
    note_expiry(e);
    ++stats_.installs;
    ++accepted;
  }
  if (bs.order.size() != before) {
    // One sort of the appended tail plus one merge with the (sorted) prefix
    // lands every new entry at exactly the position sequential order_insert
    // calls would have chosen: rule_before is a strict total order, so the
    // merged result is the unique sorted arrangement either way.
    const auto mid = bs.order.begin() + static_cast<std::ptrdiff_t>(before);
    const auto by_rule = [this](std::uint32_t a, std::uint32_t b) {
      return rule_before(slab_[a].rule, slab_[b].rule);
    };
    std::sort(mid, bs.order.end(), by_rule);
    std::inplace_merge(bs.order.begin(), mid, bs.order.end(), by_rule);
    refresh_positions(bs, 0);
  }
  return accepted;
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
  BandState& cache = bands_[index(Band::kCache)];
  std::vector<RuleId> deps;
  while (!removed_ids.empty()) {
    const RuleId gone = removed_ids.back();
    removed_ids.pop_back();
    const auto dit = dependents_.find(gone);
    if (dit == dependents_.end()) continue;
    deps = std::move(dit->second);
    dependents_.erase(dit);
    for (const RuleId id : deps) {
      const auto bit = cache.by_id.find(id);
      if (bit == cache.by_id.end()) continue;
      const std::uint32_t slot = bit->second;
      retire(slab_[slot]);
      notify_removal(slab_[slot], CacheRemoval::kCascaded);
      erase_entry(slot, Band::kCache);
      ++stats_.cascade_evictions;
      removed_ids.push_back(id);
    }
  }
}

void FlowTable::evict_lru_cache(double now) {
  BandState& cache = bands_[index(Band::kCache)];
  expects(!cache.order.empty(), "evict_lru_cache: cache empty");
  (void)now;
  // First entry (in band priority order) with the minimal last_hit — the
  // same victim min_element picked over the band-sorted entry vector.
  std::uint32_t victim = cache.order[0];
  for (const std::uint32_t slot : cache.order) {
    if (slab_[slot].last_hit < slab_[victim].last_hit) victim = slot;
  }
  retire(slab_[victim]);
  notify_removal(slab_[victim], CacheRemoval::kEvicted);
  const RuleId gone = slab_[victim].rule.id;
  erase_entry(victim, Band::kCache);
  ++stats_.evictions;
  cascade_remove_dependents({gone});
}

bool FlowTable::remove(RuleId id, Band band) {
  BandState& bs = bands_[index(band)];
  const auto it = bs.by_id.find(id);
  if (it == bs.by_id.end()) return false;
  const std::uint32_t slot = it->second;
  retire(slab_[slot]);
  if (band == Band::kCache) notify_removal(slab_[slot], CacheRemoval::kRemoved);
  erase_entry(slot, band);
  if (band == Band::kCache) cascade_remove_dependents({id});
  return true;
}

void FlowTable::clear_band(Band band) {
  BandState& bs = bands_[index(band)];
  for (const std::uint32_t slot : bs.order) {
    retire(slab_[slot]);
    if (band == Band::kCache) notify_removal(slab_[slot], CacheRemoval::kCleared);
    release_slot(slot);
  }
  bs.order.clear();
  bs.by_id.clear();
  if (band == Band::kCache) {
    // Guard links and exact/wildcard indices only ever reference cache
    // entries, so wiping the band wipes them wholesale.
    cache_exact_.clear();
    cache_wild_order_.clear();
    dependents_.clear();
  }
  recompute_watermark();
}

std::size_t FlowTable::expire(double now) {
  std::size_t total = 0;
  std::vector<RuleId> expired_cache;
  for (std::size_t b = 0; b < kNumBands; ++b) {
    BandState& bs = bands_[b];
    const bool is_cache = b == index(Band::kCache);
    // Compact survivors in place; order_pos_ stays untouched until after the
    // pass so the aux-list unlinks (which search by position) stay valid.
    std::size_t kept = 0;
    std::size_t first_removed = bs.order.size();
    for (std::size_t i = 0; i < bs.order.size(); ++i) {
      const std::uint32_t slot = bs.order[i];
      FlowEntry& e = slab_[slot];
      if (!e.expired(now)) {
        bs.order[kept++] = slot;
        continue;
      }
      if (first_removed > i) first_removed = i;
      retire(e);
      if (is_cache) {
        notify_removal(e, CacheRemoval::kExpired);
        expired_cache.push_back(e.rule.id);
        unlink_cache_aux(slot);
        unlink_guards(slot);
      }
      bs.by_id.erase(e.rule.id);
      release_slot(slot);
      ++total;
    }
    if (kept < bs.order.size()) {
      bs.order.resize(kept);
      refresh_positions(bs, first_removed);
    }
  }
  stats_.expirations += total;
  if (!expired_cache.empty()) cascade_remove_dependents(std::move(expired_cache));
  recompute_watermark();
  return total;
}

const FlowEntry* FlowTable::find_live_match(const BitVec& packet, double now) const {
  // Cache band: exact-match fast path plus the wildcard-only ordered scan.
  // The winner is the FIRST live match in band order, so candidates from the
  // exact chain and the wildcard list compare by position, not priority —
  // same-id refreshes can leave a band locally unsorted and the original
  // linear scan still picked the earliest entry.
  const FlowEntry* win = nullptr;
  std::uint32_t win_pos = 0;
  if (!cache_exact_.empty()) {
    const auto it = cache_exact_.find(packet);
    const std::uint32_t head = it == cache_exact_.end() ? kNilSlot : it->second;
    for (std::uint32_t s = head; s != kNilSlot; s = exact_next_[s]) {
      const FlowEntry& e = slab_[s];
      if (!live_match(e, packet, now)) continue;
      if (win == nullptr || order_pos_[s] < win_pos) {
        win = &e;
        win_pos = order_pos_[s];
      }
    }
  }
  for (const std::uint32_t s : cache_wild_order_) {
    const FlowEntry& e = slab_[s];
    if (live_match(e, packet, now)) {
      if (win == nullptr || order_pos_[s] < win_pos) win = &e;
      break;
    }
  }
  if (win != nullptr) return win;
  for (const Band band : {Band::kAuthority, Band::kPartition}) {
    for (const std::uint32_t s : bands_[index(band)].order) {
      const FlowEntry& e = slab_[s];
      if (live_match(e, packet, now)) return &e;
    }
  }
  return nullptr;
}

const FlowEntry* FlowTable::lookup(const BitVec& packet, double now, std::uint64_t bytes) {
  // Amortized sweep: the watermark lower-bounds every entry's expiry, so
  // skipping the sweep while now < watermark removes exactly nothing — the
  // table, stats, and cascades evolve byte-identically to an eager sweep.
  if (now >= expiry_watermark_) expire(now);
  auto* entry = const_cast<FlowEntry*>(find_live_match(packet, now));
  if (entry == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  entry->last_hit = now;
  ++entry->packets;
  entry->bytes += bytes;
  ++stats_.hits_per_band[index(entry->band)];
  // A hit keeps the whole protection group warm: guards that never win on
  // their own must not idle out (or become LRU victims) while the entries
  // they protect are hot — the safety cascade would then evict hot entries
  // along with them.
  if (entry->band == Band::kCache && !entry->guards.empty()) {
    const auto& by_id = bands_[index(Band::kCache)].by_id;
    for (const RuleId g : entry->guards) {
      const auto it = by_id.find(g);
      if (it != by_id.end()) slab_[it->second].last_hit = now;
    }
  }
  return entry;
}

bool FlowTable::hit(RuleId id, Band band, double now, std::uint64_t bytes) {
  BandState& bs = bands_[index(band)];
  const auto it = bs.by_id.find(id);
  if (it == bs.by_id.end()) return false;
  FlowEntry& e = slab_[it->second];
  e.last_hit = now;
  ++e.packets;
  e.bytes += bytes;
  ++stats_.hits_per_band[index(band)];
  return true;
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
  return it == bs.by_id.end() ? nullptr : &slab_[it->second];
}

}  // namespace difane
