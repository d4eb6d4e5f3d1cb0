// Deterministic heavy-hitter detection: the space-saving (stream-summary)
// sketch of Metwally et al., as applied to elephant-flow detection in the
// measurement literature (see PAPERS.md). An authority switch feeds every
// redirected-packet miss into one of these; the cache-install policy then
// asks "how heavy is this flow, at least?" before spending TCAM on it.
//
// Guarantees (the property suite in tests/test_prop_heavy_hitter.cpp holds
// the implementation to these over adversarial streams):
//  * overestimate only:  true_count <= count  for every tracked key;
//  * bounded error:      count - true_count <= error <= N / k, where N is
//    the total weight offered and k the capacity;
//  * completeness:       any key with true_count > N / k is tracked.
//
// Everything is deterministic: eviction scans slots in insertion order with
// a fixed tiebreak, so the same offer sequence always produces the same
// summary — a requirement for byte-identical scenario replay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/contract.hpp"

namespace difane::obs {

template <typename Key, typename Hash = std::hash<Key>,
          typename Eq = std::equal_to<Key>>
class SpaceSaving {
 public:
  struct Entry {
    Key key{};
    std::uint64_t count = 0;  // estimated weight (upper bound on the truth)
    std::uint64_t error = 0;  // count - error is a certain lower bound
  };

  explicit SpaceSaving(std::size_t capacity) : capacity_(capacity) {
    expects(capacity_ >= 1, "SpaceSaving: capacity must be >= 1");
    slots_.reserve(capacity_);
    index_.reserve(capacity_ * 2);
  }

  // Record `weight` more units for `key`. When the summary is full, the
  // minimum-count slot is recycled: the new key inherits the victim's count
  // as its error floor (the classic space-saving overestimate).
  void offer(const Key& key, std::uint64_t weight = 1) {
    total_ += weight;
    if (const auto it = index_.find(key); it != index_.end()) {
      Slot& s = slots_[it->second];
      s.count += weight;
      s.seq = next_seq_++;
      return;
    }
    if (slots_.size() < capacity_) {
      index_.emplace(key, slots_.size());
      slots_.push_back(Slot{key, weight, 0, next_seq_++});
      return;
    }
    const std::size_t victim = min_slot();
    Slot& s = slots_[victim];
    index_.erase(s.key);
    const std::uint64_t floor = s.count;
    s = Slot{key, floor + weight, floor, next_seq_++};
    index_.emplace(key, victim);
  }

  // Estimated count (0 for an untracked key — the caller can add min_count()
  // back if it wants the sketch-wide upper bound instead).
  std::uint64_t estimate(const Key& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? 0 : slots_[it->second].count;
  }

  // Certain lower bound on the key's true count: count minus the inherited
  // error. 0 for untracked keys. This is what policy decisions should use —
  // it never inflates a mouse into an elephant.
  std::uint64_t guaranteed(const Key& key) const {
    const auto it = index_.find(key);
    if (it == index_.end()) return 0;
    const Slot& s = slots_[it->second];
    return s.count - s.error;
  }

  std::optional<Entry> find(const Key& key) const {
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    const Slot& s = slots_[it->second];
    return Entry{s.key, s.count, s.error};
  }

  // Smallest tracked count — the upper bound on any *untracked* key's true
  // count. 0 while the summary still has free slots.
  std::uint64_t min_count() const {
    if (slots_.size() < capacity_) return 0;
    return slots_[min_slot()].count;
  }

  // Tracked entries, heaviest first (ties broken by most-recent touch, then
  // never reached: seq stamps are unique). Deterministic for a deterministic
  // offer sequence.
  std::vector<Entry> entries() const {
    std::vector<const Slot*> order;
    order.reserve(slots_.size());
    for (const Slot& s : slots_) order.push_back(&s);
    std::sort(order.begin(), order.end(), [](const Slot* a, const Slot* b) {
      if (a->count != b->count) return a->count > b->count;
      return a->seq > b->seq;
    });
    std::vector<Entry> out;
    out.reserve(order.size());
    for (const Slot* s : order) out.push_back(Entry{s->key, s->count, s->error});
    return out;
  }

  std::vector<Entry> top(std::size_t n) const {
    auto all = entries();
    if (all.size() > n) all.resize(n);
    return all;
  }

  void reset() {
    slots_.clear();
    index_.clear();
    total_ = 0;
    next_seq_ = 0;
  }

  std::uint64_t total() const { return total_; }  // N: total weight offered
  std::size_t size() const { return slots_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    Key key{};
    std::uint64_t count = 0;
    std::uint64_t error = 0;
    std::uint64_t seq = 0;  // last-touch stamp: unique, monotone
  };

  // Deterministic min scan: smallest count, least-recently-touched on ties.
  std::size_t min_slot() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      const Slot& b = slots_[best];
      if (s.count < b.count || (s.count == b.count && s.seq < b.seq)) best = i;
    }
    return best;
  }

  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::unordered_map<Key, std::size_t, Hash, Eq> index_;
  std::uint64_t total_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace difane::obs
