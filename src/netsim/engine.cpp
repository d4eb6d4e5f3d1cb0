#include "netsim/engine.hpp"

#include <algorithm>

namespace difane {

void Engine::at(SimTime when, std::uint64_t seq, Handler fn) {
  expects(when >= now_, "Engine: cannot schedule in the past");
  expects(seq < seq_, "Engine: sequence number was not reserved");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  heap_.push_back(HeapItem{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::uint64_t Engine::run(SimTime until, std::uint64_t max_events) {
  std::uint64_t count = 0;
  while (!heap_.empty() && count < max_events) {
    const HeapItem top = heap_.front();
    if (top.when > until) break;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    // Move the handler out and recycle the slot before invoking, so
    // re-entrant scheduling is safe (it may reuse this very slot).
    Handler fn = std::move(slots_[top.slot]);
    free_slots_.push_back(top.slot);
    now_ = top.when;
    fn();
    ++count;
    ++executed_;
  }
  if (heap_.empty() && now_ < until && until < 1e18) now_ = until;
  return count;
}

void Engine::clear() {
  heap_.clear();
  slots_.clear();
  free_slots_.clear();
}

}  // namespace difane
