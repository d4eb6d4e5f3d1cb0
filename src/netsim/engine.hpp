// Discrete-event engine. Events are closures executed in nondecreasing
// timestamp order; ties break by schedule order (FIFO), which makes runs
// deterministic. This is the testbed substitute: switch processing, link
// propagation, controller service times are all events.
//
// Fast-path layout: handlers are SBO callables (no per-event std::function
// heap closure) stored in a slab whose slots recycle through a free list,
// and the priority queue orders 24-byte {when, seq, slot} records instead of
// sifting whole events. Once the slab and heap reach their high-water marks,
// steady-state schedule/dispatch performs zero heap allocations for any
// handler that fits the inline buffer (bench_a3_fastpath gates on this).
#pragma once

#include <cstdint>
#include <vector>

#include "util/contract.hpp"
#include "util/inline_fn.hpp"

namespace difane {

using SimTime = double;  // seconds

class Engine {
 public:
  // Inline handler storage. Sized for the largest event capture in
  // core/system.cpp (static_asserted at those call sites); larger handlers
  // still work via InlineFn's heap fallback, they just allocate.
  static constexpr std::size_t kInlineHandlerBytes = 256;
  using Handler = InlineFn<kInlineHandlerBytes>;

  // Schedule at absolute time `when` (>= now).
  void at(SimTime when, Handler fn);
  // Schedule `delay` seconds from now.
  void after(SimTime delay, Handler fn) { at(now_ + delay, std::move(fn)); }

  SimTime now() const { return now_; }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  // Timestamp of the earliest pending event, or kNoEvent when the queue is
  // empty. The sharded executor uses this to size conservative time windows.
  static constexpr SimTime kNoEvent = 1e300;
  SimTime peek_time() const { return heap_.empty() ? kNoEvent : heap_.front().when; }

  // Run until the queue drains, `until` is passed, or `max_events` fire.
  // Returns the number of events executed by this call.
  std::uint64_t run(SimTime until = 1e18, std::uint64_t max_events = ~0ULL);

  // Run every event with `when` strictly before `end`, leaving `now()` at the
  // last executed event (never advanced to `end`). This is the window-bounded
  // primitive for conservative parallel execution: events at exactly `end`
  // belong to the next window, after the barrier has exchanged cross-shard
  // messages and applied global state changes.
  std::uint64_t run_before(SimTime end);

  // Drop all pending events (end-of-experiment cleanup).
  void clear();

 private:
  struct HeapItem {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::vector<HeapItem> heap_;  // binary min-heap via std::push_heap/pop_heap
  std::vector<Handler> slots_;  // handler slab, indexed by HeapItem::slot
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace difane
