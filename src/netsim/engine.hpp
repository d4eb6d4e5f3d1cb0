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
//
// reserve(n) hands out n consecutive tie-break numbers for at(when, seq, fn)
// to use later: a chain of events, each scheduling the next before it could
// be the earliest pending, runs as if all were scheduled at reservation.
// Scenario streams each flow's packets and each ingress's flow starts so,
// and SwitchAgent its FlowMod backlog. The slab's high-water mark is then
// the events in flight (the next packet of each started flow among them),
// plus one start per ingress, plus one head apply per switch agent.
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
  void at(SimTime when, Handler fn) { at(when, seq_++, std::move(fn)); }
  // Same, on a number from reserve(); equal times run in number order.
  void at(SimTime when, std::uint64_t seq, Handler fn);
  // Reserve `n` consecutive sequence numbers; returns the first.
  std::uint64_t reserve(std::uint64_t n) { return (seq_ += n) - n; }
  // Schedule `delay` seconds from now.
  void after(SimTime delay, Handler fn) { at(now_ + delay, std::move(fn)); }

  SimTime now() const { return now_; }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  // Run until the queue drains, `until` is passed, or `max_events` fire.
  // Returns the number of events executed by this call.
  std::uint64_t run(SimTime until = 1e18, std::uint64_t max_events = ~0ULL);

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
