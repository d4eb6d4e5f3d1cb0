// Conservative parallel discrete-event execution. The network is partitioned
// into shards (one per authority serving set, see core/system.cpp); each
// shard owns a private Engine whose events only touch that shard's switches,
// links, channels, and stats. Shards advance together through conservative
// time windows:
//
//   tmin  = earliest pending event across every shard + the global queue
//   wend  = min(shard_min + lookahead, next global event)
//   each shard runs its events with when < wend on a worker thread
//   barrier: cross-shard messages are sorted by (when, source shard, send
//   order) and delivered with when clamped to >= wend; then global events
//   (route-invalidating state changes, occupancy samples) with when <= wend
//   run on the coordinator while every worker is parked
//
// The lookahead is the minimum link latency: a packet leaving shard A at
// time t cannot reach shard B before t + lookahead, so executing a window of
// that width cannot miss a causally earlier cross-shard arrival. Cross-shard
// *control* dispatches (an authority handing an install to the ingress
// shard) carry no modeled wire latency of their own, so the clamp to the
// window boundary is where they pay the coordination cost — that is the
// documented threads>1 timing model, and it is deterministic: the same seed
// and shard count replay identically regardless of how worker threads are
// scheduled by the OS.
//
// Determinism contract:
//  * within a shard, the private Engine is the same deterministic FIFO
//    tie-broken heap as the serial engine;
//  * cross-shard delivery order is fixed by the (when, src shard, seq) sort,
//    never by arrival order;
//  * global events run single-threaded on the coordinator between windows;
//  * which worker executes a shard never affects results: an epoch-tagged
//    claim gives each shard to exactly one worker per window (its home
//    worker or an idle thief), and a shard's event stream depends only on
//    engine state, not on the executing thread — so work stealing
//    redistributes wall-clock, never outcomes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "netsim/engine.hpp"

namespace difane::shard {

// Shard index of the code currently executing on this thread, or kNoShard
// when outside shard execution (coordinator, global events, setup code).
// Scenario keys its per-shard stats off this.
inline constexpr std::uint32_t kNoShard = 0xffffffffu;
std::uint32_t current_shard();

class Executor {
 public:
  // `global` is the engine for events that may touch cross-shard state
  // (Scenario hands in the Network's own engine). `threads` worker threads
  // execute `shards` shard engines; shards are homed on workers round-robin
  // — that home assignment is also the deterministic base of the steal
  // order — so threads > shards wastes nothing and shards > threads just
  // runs several shards per worker. Within a window, a worker that exhausts
  // its home shards claims runnable shards homed on other workers, scanning
  // all shards in a fixed rotation from its own index.
  Executor(std::size_t shards, std::size_t threads, SimTime lookahead,
           Engine* global);

  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  Engine& shard_engine(std::size_t s) { return *engines_[s]; }

  // Engine driving the code currently executing on this thread: the shard
  // engine inside shard execution, the global engine otherwise.
  Engine& context_engine();

  // Schedule `fn` on shard `target` at absolute sim time `when`. Same-shard
  // calls go straight into the local engine; cross-shard calls are buffered
  // and delivered at the next window boundary, clamped to the window end.
  void schedule(std::uint32_t target, SimTime when, Engine::Handler fn);

  // Run every engine to quiescence. `post_global` runs on the coordinator
  // after each window whose global phase executed at least one event (the
  // Scenario recomputes routes there, so workers never race the lazy
  // rebuild).
  void run(const std::function<void()>& post_global = {});

  // Latest clock across the shard engines and the global engine — after
  // run() returns, the instant of the run's last event.
  SimTime now() const;

  std::uint64_t cross_messages() const { return cross_messages_; }

  // Runnable shards executed by a worker other than their home worker.
  // Which claims succeed depends on OS scheduling, so this is a host
  // measurement — exposed for tests and wall-style telemetry, never for
  // gated deterministic metrics.
  std::uint64_t shards_stolen() const {
    return shards_stolen_.load(std::memory_order_relaxed);
  }

 private:
  struct Msg {
    SimTime when;
    std::uint32_t target;
    Engine::Handler fn;
  };

  void worker_main(std::size_t worker);
  void run_shard_inline(std::size_t s, SimTime wend);
  void deliver(std::vector<Msg>& msgs, SimTime wend);

  // Claim shard `s` for window `epoch`. Exactly one worker per window wins;
  // the winner is the only thread that may touch the shard's engine until
  // the barrier. The epoch tag makes claims self-resetting across windows.
  bool claim_shard(std::size_t s, std::uint64_t epoch) {
    std::uint64_t prev = claims_[s].load(std::memory_order_relaxed);
    return prev != epoch &&
           claims_[s].compare_exchange_strong(prev, epoch,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed);
  }

  std::vector<std::unique_ptr<Engine>> engines_;
  Engine* global_;
  SimTime lookahead_;

  // One outbox per shard (not per worker): a shard runs on exactly one
  // thread per window, and the coordinator drains the outboxes only after
  // every worker has checked in at the barrier, so the barrier's mutex
  // hand-off publishes them — no per-message synchronization. Cache-line
  // aligned so concurrent pushes from different shards never false-share.
  struct alignas(64) Outbox {
    std::vector<Msg> msgs;
  };
  std::vector<Outbox> outboxes_;

  // Worker pool, parked between windows. `epoch` ticking under the mutex
  // releases the workers; `done` counting back up releases the coordinator.
  // The mutex hand-off is the happens-before edge that publishes engine and
  // outbox state in both directions (TSan-clean by construction).
  std::vector<std::thread> workers_;
  std::vector<std::vector<std::size_t>> worker_shards_;
  std::vector<std::uint32_t> home_worker_;  // shard -> home worker index
  // Per-shard epoch-tagged claim slots (see claim_shard). unique_ptr array
  // because std::atomic is neither copyable nor movable.
  std::unique_ptr<std::atomic<std::uint64_t>[]> claims_;
  std::atomic<std::uint64_t> shards_stolen_{0};
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  std::size_t done_ = 0;
  SimTime wend_ = 0.0;
  bool stop_ = false;

  std::uint64_t cross_messages_ = 0;
};

}  // namespace difane::shard
