#include "engine/sharded.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace difane::shard {

namespace {

struct Ctx {
  Engine* engine = nullptr;
  std::uint32_t shard = kNoShard;
};

thread_local Ctx t_ctx;

}  // namespace

std::uint32_t current_shard() { return t_ctx.shard; }

Executor::Executor(std::size_t shards, std::size_t threads, SimTime lookahead,
                   Engine* global)
    : global_(global), lookahead_(lookahead), outboxes_(shards) {
  expects(shards >= 1, "Executor: need at least one shard");
  expects(lookahead > 0.0,
          "Executor: conservative windows need a positive lookahead "
          "(minimum link latency)");
  expects(global != nullptr, "Executor: need a global engine");
  engines_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    engines_.push_back(std::make_unique<Engine>());
  }
  const std::size_t workers = std::min(threads, shards);
  if (workers >= 2) {
    worker_shards_.resize(workers);
    home_worker_.resize(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      worker_shards_[s % workers].push_back(s);
      home_worker_[s] = static_cast<std::uint32_t>(s % workers);
    }
    claims_ = std::make_unique<std::atomic<std::uint64_t>[]>(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      claims_[s].store(0, std::memory_order_relaxed);
    }
    workers_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      workers_.emplace_back([this, w]() { worker_main(w); });
    }
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

Engine& Executor::context_engine() {
  return t_ctx.engine != nullptr ? *t_ctx.engine : *global_;
}

void Executor::schedule(std::uint32_t target, SimTime when, Engine::Handler fn) {
  expects(target < engines_.size(), "Executor::schedule: bad shard");
  if (t_ctx.shard != kNoShard) {
    if (t_ctx.shard == target) {
      engines_[target]->at(when, std::move(fn));
      return;
    }
    outboxes_[t_ctx.shard].msgs.push_back(Msg{when, target, std::move(fn)});
    return;
  }
  // Coordinator / setup context: workers are parked, direct insert is safe
  // and keeps the deterministic order of the caller.
  Engine& e = *engines_[target];
  e.at(std::max(when, e.now()), std::move(fn));
}

void Executor::run_shard_inline(std::size_t s, SimTime wend) {
  t_ctx = Ctx{engines_[s].get(), static_cast<std::uint32_t>(s)};
  engines_[s]->run_before(wend);
  t_ctx = Ctx{};
}

void Executor::worker_main(std::size_t worker) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    SimTime wend;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&]() { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      wend = wend_;
    }
    // Home pass. The claim comes before the peek: once another worker owns
    // a shard this window, even reading its engine would race the owner's
    // execution. A claimed-but-idle shard costs one peek and moves on.
    for (const std::size_t s : worker_shards_[worker]) {
      if (claim_shard(s, seen_epoch) && engines_[s]->peek_time() < wend) {
        run_shard_inline(s, wend);
      }
    }
    // Steal pass: scan every foreign shard in a fixed rotation from this
    // worker's index. The scan order is a pure function of (worker, shard
    // count) — deterministic — while which claims succeed depends on how
    // far the other workers got; either way each shard executes exactly
    // once per window, so results are identical and only wall-time moves.
    const std::size_t n = engines_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = (worker + 1 + i) % n;
      if (home_worker_[s] == worker) continue;
      if (claim_shard(s, seen_epoch) && engines_[s]->peek_time() < wend) {
        shards_stolen_.fetch_add(1, std::memory_order_relaxed);
        run_shard_inline(s, wend);
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++done_;
    }
    cv_done_.notify_one();
  }
}

void Executor::deliver(std::vector<Msg>& msgs, SimTime wend) {
  // Deterministic cross-shard order: (when, source shard, send order). The
  // collection loop walks outboxes in shard order preserving per-shard FIFO,
  // so a stable sort on `when` alone realizes exactly that key.
  std::stable_sort(msgs.begin(), msgs.end(),
                   [](const Msg& a, const Msg& b) { return a.when < b.when; });
  cross_messages_ += msgs.size();
  for (auto& m : msgs) {
    // Clamp to the window boundary: nothing may land inside the window that
    // just executed. Packet hops pay >= lookahead and are never clamped;
    // latency-free control dispatches pay the boundary here.
    Engine& e = *engines_[m.target];
    e.at(std::max({m.when, wend, e.now()}), std::move(m.fn));
  }
  msgs.clear();
}

void Executor::run(const std::function<void()>& post_global) {
  std::vector<Msg> msgs;
  for (;;) {
    SimTime shard_min = Engine::kNoEvent;
    for (const auto& e : engines_) shard_min = std::min(shard_min, e->peek_time());
    const SimTime global_min = global_->peek_time();
    const SimTime tmin = std::min(shard_min, global_min);
    if (tmin >= Engine::kNoEvent) break;
    // Global events mutate cross-shard state (scheduled authority failures),
    // so the window never crosses the next one; they run at the barrier below, and
    // shard events at the same timestamp run in the *next* window — i.e.
    // global state changes at time T are visible to every shard event at T.
    const SimTime wend = std::min(shard_min + lookahead_, global_min);

    std::size_t runnable = 0;
    for (const auto& e : engines_) runnable += e->peek_time() < wend ? 1 : 0;
    if (runnable > 1 && !workers_.empty()) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        wend_ = wend;
        done_ = 0;
        ++epoch_;
      }
      cv_work_.notify_all();
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&]() { return done_ == workers_.size(); });
    } else if (runnable > 0) {
      // A lone runnable shard (common in sparse phases) skips the worker
      // round-trip; execution is identical, just on the coordinator thread.
      for (std::size_t s = 0; s < engines_.size(); ++s) {
        if (engines_[s]->peek_time() < wend) run_shard_inline(s, wend);
      }
    }

    // Drain in shard order, preserving each shard's FIFO send order — the
    // stable sort in deliver() then realizes the deterministic (when, src
    // shard, seq) key.
    for (auto& ob : outboxes_) {
      for (auto& m : ob.msgs) msgs.push_back(std::move(m));
      ob.msgs.clear();
    }
    deliver(msgs, wend);

    std::uint64_t global_events = 0;
    if (global_->peek_time() <= wend) global_events = global_->run(wend);
    if (global_events > 0 && post_global) post_global();
  }
}

SimTime Executor::now() const {
  SimTime t = global_->now();
  for (const auto& e : engines_) t = std::max(t, e->now());
  return t;
}

}  // namespace difane::shard
