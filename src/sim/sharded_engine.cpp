#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

namespace rfdnet::sim {

ShardedEngine::ShardedEngine(int shards) {
  if (shards < 1) {
    throw std::invalid_argument("ShardedEngine: shards must be >= 1");
  }
  engines_.reserve(static_cast<std::size_t>(shards));
  inboxes_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    engines_.push_back(std::make_unique<Engine>());
    engines_.back()->set_auto_keys(true);
    inboxes_.push_back(std::make_unique<Inbox>());
  }
}

void ShardedEngine::post(int dest, SimTime t, std::uint64_t key,
                         std::uint32_t ctx, std::function<void()> fn,
                         EventKind kind) {
  Inbox& box = *inboxes_.at(static_cast<std::size_t>(dest));
  {
    const std::lock_guard<std::mutex> lk(box.mu);
    box.msgs.push_back(Msg{t, key, ctx, kind, std::move(fn)});
  }
  cross_posted_.fetch_add(1, std::memory_order_relaxed);
}

SimTime ShardedEngine::local_next(int s) const {
  // next_time() compacts stale heap tops, which is why engines_ holds
  // non-const pointers even from this logically-const query.
  SimTime t = engines_[static_cast<std::size_t>(s)]->next_time().value_or(
      SimTime::max());
  const Inbox& box = *inboxes_[static_cast<std::size_t>(s)];
  const std::lock_guard<std::mutex> lk(box.mu);
  for (const Msg& m : box.msgs) t = std::min(t, m.t);
  return t;
}

void ShardedEngine::admit(int s, SimTime end) {
  Inbox& box = *inboxes_[static_cast<std::size_t>(s)];
  std::vector<Msg> ready;
  {
    const std::lock_guard<std::mutex> lk(box.mu);
    std::vector<Msg>& v = box.msgs;
    std::size_t kept = 0;
    for (Msg& m : v) {
      if (m.t < end) {
        ready.push_back(std::move(m));
      } else {
        v[kept++] = std::move(m);
      }
    }
    v.resize(kept);
  }
  Engine& e = *engines_[static_cast<std::size_t>(s)];
  for (Msg& m : ready) {
    // The conservative window guarantees admitted messages lie at or after
    // the shard's clock; a violation means the lookahead bound was wrong
    // (e.g. a cross-shard link faster than the configured lookahead) and
    // executing it would time-travel. Fail loudly instead.
    if (m.t < e.now()) {
      throw std::logic_error(
          "ShardedEngine: cross-shard message admitted into the past "
          "(lookahead window violated)");
    }
    e.schedule_keyed(m.t, m.key, std::move(m.fn), m.kind, m.ctx);
  }
  cross_admitted_.fetch_add(ready.size(), std::memory_order_relaxed);
}

void ShardedEngine::set_sampling(SimTime first, Duration period,
                                 std::function<void(int, SimTime)> fn) {
  if (period <= Duration::zero()) {
    throw std::logic_error("ShardedEngine: sampling period must be positive");
  }
  sample_fn_ = std::move(fn);
  sample_period_ = period;
  sample_cursor_.assign(engines_.size(), first);
}

void ShardedEngine::clear_sampling() {
  sample_fn_ = nullptr;
  sample_period_ = Duration::zero();
  sample_cursor_.clear();
}

std::uint64_t ShardedEngine::executed_so_far() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->executed();
  return n;
}

SimTime ShardedEngine::now() const {
  SimTime t = SimTime::zero();
  for (const auto& e : engines_) t = std::max(t, e->now());
  return t;
}

std::size_t ShardedEngine::pending() const {
  std::size_t n = 0;
  for (const auto& e : engines_) n += e->pending();
  for (const auto& box : inboxes_) {
    const std::lock_guard<std::mutex> lk(box->mu);
    n += box->msgs.size();
  }
  return n;
}

std::uint64_t ShardedEngine::run(SimTime horizon) {
  const int k = shards();
  const std::uint64_t executed_before =
      executed_.load(std::memory_order_relaxed);

  if (k == 1) {
    // Serial fallback: no threads, no barrier — just the engine, plus an
    // admit loop in case anything was posted to the lone shard.
    Engine& e = *engines_[0];
    if (heartbeat_) e.set_heartbeat(heartbeat_);
    const SimTime end = horizon == SimTime::max()
                            ? SimTime::max()
                            : horizon + Duration::micros(1);
    for (;;) {
      const std::uint64_t admitted_before =
          cross_admitted_.load(std::memory_order_relaxed);
      admit(0, end);
      const bool admitted_any =
          cross_admitted_.load(std::memory_order_relaxed) != admitted_before;
      // With sampling on, the engine emits at the persistent cursor's grid
      // instants — the cursor survives the admit loop's iterations so each
      // instant is sampled exactly once.
      const std::uint64_t ran =
          sample_fn_ ? e.run_sampled(horizon, sample_cursor_[0],
                                     sample_period_,
                                     [this](SimTime t) {
                                       sample_fn_(0, t);
                                       sample_cursor_[0] = t + sample_period_;
                                     })
                     : e.run(horizon);
      executed_.fetch_add(ran, std::memory_order_relaxed);
      if (!admitted_any && ran == 0) break;
    }
    if (heartbeat_) e.set_heartbeat(nullptr);
    stats_.cross_posted = cross_posted_.load(std::memory_order_relaxed);
    stats_.cross_admitted = cross_admitted_.load(std::memory_order_relaxed);
    stats_.executed = executed_.load(std::memory_order_relaxed);
    return stats_.executed - executed_before;
  }

  if (lookahead_ <= Duration::zero()) {
    throw std::logic_error(
        "ShardedEngine: lookahead must be > 0 for a multi-shard run");
  }

  // Shared round state. Written only inside the barrier completion (which
  // runs exclusively, between phases); read by workers strictly after the
  // barrier wait that follows the write — the barrier provides the
  // happens-before edge, so no further synchronization is needed.
  struct Round {
    std::vector<SimTime> local_next;
    SimTime window_end = SimTime::zero();
    bool done = false;
    int phase = 0;
  };
  Round round;
  round.local_next.assign(static_cast<std::size_t>(k), SimTime::max());

  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;

  const SimTime cap = horizon == SimTime::max()
                          ? SimTime::max()
                          : horizon + Duration::micros(1);
  const Duration lookahead = lookahead_;

  auto completion = [this, &round, &failed, horizon, cap,
                     lookahead]() noexcept {
    if (round.phase == 1) {
      round.phase = 0;  // round closed; next arrival set recomputes the window
      return;
    }
    round.phase = 1;
    if (failed.load(std::memory_order_relaxed)) {
      round.done = true;
      return;
    }
    SimTime t = SimTime::max();
    for (const SimTime lt : round.local_next) t = std::min(t, lt);
    if (t == SimTime::max() || t > horizon) {
      round.done = true;
      return;
    }
    // Conservative window: anything sent during [t, t + lookahead) arrives
    // at or after t + lookahead, so the window is safe to run unheard.
    SimTime end = t > SimTime::max() - lookahead ? SimTime::max()
                                                 : t + lookahead;
    round.window_end = std::min(end, cap);
    ++stats_.rounds;
    // Heartbeat from the exclusive completion step: the barrier gives this
    // thread a happens-before edge over every shard's round work, so the
    // hook may read engine clocks and counters without extra locking. The
    // hook rate-limits itself and must not throw (this lambda is noexcept).
    if (heartbeat_) heartbeat_();
  };
  std::barrier bar(k, completion);

  auto body = [&](int s) {
    std::uint64_t ran_total = 0;
    std::uint64_t close_ns = 0;
    std::uint64_t busy_ns = 0;
    const auto elapsed = [](std::chrono::steady_clock::time_point t0) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    };
    try {
      Engine& e = *engines_[static_cast<std::size_t>(s)];
      for (;;) {
        round.local_next[static_cast<std::size_t>(s)] = local_next(s);
        const auto w0 = std::chrono::steady_clock::now();
        bar.arrive_and_wait();  // completion computes window_end / done
        {
          // Folded per round (not at thread exit) so the heartbeat hook can
          // report live barrier waits; one relaxed add per round is noise
          // next to the barrier itself.
          barrier_wait_ns_.fetch_add(elapsed(w0), std::memory_order_relaxed);
        }
        if (round.done) break;
        const auto b0 = std::chrono::steady_clock::now();
        admit(s, round.window_end);
        if (sample_fn_) {
          // Every inbox message below window_end is admitted and nothing
          // later can arrive inside the window, so running to the grid
          // instant (inclusive: run_before(t + 1us)) yields the exact
          // post-state at t for this shard.
          SimTime& cursor = sample_cursor_[static_cast<std::size_t>(s)];
          while (cursor < round.window_end) {
            ran_total += e.run_before(cursor + Duration::micros(1));
            sample_fn_(s, cursor);
            cursor = cursor + sample_period_;
          }
        }
        ran_total += e.run_before(round.window_end);
        busy_ns += elapsed(b0);
        const auto c0 = std::chrono::steady_clock::now();
        bar.arrive_and_wait();  // all sends of this round are now posted
        close_ns += elapsed(c0);
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lk(error_mu);
        if (!error) error = std::current_exception();
      }
      failed.store(true, std::memory_order_relaxed);
      // Arrive once more and leave the barrier's expected set, so peers
      // mid-round are released and the next completion sees the failure.
      bar.arrive_and_drop();
    }
    executed_.fetch_add(ran_total, std::memory_order_relaxed);
    // wait_ns already reached barrier_wait_ns_ round by round (see above).
    close_wait_ns_.fetch_add(close_ns, std::memory_order_relaxed);
    busy_ns_.fetch_add(busy_ns, std::memory_order_relaxed);
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(k - 1));
  for (int s = 1; s < k; ++s) workers.emplace_back(body, s);
  body(0);
  for (std::thread& w : workers) w.join();
  if (error) std::rethrow_exception(error);

  stats_.cross_posted = cross_posted_.load(std::memory_order_relaxed);
  stats_.cross_admitted = cross_admitted_.load(std::memory_order_relaxed);
  stats_.barrier_wait_ns = barrier_wait_ns_.load(std::memory_order_relaxed);
  stats_.close_wait_ns = close_wait_ns_.load(std::memory_order_relaxed);
  stats_.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  stats_.executed = executed_.load(std::memory_order_relaxed);
  return stats_.executed - executed_before;
}

}  // namespace rfdnet::sim
