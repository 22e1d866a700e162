#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace rfdnet::sim {

/// `k` cooperating `Engine`s advancing in conservative, barrier-synchronized
/// time windows (the classic CMB-style synchronous protocol; see DESIGN.md).
///
/// Each shard owns one `Engine` and the events of its nodes. Cross-shard
/// interactions travel as time-stamped messages (`post`) into the
/// destination shard's inbox and are *admitted* — scheduled into the
/// destination engine — only at round boundaries, inside the conservative
/// window:
///
///   T          = min over shards of (next event time, pending inbox times)
///   window_end = T + lookahead
///
/// where `lookahead` is a lower bound on the latency of any cross-shard
/// message (min cut-link propagation delay, plus any mandatory processing
/// delay). A message sent while executing the window [T, window_end) is
/// stamped >= T + lookahead = window_end, so nothing can arrive inside the
/// window being executed: every shard can safely run to `window_end`
/// without hearing from the others. Shards meet at a `std::barrier` between
/// rounds; with one shard the loop degenerates to `Engine::run` (serial
/// fallback, no threads, no barrier).
///
/// Determinism: all engines run with `set_auto_keys(true)`, so equal-time
/// events order by logical key rather than scheduling order — arrival order
/// of inbox messages (which is thread-racy) does not affect execution
/// order. Callers give cross-shard messages keys that are a function of the
/// simulated system (e.g. wire id + per-wire sequence number), making the
/// executed event sequence of every shard identical for every shard count.
class ShardedEngine {
 public:
  /// Run statistics. Everything except `barrier_wait_ns` is a deterministic
  /// function of (workload, shard count); `barrier_wait_ns` is wall time and
  /// must never reach a deterministic artifact.
  struct Stats {
    std::uint64_t rounds = 0;           ///< conservative windows executed
    std::uint64_t cross_posted = 0;     ///< messages put into shard inboxes
    std::uint64_t cross_admitted = 0;   ///< messages admitted into engines
    std::uint64_t executed = 0;         ///< events executed across all shards
    std::uint64_t barrier_wait_ns = 0;  ///< wall time at the window barrier
    std::uint64_t close_wait_ns = 0;    ///< wall time at the round-close barrier
    std::uint64_t busy_ns = 0;          ///< wall time in admit + window work
  };

  /// `shards >= 1`; each shard engine is created with auto keys enabled.
  explicit ShardedEngine(int shards);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int shards() const { return static_cast<int>(engines_.size()); }
  Engine& shard(int s) { return *engines_.at(static_cast<std::size_t>(s)); }
  const Engine& shard(int s) const {
    return *engines_.at(static_cast<std::size_t>(s));
  }

  /// Conservative lookahead: a lower bound on the delivery latency of every
  /// cross-shard message. Must be > 0 before a multi-shard `run` (a zero
  /// lookahead would admit nothing and livelock); `run` throws otherwise.
  void set_lookahead(Duration d) { lookahead_ = d; }
  Duration lookahead() const { return lookahead_; }

  /// Barrier-aligned sim-time sampling: during `run`, each shard invokes
  /// `fn(s, t)` at every grid instant `t = first + k * period` it reaches,
  /// after every event of shard `s` at or before `t` has executed and
  /// before any later event of the shard runs. The conservative window
  /// guarantees the shard cannot hear anything stamped inside the window it
  /// is executing, so the per-shard snapshot at `t` is exact; per-shard
  /// series over the same grid merge by addition into the global series
  /// (`obs::TelemetrySampler::merge`). Windows advance monotonically and
  /// identically for every shard count, so the emitted grid — after
  /// truncation at the globally-last event — is shard-count-invariant.
  /// `fn` runs on the shard's thread; distinct shards must write to
  /// distinct samplers. Cursors persist across `run` calls; `period` must
  /// be positive.
  void set_sampling(SimTime first, Duration period,
                    std::function<void(int, SimTime)> fn);
  void clear_sampling();

  /// Wall-clock heartbeat hook, invoked from the (exclusive) barrier
  /// completion step once per round while a multi-shard `run` is in flight,
  /// and polled by the lone engine in the serial fallback. The hook may
  /// read `now()`, `executed_so_far()`, `rounds_so_far()` and
  /// `barrier_wait_ns_so_far()`; it must not throw (the completion step is
  /// noexcept). Volatile output only — never part of a deterministic
  /// artifact.
  void set_heartbeat(std::function<void()> h) { heartbeat_ = std::move(h); }

  /// Live progress figures for the heartbeat hook (safe only from the hook
  /// itself or while no `run` is in flight).
  std::uint64_t rounds_so_far() const { return stats_.rounds; }
  std::uint64_t executed_so_far() const;
  std::uint64_t barrier_wait_ns_so_far() const {
    return barrier_wait_ns_.load(std::memory_order_relaxed);
  }

  /// Thread-safe: enqueues `fn` for shard `dest` at absolute time `t` with
  /// logical key `key` and auto-key context `ctx`. The message is admitted
  /// into the shard's engine at the next round boundary whose window covers
  /// `t`. Admitting a message before the destination clock (a lookahead
  /// violation — `t < shard(dest).now()` at admission) is a hard error:
  /// `run` throws `std::logic_error` rather than time-traveling.
  void post(int dest, SimTime t, std::uint64_t key, std::uint32_t ctx,
            std::function<void()> fn, EventKind kind = EventKind::kDelivery);

  /// Runs all shards until every queue and inbox is empty or the next global
  /// event lies beyond `horizon` (events at exactly `horizon` still run,
  /// matching `Engine::run`). Spawns `shards() - 1` worker threads per call
  /// (shard 0 runs on the caller); serial fallback with one shard. Returns
  /// the number of events executed by this call.
  std::uint64_t run(SimTime horizon = SimTime::max());

  /// Latest shard clock (the global clock after `run` returns).
  SimTime now() const;
  /// Live events across all shards plus unadmitted inbox messages. Call only
  /// while no `run` is in flight.
  std::size_t pending() const;

  const Stats& stats() const { return stats_; }

 private:
  struct Msg {
    SimTime t;
    std::uint64_t key;
    std::uint32_t ctx;
    EventKind kind;
    std::function<void()> fn;
  };
  struct Inbox {
    mutable std::mutex mu;
    std::vector<Msg> msgs;
  };

  /// Earliest relevant time for shard `s`: its engine's next event or its
  /// earliest inbox message, whichever is sooner (SimTime::max if neither).
  SimTime local_next(int s) const;
  /// Admits every inbox message with t < `end` into shard `s`'s engine.
  void admit(int s, SimTime end);

  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  Duration lookahead_ = Duration::zero();
  std::function<void(int, SimTime)> sample_fn_;
  Duration sample_period_ = Duration::zero();
  std::vector<SimTime> sample_cursor_;  ///< next unsampled grid instant
  std::function<void()> heartbeat_;
  Stats stats_;
  std::atomic<std::uint64_t> cross_posted_{0};
  std::atomic<std::uint64_t> cross_admitted_{0};
  std::atomic<std::uint64_t> barrier_wait_ns_{0};
  std::atomic<std::uint64_t> close_wait_ns_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> executed_{0};
};

}  // namespace rfdnet::sim
