#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"

namespace rfdnet::svc {

struct ServiceConfig {
  /// Jobs admitted but not yet dispatched; one more lands a 429.
  std::size_t queue_capacity = 64;
  /// Finished responses retained, LRU. 0 disables caching.
  std::size_t cache_capacity = 128;
  /// Execution pool; nullptr = `core::ParallelRunner::shared()`.
  core::ParallelRunner* runner = nullptr;
};

/// The daemon's transport-independent brain: one `handle_line(request)` call
/// per protocol line, blocking until the response line is ready. Owns the
/// bounded job queue, the content-addressed LRU result cache, single-flight
/// deduplication and the service obs bundle; execution fans out over a
/// shared `core::ParallelRunner`.
///
/// Concurrency model: connection threads call `handle_line` freely. A `run`
/// request resolves, under one mutex, to exactly one of — cached bytes
/// (hit), an existing in-flight job's future (single-flight join), a queue
/// slot (accepted), or a 429/503 rejection. One dispatcher thread drains the
/// queue in arrival batches through `ParallelRunner::for_each`, then
/// publishes results to the cache and fulfills the futures *before* clearing
/// the in-flight entries, so every submission of a canonical request either
/// joins the computation or sees its cached bytes — never computes twice.
///
/// Responses are a pure function of the request: cache/in-flight state is
/// reported only through `status` counters, never in a `run` response, so a
/// resubmission is byte-identical to the original — the same determinism
/// contract the serial-vs-sharded suites enforce, extended to the wire.
class Service {
 public:
  /// `run` overrides how a decoded job executes — tests inject blocking or
  /// counting runners; the default is `svc::run_job`.
  using JobRunner = std::function<std::string(const JobSpec&)>;

  explicit Service(ServiceConfig cfg, JobRunner run = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Processes one protocol line (no trailing newline) and returns the
  /// response line (no trailing newline, and no raw newline inside: a job
  /// whose payload holds one fails with 500). Never throws; malformed input
  /// becomes an `{"ok":false,"error":{...}}` response. Blocks while the
  /// job computes.
  std::string handle_line(const std::string& line);

  /// Stops admitting new jobs (503) and blocks until queued + running jobs
  /// have all finished. Idempotent.
  void drain();

  /// Set once a `shutdown` request arrives; the transport polls it.
  bool shutdown_requested() const;

  /// One human-readable heartbeat line (queue depth, totals) for stderr.
  std::string status_line() const;

  /// Point-in-time counter values, for tests and the status op.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_draining = 0;
    std::size_t queue_depth = 0;
    std::size_t running = 0;
    std::size_t cached = 0;
  };
  Stats stats() const;

 private:
  /// One admitted canonical request: the spec, a shared result slot and the
  /// future every joiner waits on. Lives in `inflight_` from admission until
  /// after its result is published.
  struct Flight {
    JobSpec spec;
    std::promise<std::shared_ptr<const std::string>> promise;
    std::shared_future<std::shared_ptr<const std::string>> future;
  };

  std::string handle_run(const Json& request);
  void dispatcher_loop();

  ServiceConfig cfg_;
  JobRunner run_;
  core::ParallelRunner* runner_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // dispatcher: queue non-empty or stop
  std::condition_variable drained_cv_;  // drain(): queue empty and idle
  std::deque<std::shared_ptr<Flight>> queue_;
  std::map<std::string, std::shared_ptr<Flight>> inflight_;  // by canonical
  LruCache cache_;
  std::size_t running_ = 0;
  bool draining_ = false;
  bool stop_ = false;
  bool shutdown_requested_ = false;

  obs::Registry registry_;
  obs::SvcMetrics metrics_;

  std::thread dispatcher_;
};

/// Formats a protocol error line: `{"ok":false,"error":{"code":...,
/// "message":"..."}}`. Codes follow HTTP idiom: 400 malformed request,
/// 429 queue full, 500 job failed, 503 draining.
std::string error_response(int code, const std::string& message);

}  // namespace rfdnet::svc
