#pragma once

#include <atomic>
#include <cstddef>
#include <list>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "svc/service.hpp"

namespace rfdnet::svc {

struct DaemonConfig {
  /// AF_UNIX socket path. Created on `start()` (existing file unlinked),
  /// unlinked again on stop. Capped by the platform's sun_path limit.
  std::string socket_path;
  /// listen(2) backlog.
  int backlog = 64;
  /// > 0 prints the service status line to stderr roughly this often
  /// (wall-clock) while serving. Volatile, never part of any artifact.
  double heartbeat_s = 0.0;
};

/// AF_UNIX transport around a `Service`: accepts connections, reads
/// newline-delimited JSON requests, writes one response line per request.
/// One thread per connection (the daemon's concurrency ceiling is the job
/// queue, not the connection count); each accept joins the threads whose
/// connection has closed, so finished connections keep no stack mapped.
///
/// Lifecycle: `start()` binds + listens; `serve()` blocks in a poll loop
/// until `request_stop()` (async-signal-safe — the SIGINT/SIGTERM handlers
/// call it) or a protocol `shutdown` request. Stopping closes the listener
/// first (new connects fail fast), drains the service (in-flight jobs
/// finish, their responses still go out), then shuts the remaining
/// connections' read side down and joins. `serve()` returns 0 on a clean
/// drain — the exit code contract the smoke test asserts.
class Daemon {
 public:
  Daemon(DaemonConfig cfg, Service& svc);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds and listens. False (with `error` filled) on failure.
  bool start(std::string* error);

  /// Accept loop; blocks until stopped. Returns the process exit code.
  int serve();

  /// Requests the serve loop to stop. Async-signal-safe (one write(2) to a
  /// self-pipe); callable from any thread or signal handler, idempotent.
  void request_stop();

 private:
  void handle_connection(int fd);
  void close_listener();

  DaemonConfig cfg_;
  Service& svc_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};

  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};  ///< set once the handler has returned
  };

  std::mutex conn_mu_;
  std::set<int> conn_fds_;
  /// Touched only by the serve loop (and the destructor); a list, so the
  /// `done` flag a running handler sets never moves.
  std::list<Connection> conns_;
};

}  // namespace rfdnet::svc
