#include "svc/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/telemetry.hpp"

namespace rfdnet::svc {

namespace {

/// Requests are capped well below any legitimate job description; a line
/// that keeps growing past this is a protocol violation, not a big job.
constexpr std::size_t kMaxLine = 4u << 20;  // 4 MiB

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a client that hung up becomes an EPIPE error on this
    // connection's thread, not a process-wide SIGPIPE.
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Daemon::Daemon(DaemonConfig cfg, Service& svc)
    : cfg_(std::move(cfg)), svc_(svc) {}

Daemon::~Daemon() {
  close_listener();
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
  for (Connection& c : conns_) {
    if (c.thread.joinable()) c.thread.join();
  }
}

bool Daemon::start(std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.socket_path.empty() ||
      cfg_.socket_path.size() >= sizeof addr.sun_path) {
    if (error) {
      *error = "socket path must be 1.." +
               std::to_string(sizeof addr.sun_path - 1) + " bytes: '" +
               cfg_.socket_path + "'";
    }
    return false;
  }
  std::memcpy(addr.sun_path, cfg_.socket_path.c_str(),
              cfg_.socket_path.size() + 1);

  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    if (error) *error = std::string("pipe2: ") + std::strerror(errno);
    return false;
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // A stale socket file from a crashed predecessor would make bind fail;
  // this daemon's own stop path unlinks, so anything here is leftover.
  ::unlink(cfg_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (error) {
      *error = "bind(" + cfg_.socket_path + "): " + std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, cfg_.backlog) != 0) {
    if (error) *error = std::string("listen: ") + std::strerror(errno);
    close_listener();
    return false;
  }
  return true;
}

void Daemon::request_stop() {
  if (stop_pipe_[1] >= 0) {
    const char byte = 1;
    // Best-effort, async-signal-safe; a full pipe already means a stop is
    // pending.
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void Daemon::close_listener() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(cfg_.socket_path.c_str());
  }
}

int Daemon::serve() {
  obs::Heartbeat heartbeat(cfg_.heartbeat_s > 0 ? cfg_.heartbeat_s : 1e9);
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    // A finite timeout so the shutdown-request flag (set by a protocol
    // message on a connection thread) and the heartbeat get polled even on
    // an idle socket.
    const int rc = ::poll(fds, 2, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "rfdnetd: poll: %s\n", std::strerror(errno));
      break;
    }
    if (cfg_.heartbeat_s > 0 && heartbeat.due()) {
      std::fprintf(stderr, "%s\n", svc_.status_line().c_str());
    }
    if ((fds[1].revents & POLLIN) != 0 || svc_.shutdown_requested()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      std::fprintf(stderr, "rfdnetd: accept: %s\n", std::strerror(errno));
      break;
    }
    // Reap the connections that have closed since the last accept.
    conns_.remove_if([](Connection& c) {
      if (!c.done.load()) return false;
      c.thread.join();
      return true;
    });
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      conn_fds_.insert(conn);
    }
    Connection& c = conns_.emplace_back();
    c.thread = std::thread([this, conn, &c] {
      handle_connection(conn);
      c.done.store(true);
    });
  }

  // Stop sequence: refuse new connections, let admitted work finish (the
  // service rejects new submissions with 503 while draining), then unblock
  // any reader still parked in recv. SHUT_RD only — a response for a job
  // that finished during the drain must still reach its client.
  close_listener();
  svc_.drain();
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  for (Connection& c : conns_) {
    if (c.thread.joinable()) c.thread.join();
  }
  conns_.clear();
  std::fprintf(stderr, "rfdnetd: drained; %s\n", svc_.status_line().c_str());
  return 0;
}

void Daemon::handle_connection(int fd) {
  std::string buffer;
  // Bytes of `buffer` already searched for a newline. Each recv then scans
  // only what it appended, so a line near the cap costs one pass over its
  // bytes rather than one pass per 4 KiB chunk.
  std::size_t scanned = 0;
  char chunk[4096];
  for (;;) {
    const std::size_t newline = buffer.find('\n', scanned);
    if (newline != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      scanned = 0;
      if (line.empty()) continue;  // blank lines are keep-alive no-ops
      const std::string response = svc_.handle_line(line) + "\n";
      if (!send_all(fd, response)) break;
      continue;
    }
    scanned = buffer.size();
    if (buffer.size() > kMaxLine) {
      send_all(fd, error_response(400, "request line exceeds 4 MiB") + "\n");
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, error, or SHUT_RD during stop
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  // Deregister before closing: the stop path must never shutdown(2) a
  // descriptor number the kernel may have already recycled.
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    conn_fds_.erase(fd);
  }
  ::close(fd);
}

}  // namespace rfdnet::svc
