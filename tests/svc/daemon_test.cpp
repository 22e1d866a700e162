// End-to-end daemon tests over a real AF_UNIX socket: serve() runs on a
// background thread, clients connect through svc::Client, and the suite
// asserts the acceptance contract — >= 8 concurrent jobs, byte-identical
// cache hits, single-flight, drain-on-stop with exit code 0.

#include "svc/daemon.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"

namespace rfdnet::svc {
namespace {

using namespace std::chrono_literals;

/// Unique, short socket path per test (sun_path is ~108 bytes, so /tmp, not
/// the build tree; pid + counter so parallel ctest runs don't collide).
std::string test_socket_path() {
  static std::atomic<int> counter{0};
  char buf[96];
  std::snprintf(buf, sizeof buf, "/tmp/rfdnetd-test-%d-%d.sock",
                static_cast<int>(::getpid()), counter.fetch_add(1));
  return buf;
}

std::string run_request(int seed, const char* extra = "") {
  return "{\"op\":\"run\",\"job\":{\"topology\":{\"kind\":\"mesh\","
         "\"width\":3,\"height\":3},\"pulses\":1,\"seed\":" +
         std::to_string(seed) + std::string(extra) +
         ",\"outputs\":[\"result\"]}}";
}

/// Daemon + service + serve() thread with RAII teardown.
struct TestDaemon {
  explicit TestDaemon(ServiceConfig svc_cfg = {},
                      Service::JobRunner runner = {})
      : service(svc_cfg, std::move(runner)) {
    cfg.socket_path = test_socket_path();
    daemon = std::make_unique<Daemon>(cfg, service);
    std::string error;
    started = daemon->start(&error);
    EXPECT_TRUE(started) << error;
    if (started) {
      serve_thread = std::thread([this] { exit_code = daemon->serve(); });
    }
  }

  ~TestDaemon() { stop(); }

  void stop() {
    if (serve_thread.joinable()) {
      daemon->request_stop();
      serve_thread.join();
    }
  }

  Client connect() {
    Client c;
    std::string error;
    EXPECT_TRUE(c.connect(cfg.socket_path, &error)) << error;
    return c;
  }

  DaemonConfig cfg;
  Service service;
  std::unique_ptr<Daemon> daemon;
  bool started = false;
  std::thread serve_thread;
  int exit_code = -1;
};

/// Raw AF_UNIX connection for tests that control how request bytes are
/// split into writes (svc::Client always sends whole lines).
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof addr) == 0;
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  bool connected() const { return connected_; }

  bool write(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// The next response line (newline stripped), or nullopt once the daemon
  /// has closed the connection.
  std::optional<std::string> read_line() {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::string roundtrip(Client& c, const std::string& req) {
  std::string resp, error;
  EXPECT_TRUE(c.request(req, &resp, &error)) << error;
  return resp;
}

TEST(SvcDaemon, PingAndRepeatedRequestsOnOneConnection) {
  TestDaemon d;
  ASSERT_TRUE(d.started);
  Client c = d.connect();
  EXPECT_EQ(roundtrip(c, "{\"op\":\"ping\"}"), "{\"ok\":true,\"pong\":true}");
  EXPECT_EQ(roundtrip(c, "{\"op\":\"ping\"}"), "{\"ok\":true,\"pong\":true}");
  const std::string status = roundtrip(c, "{\"op\":\"status\"}");
  EXPECT_NE(status.find("\"jobs_accepted\":0"), std::string::npos) << status;
}

TEST(SvcDaemon, CachedResubmissionIsByteIdentical) {
  TestDaemon d;
  ASSERT_TRUE(d.started);
  Client c1 = d.connect();
  const std::string r1 = roundtrip(c1, run_request(7));
  EXPECT_NE(r1.find("\"ok\":true"), std::string::npos) << r1;
  // Resubmit from a *different* connection: same bytes, no recompute.
  Client c2 = d.connect();
  EXPECT_EQ(roundtrip(c2, run_request(7)), r1);
  EXPECT_EQ(d.service.stats().cache_hits, 1u);
  EXPECT_EQ(d.service.stats().accepted, 1u);
}

TEST(SvcDaemon, ServesEightConcurrentJobsAndCoalescesTwins) {
  // 16 concurrent clients: 8 distinct jobs + 8 duplicates of the first.
  // Every duplicate must come back byte-identical to its twin, computed
  // once (single-flight or cache, depending on arrival timing).
  std::atomic<int> computed{0};
  TestDaemon d({}, [&](const JobSpec& spec) {
    computed.fetch_add(1);
    std::this_thread::sleep_for(20ms);  // hold jobs open so clients overlap
    return std::string("{\"job\":\"") + spec.key_hex() + "\"}";
  });
  ASSERT_TRUE(d.started);

  constexpr int kDistinct = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> unique_resp(kDistinct), twin_resp(kDistinct);
  for (int i = 0; i < kDistinct; ++i) {
    threads.emplace_back([&, i] {
      Client c = d.connect();
      unique_resp[static_cast<std::size_t>(i)] =
          roundtrip(c, run_request(100 + i));
    });
    threads.emplace_back([&, i] {
      Client c = d.connect();
      twin_resp[static_cast<std::size_t>(i)] = roundtrip(c, run_request(100));
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kDistinct; ++i) {
    EXPECT_NE(unique_resp[static_cast<std::size_t>(i)].find("\"ok\":true"),
              std::string::npos);
    // Twins all match the seed-100 original byte for byte.
    EXPECT_EQ(twin_resp[static_cast<std::size_t>(i)], unique_resp[0]);
  }
  // 8 distinct canonical requests -> exactly 8 computations; the 8 twins
  // were all hits or joins.
  EXPECT_EQ(computed.load(), kDistinct);
  const Service::Stats s = d.service.stats();
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kDistinct));
  EXPECT_EQ(s.cache_hits + s.coalesced, static_cast<std::uint64_t>(kDistinct));
}

TEST(SvcDaemon, StopDrainsInflightAndExitsZero) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  TestDaemon d({}, [&](const JobSpec&) {
    opened.wait();
    return std::string("{\"drained\":true}");
  });
  ASSERT_TRUE(d.started);

  std::string response;
  std::thread client([&] {
    Client c = d.connect();
    response = roundtrip(c, run_request(1));
  });
  while (d.service.stats().running == 0) std::this_thread::sleep_for(2ms);

  // Stop with a job in flight; release the gate while the daemon drains.
  std::thread releaser([&] {
    std::this_thread::sleep_for(50ms);
    gate.set_value();
  });
  d.stop();

  EXPECT_EQ(d.exit_code, 0);
  client.join();
  releaser.join();
  // The in-flight job's response still reached its client post-drain.
  EXPECT_NE(response.find("\"drained\":true"), std::string::npos) << response;
  EXPECT_EQ(d.service.stats().completed, 1u);
  // The socket file is gone; new connections fail.
  Client late;
  std::string error;
  EXPECT_FALSE(late.connect(d.cfg.socket_path, &error));
}

TEST(SvcDaemon, ShutdownRequestStopsTheServeLoop) {
  TestDaemon d;
  ASSERT_TRUE(d.started);
  Client c = d.connect();
  EXPECT_EQ(roundtrip(c, "{\"op\":\"shutdown\"}"),
            "{\"draining\":true,\"ok\":true}");
  d.serve_thread.join();  // returns via the shutdown_requested() poll
  EXPECT_EQ(d.exit_code, 0);
}

TEST(SvcDaemon, FullTableJobOverTheWire) {
  TestDaemon d;
  ASSERT_TRUE(d.started);
  Client c = d.connect();
  const std::string resp = roundtrip(
      c,
      "{\"op\":\"run\",\"job\":{\"kind\":\"full_table\",\"prefixes\":50,"
      "\"events\":100,\"routers\":3,\"outputs\":[\"scorecard\"]}}");
  const auto j = Json::parse(resp);
  ASSERT_TRUE(j) << resp;
  ASSERT_TRUE(j->find("ok") && j->find("ok")->as_bool()) << resp;
  const Json* payload = j->find("payload");
  ASSERT_TRUE(payload && payload->find("outputs"));
  EXPECT_TRUE(payload->find("outputs")->find("scorecard"));
  EXPECT_EQ(payload->find("kind")->as_string(), "full_table");
}

TEST(SvcDaemon, MalformedLinesGetErrorResponsesNotDisconnects) {
  TestDaemon d;
  ASSERT_TRUE(d.started);
  Client c = d.connect();
  EXPECT_NE(roundtrip(c, "garbage").find("\"code\":400"), std::string::npos);
  // The connection survives a bad line; the next request still works.
  EXPECT_EQ(roundtrip(c, "{\"op\":\"ping\"}"), "{\"ok\":true,\"pong\":true}");
}

TEST(SvcDaemon, TwoRequestsInOneWriteAreAnsweredInOrder) {
  TestDaemon d;
  ASSERT_TRUE(d.started);
  RawConnection c(d.cfg.socket_path);
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.write("{\"op\":\"ping\"}\n{\"op\":\"status\"}\n"));
  EXPECT_EQ(c.read_line(), "{\"ok\":true,\"pong\":true}");
  const std::optional<std::string> status = c.read_line();
  ASSERT_TRUE(status.has_value());
  EXPECT_NE(status->find("\"jobs_accepted\":0"), std::string::npos) << *status;
}

TEST(SvcDaemon, RequestSplitOverManySmallWritesIsAnswered) {
  TestDaemon d;
  ASSERT_TRUE(d.started);
  RawConnection c(d.cfg.socket_path);
  ASSERT_TRUE(c.connected());
  const std::string request = "{\"op\":\"ping\"}\n";
  for (const char byte : request) {
    ASSERT_TRUE(c.write(std::string(1, byte)));
    std::this_thread::sleep_for(1ms);  // let the daemon see each fragment
  }
  EXPECT_EQ(c.read_line(), "{\"ok\":true,\"pong\":true}");
}

TEST(SvcDaemon, OverlongLineGetsA400AndTheConnectionCloses) {
  TestDaemon d;
  ASSERT_TRUE(d.started);
  RawConnection c(d.cfg.socket_path);
  ASSERT_TRUE(c.connected());
  // One byte past the 4 MiB cap and no newline: the daemon reads it all,
  // answers, and hangs up with nothing left unread.
  ASSERT_TRUE(c.write(std::string((4u << 20) + 1, 'x')));
  const std::optional<std::string> reply = c.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find("\"code\":400"), std::string::npos) << *reply;
  EXPECT_NE(reply->find("request line exceeds 4 MiB"), std::string::npos)
      << *reply;
  EXPECT_EQ(c.read_line(), std::nullopt);
}

TEST(SvcDaemon, StartFailsOnOverlongSocketPath) {
  ServiceConfig svc_cfg;
  Service svc(svc_cfg, [](const JobSpec&) { return std::string("{}"); });
  DaemonConfig cfg;
  cfg.socket_path = "/tmp/" + std::string(200, 'x') + ".sock";
  Daemon daemon(cfg, svc);
  std::string error;
  EXPECT_FALSE(daemon.start(&error));
  EXPECT_NE(error.find("socket path"), std::string::npos) << error;
}

}  // namespace
}  // namespace rfdnet::svc
