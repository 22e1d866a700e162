// Service-layer concurrency suite, run against an injected JobRunner so the
// scheduling properties (single-flight, backpressure, drain) are tested
// deterministically without real simulations: a gate blocks the runner
// until the test has asserted the in-flight state it arranged.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "svc/json.hpp"

namespace rfdnet::svc {
namespace {

using namespace std::chrono_literals;

std::string run_request(int seed) {
  return "{\"op\":\"run\",\"job\":{\"topology\":{\"kind\":\"mesh\","
         "\"width\":3,\"height\":3},\"pulses\":1,\"seed\":" +
         std::to_string(seed) + ",\"outputs\":[\"result\"]}}";
}

/// Spin-waits (with sleeps) until `pred` holds or ~2 s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

TEST(SvcService, PingStatusAndBadRequests) {
  core::ParallelRunner runner(2);
  ServiceConfig cfg;
  cfg.runner = &runner;
  Service svc(cfg, [](const JobSpec&) { return std::string("{}"); });

  EXPECT_EQ(svc.handle_line("{\"op\":\"ping\"}"),
            "{\"ok\":true,\"pong\":true}");
  EXPECT_NE(svc.handle_line("{\"op\":\"status\"}").find("\"ok\":true"),
            std::string::npos);

  const auto is_error = [&](const std::string& line, int code) {
    const std::string resp = svc.handle_line(line);
    const auto j = Json::parse(resp);
    ASSERT_TRUE(j) << resp;
    ASSERT_TRUE(j->find("error")) << resp;
    EXPECT_EQ(j->find("error")->find("code")->as_number(), code) << resp;
  };
  is_error("not json", 400);
  is_error("{\"op\":\"warp\"}", 400);
  is_error("{\"noop\":1}", 400);
  is_error("{\"op\":\"run\"}", 400);                       // no job
  is_error("{\"op\":\"run\",\"job\":{\"bogus\":1}}", 400); // unknown member
  is_error("{\"op\":\"run\",\"job\":{\"pulses\":\"two\"}}", 400);
  is_error("{\"op\":\"run\",\"job\":{\"outputs\":[\"result\"],"
           "\"kind\":\"full_table\"}}", 400);  // result is experiment-only
  is_error("{\"op\":\"run\",\"job\":{\"outputs\":[\"telemetry\"]}}",
           400);  // telemetry without a period
  is_error("{\"op\":\"run\",\"job\":{\"shards\":2,\"faults\":"
           "\"@60 link-flap 2-3 for 30\"}}", 400);  // faults are serial-only

  // Spans past the clock's range are refused with the field's message, not
  // run into a wrapped clock (or cached as a success).
  for (const auto& [line, field] :
       {std::pair<std::string, std::string>{
            "{\"op\":\"run\",\"job\":{\"mrai_s\":1e300}}", "mrai_s"},
        {"{\"op\":\"run\",\"job\":{\"kind\":\"full_table\","
         "\"event_interval_s\":1e300}}",
         "event_interval_s"}}) {
    is_error(line, 400);
    const auto j = Json::parse(svc.handle_line(line));
    ASSERT_TRUE(j);
    EXPECT_NE(j->find("error")->find("message")->as_string().find(field),
              std::string::npos);
  }
}

TEST(SvcService, CacheHitServesIdenticalBytesAndComputesOnce) {
  core::ParallelRunner runner(2);
  ServiceConfig cfg;
  cfg.runner = &runner;
  std::atomic<int> computed{0};
  Service svc(cfg, [&](const JobSpec& spec) {
    computed.fetch_add(1);
    return std::string("{\"job\":\"") + spec.key_hex() + "\"}";
  });

  const std::string req = run_request(7);
  const std::string r1 = svc.handle_line(req);
  const std::string r2 = svc.handle_line(req);
  EXPECT_EQ(r1, r2);  // byte-identical, not merely equivalent
  EXPECT_NE(r1.find("\"ok\":true"), std::string::npos) << r1;
  EXPECT_EQ(computed.load(), 1);
  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cached, 1u);

  // Whitespace / key order / equal number spellings canonicalize together:
  // a syntactically different text of the same job is still a cache hit.
  const std::string shuffled =
      "{\"op\":\"run\",\"job\":{\"seed\":7.0,\"pulses\":1,"
      "\"outputs\":[\"result\"],\"topology\":{\"height\":3,"
      "\"width\":3,\"kind\":\"mesh\"}}}";
  EXPECT_EQ(svc.handle_line(shuffled), r1);
  EXPECT_EQ(computed.load(), 1);
  EXPECT_EQ(svc.stats().cache_hits, 2u);
}

TEST(SvcService, SingleFlightComputesConcurrentTwinsOnce) {
  core::ParallelRunner runner(4);
  ServiceConfig cfg;
  cfg.runner = &runner;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> computed{0};
  Service svc(cfg, [&](const JobSpec&) {
    computed.fetch_add(1);
    opened.wait();
    return std::string("{}");
  });

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::string> responses(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] { responses[static_cast<std::size_t>(i)] =
                                      svc.handle_line(run_request(42)); });
  }
  // All eight clients resolve against one flight: 1 accepted, 7 joins.
  ASSERT_TRUE(eventually([&] {
    const Service::Stats s = svc.stats();
    return s.accepted == 1 && s.coalesced == 7;
  })) << svc.status_line();
  EXPECT_EQ(computed.load(), 1);

  gate.set_value();
  for (auto& t : clients) t.join();
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(responses[static_cast<std::size_t>(i)], responses[0]);
  }
  EXPECT_EQ(computed.load(), 1);
  EXPECT_EQ(svc.stats().completed, 1u);
}

TEST(SvcService, QueueFullRejectsWith429) {
  core::ParallelRunner runner(2);
  ServiceConfig cfg;
  cfg.runner = &runner;
  cfg.queue_capacity = 1;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  Service svc(cfg, [&](const JobSpec&) {
    opened.wait();
    return std::string("{}");
  });

  // Job A: dispatched (running) once the dispatcher picks it up.
  std::thread a([&] { svc.handle_line(run_request(1)); });
  ASSERT_TRUE(eventually([&] { return svc.stats().running == 1; }));

  // Job B: sits in the queue's single slot.
  std::thread b([&] { svc.handle_line(run_request(2)); });
  ASSERT_TRUE(eventually([&] { return svc.stats().queue_depth == 1; }));

  // Job C: distinct content, queue full -> 429.
  const std::string rc = svc.handle_line(run_request(3));
  const auto j = Json::parse(rc);
  ASSERT_TRUE(j) << rc;
  ASSERT_TRUE(j->find("error")) << rc;
  EXPECT_EQ(j->find("error")->find("code")->as_number(), 429) << rc;
  EXPECT_EQ(svc.stats().rejected_full, 1u);

  gate.set_value();
  a.join();
  b.join();
}

TEST(SvcService, DrainRejectsNewAndCompletesInflight) {
  core::ParallelRunner runner(2);
  ServiceConfig cfg;
  cfg.runner = &runner;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  Service svc(cfg, [&](const JobSpec&) {
    opened.wait();
    return std::string("{\"done\":true}");
  });

  std::string inflight_response;
  std::thread a([&] { inflight_response = svc.handle_line(run_request(1)); });
  ASSERT_TRUE(eventually([&] { return svc.stats().running == 1; }));

  // The shutdown op flips the service into draining; new work gets a 503
  // while the in-flight job is still allowed to finish.
  EXPECT_EQ(svc.handle_line("{\"op\":\"shutdown\"}"),
            "{\"draining\":true,\"ok\":true}");
  EXPECT_TRUE(svc.shutdown_requested());
  const std::string rejected = svc.handle_line(run_request(2));
  const auto j = Json::parse(rejected);
  ASSERT_TRUE(j && j->find("error")) << rejected;
  EXPECT_EQ(j->find("error")->find("code")->as_number(), 503) << rejected;

  std::thread releaser([&] {
    std::this_thread::sleep_for(50ms);
    gate.set_value();
  });
  svc.drain();  // must block until the gated job finishes
  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.running, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.rejected_draining, 1u);
  a.join();
  releaser.join();
  EXPECT_NE(inflight_response.find("\"done\":true"), std::string::npos)
      << inflight_response;

  // A cached result is still served during drain — hits don't consume
  // queue slots.
  EXPECT_EQ(svc.handle_line(run_request(1)), inflight_response);
}

TEST(SvcService, FailedJobsReport500AndAreNotCached) {
  core::ParallelRunner runner(2);
  ServiceConfig cfg;
  cfg.runner = &runner;
  std::atomic<int> calls{0};
  Service svc(cfg, [&](const JobSpec&) -> std::string {
    if (calls.fetch_add(1) == 0) throw std::runtime_error("transient");
    return "{}";
  });

  const std::string r1 = svc.handle_line(run_request(5));
  const auto j = Json::parse(r1);
  ASSERT_TRUE(j && j->find("error")) << r1;
  EXPECT_EQ(j->find("error")->find("code")->as_number(), 500) << r1;
  EXPECT_NE(r1.find("transient"), std::string::npos) << r1;
  EXPECT_EQ(svc.stats().failed, 1u);
  EXPECT_EQ(svc.stats().cached, 0u);

  // The failure was not pinned: a resubmission recomputes and succeeds.
  const std::string r2 = svc.handle_line(run_request(5));
  EXPECT_NE(r2.find("\"ok\":true"), std::string::npos) << r2;
  EXPECT_EQ(calls.load(), 2);
}

TEST(SvcService, PayloadWithARawNewlineFailsWith500) {
  // Replies are newline-framed: a payload that would split its reply is a
  // failed job, reported on one line and not cached.
  core::ParallelRunner runner(2);
  ServiceConfig cfg;
  cfg.runner = &runner;
  Service svc(cfg, [](const JobSpec&) { return std::string("{\n}"); });
  const std::string r = svc.handle_line(run_request(6));
  EXPECT_EQ(r.find('\n'), std::string::npos) << r;
  const auto j = Json::parse(r);
  ASSERT_TRUE(j && j->find("error")) << r;
  EXPECT_EQ(j->find("error")->find("code")->as_number(), 500) << r;
  EXPECT_EQ(svc.stats().failed, 1u);
  EXPECT_EQ(svc.stats().cached, 0u);
}

TEST(SvcService, LruCacheEvictsLeastRecentlyUsed) {
  LruCache cache(2);
  const auto val = [](const std::string& s) {
    return std::make_shared<const std::string>(s);
  };
  cache.put("a", val("1"));
  cache.put("b", val("2"));
  ASSERT_TRUE(cache.get("a"));  // refresh a; b is now LRU
  cache.put("c", val("3"));     // evicts b
  EXPECT_TRUE(cache.get("a"));
  EXPECT_FALSE(cache.get("b"));
  EXPECT_TRUE(cache.get("c"));
  EXPECT_EQ(cache.size(), 2u);

  LruCache disabled(0);
  disabled.put("a", val("1"));
  EXPECT_FALSE(disabled.get("a"));
}

TEST(SvcService, RealJobRunsThroughDefaultRunner) {
  // One small end-to-end run through the real run_job path (not gated):
  // the payload parses and echoes the job's content hash.
  core::ParallelRunner runner(2);
  ServiceConfig cfg;
  cfg.runner = &runner;
  Service svc(cfg);
  const std::string resp = svc.handle_line(run_request(11));
  const auto j = Json::parse(resp);
  ASSERT_TRUE(j) << resp;
  ASSERT_TRUE(j->find("ok") && j->find("ok")->as_bool()) << resp;
  const Json* payload = j->find("payload");
  ASSERT_TRUE(payload) << resp;
  ASSERT_TRUE(payload->find("job"));
  EXPECT_EQ(payload->find("job")->as_string().size(), 16u);
  EXPECT_EQ(payload->find("kind")->as_string(), "experiment");
  ASSERT_TRUE(payload->find("outputs"));
  EXPECT_TRUE(payload->find("outputs")->find("result"));
}

}  // namespace
}  // namespace rfdnet::svc
