// whatif_daemon: a real `rfdnetd --jobs 2` child on a private AF_UNIX socket,
// driven by two client connections in a closed loop with paper-config
// what-if jobs (10x10 mesh, Cisco or Juniper, 1-8 pulses, optional RCN)
// asking for the scorecard. About one request in ten is a new job; the rest
// repeat recent ones with Zipf popularity; a share of new jobs goes out on
// both connections back to back so single-flight joins happen.

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/request.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace rfdnet;

constexpr int kConnections = 2;
/// Each new job is followed by this many repeats of recent jobs, so one
/// request in ten is new.
constexpr std::size_t kRepeatsPerJob = 9;
/// In each run of this many new jobs, one goes out twice back to back,
/// once per connection.
constexpr std::size_t kTwinEvery = 4;
/// Repeats draw a Zipf(1) rank over this many most recent jobs.
constexpr std::size_t kPopularWindow = 64;
constexpr std::size_t kWarmupRequests = 800;
constexpr int kSetups = 3;
/// Length of one epoch of requests between two reference samples.
constexpr double kEpochS = 0.1;
constexpr const char* kSocket = "rfdnetd.sock";

/// One entry of the request sequence: which catalog job to send, and
/// whether it is the job's first appearance (a cold request).
struct Request {
  std::size_t job = 0;
  bool first = false;
};

/// The job catalog and request order, all drawn from the workload seed.
struct Traffic {
  std::vector<std::string> lines;  ///< catalog: one `run` request per job
  std::vector<Request> order;
};

/// Job `k` of the catalog. The parameter mix cycles with period 128 (pulses
/// 1-8, then Juniper for one block in four, then RCN for one block in four)
/// so every seed asks for the same mix of work; the seed draws each job's
/// simulation seed, which places the origin and the link delays.
std::string job_line(std::size_t k, std::mt19937_64& rng) {
  const std::size_t pulses = 1 + k % 8;
  const bool juniper = (k / 8) % 4 == 3;
  const bool rcn = (k / 32) % 4 == 3;
  const std::uint64_t seed = 1 + rng() % 1000000;
  return std::string("{\"op\":\"run\",\"job\":{\"outputs\":[\"scorecard\"],") +
         "\"params\":\"" + (juniper ? "juniper" : "cisco") + "\"," +
         "\"pulses\":" + std::to_string(pulses) + "," +
         "\"rcn\":" + (rcn ? "true" : "false") + "," +
         "\"seed\":" + std::to_string(seed) + "}}";
}

/// The request order: blocks of one new job and kRepeatsPerJob repeats.
/// The counts are fixed, so every seed asks for the same amount of cold
/// work; the seed draws which job of each run of kTwinEvery is sent twice
/// and which recent jobs the repeats ask for.
Traffic make_traffic(std::uint64_t seed, std::size_t requests) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::vector<double> cdf(kPopularWindow);
  double mass = 0.0;
  for (std::size_t k = 0; k < kPopularWindow; ++k) {
    mass += 1.0 / static_cast<double>(k + 1);
    cdf[k] = mass;
  }
  Traffic t;
  std::size_t twin = 0;
  while (t.order.size() < requests) {
    const std::size_t job = t.lines.size();
    t.lines.push_back(job_line(job, rng));
    if (job % kTwinEvery == 0) twin = job + rng() % kTwinEvery;
    t.order.push_back({job, true});
    if (job == twin) t.order.push_back({job, true});
    for (std::size_t r = 0; r < kRepeatsPerJob; ++r) {
      const double x = u01(rng) * mass;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
      t.order.push_back({job - rank % (job + 1), false});
    }
  }
  return t;
}

/// The daemon child: spawned on construction; the destructor kills and
/// reaps it if it is still running, so no failure path leaves a stray
/// daemon loading the CPUs.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::string& binary) {
    std::vector<std::string> argv_s = {binary, "--socket", kSocket,
                                       "--jobs", "2"};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), nullptr, nullptr,
                               argv.data(), environ);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + binary);
    }
  }
  ~DaemonProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Waits up to `timeout_s` for the child to exit; returns whether it
  /// exited with status 0, and its peak RSS in MiB.
  bool reap(double timeout_s, double* peak_rss_mb) {
    const auto t0 = Clock::now();
    int status = 0;
    rusage ru{};
    for (;;) {
      const pid_t r = wait4(pid_, &status, WNOHANG, &ru);
      if (r == pid_) break;
      if (r < 0 || seconds_since(t0) > timeout_s) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
};

bool socket_exists() {
  struct stat st{};
  return ::stat(kSocket, &st) == 0;
}

/// Connects once the daemon listens and answers `ping`.
svc::Client connect_when_ready(double timeout_s) {
  const auto t0 = Clock::now();
  std::string error;
  for (;;) {
    svc::Client c;
    std::string resp;
    if (c.connect(kSocket, &error) &&
        c.request("{\"op\":\"ping\"}", &resp, &error) &&
        resp == "{\"ok\":true,\"pong\":true}") {
      return c;
    }
    if (seconds_since(t0) > timeout_s) {
      throw std::runtime_error("rfdnetd did not answer ping: " + error);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// One request's outcome as the client saw it.
struct Sample {
  double latency_s = 0.0;
  std::size_t epoch = 0;  ///< the epoch it ran in
  bool ok = false;
  bool first = false;
  bool traced = false;
};

/// Payload bytes per job: the first answer sets them, every later answer
/// must match them, and in-process `run_job` must reproduce them.
class Answers {
 public:
  explicit Answers(std::size_t jobs) : payload_(jobs), seen_(jobs, false) {}

  bool record(std::size_t job, std::string_view payload) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!seen_[job]) {
      seen_[job] = true;
      payload_[job] = payload;
      return true;
    }
    return payload_[job] == payload;
  }
  /// Jobs answered so far. Call once the clients have stopped.
  std::vector<std::size_t> answered() const {
    std::vector<std::size_t> jobs;
    for (std::size_t j = 0; j < seen_.size(); ++j) {
      if (seen_[j]) jobs.push_back(j);
    }
    return jobs;
  }
  const std::string& payload(std::size_t job) const { return payload_[job]; }

 private:
  std::mutex mu_;
  std::vector<std::string> payload_;
  std::vector<bool> seen_;
};

/// Extracts the payload of an `{"ok":true,"payload":...}` response.
bool payload_of(const std::string& resp, std::string_view* payload) {
  static constexpr std::string_view kHead = "{\"ok\":true,\"payload\":";
  if (resp.size() < kHead.size() + 1 || !resp.starts_with(kHead) ||
      resp.back() != '}') {
    return false;
  }
  *payload = std::string_view(resp).substr(
      kHead.size(), resp.size() - kHead.size() - 1);
  return true;
}

/// What one closed loop over the request order observed.
struct Loop {
  std::vector<Sample> samples;
  std::vector<double> decode_s;  ///< in-process decode time per traced line
  Timings epochs;                ///< wall time and reference scale per epoch
};

/// Drives `order[begin, end)` over kConnections connections in a closed loop
/// until the range is used up or `seconds` pass (0 = no time limit). The
/// loop runs in epochs of kEpochS: both connections send requests until the
/// epoch ends, then wait while the calling thread takes a reference sample,
/// so every request is scaled by the samples around its epoch. In a traced
/// loop every odd request is traced: after its answer the client also
/// decodes the line in-process (`svc::Json::parse` + `svc::parse_job`),
/// outside the latency window.
Loop drive(const Traffic& traffic, std::size_t begin, std::size_t end,
           double seconds, bool trace, Answers& answers, Outcome& out) {
  std::atomic<std::size_t> cursor{begin};
  std::vector<Loop> per_conn(kConnections);
  std::vector<std::string> errors(kConnections);
  std::mutex out_mu;
  const auto failed = [&](std::size_t pos, const std::string& why) {
    std::lock_guard<std::mutex> lk(out_mu);
    out.fail("request " + std::to_string(pos) + ": " + why);
  };
  // Written by this thread between the two barrier phases of an epoch.
  std::size_t epoch = 0;
  Clock::time_point deadline;
  bool stop = false;
  std::barrier sync(kConnections + 1);

  const auto send = [&](int c, svc::Client& client) {
    std::string error, resp;
    while (Clock::now() < deadline) {
      const std::size_t pos = cursor.fetch_add(1);
      if (pos >= end) break;
      const Request& rq = traffic.order[pos];
      const std::string& line = traffic.lines[rq.job];
      Sample s;
      s.epoch = epoch;
      s.first = rq.first;
      s.traced = trace && pos % 2 == 1;
      const auto r0 = Clock::now();
      const bool sent = client.request(line, &resp, &error);
      s.latency_s = seconds_since(r0);
      std::string_view payload;
      if (!sent) {
        failed(pos, error);
        client.connect(kSocket, &error);
      } else if (!payload_of(resp, &payload)) {
        failed(pos, resp.substr(0, 160));
      } else if (!answers.record(rq.job, payload)) {
        failed(pos, "payload differs from the job's first answer");
      } else {
        s.ok = true;
      }
      if (s.traced) {
        const auto d0 = Clock::now();
        const auto parsed = svc::Json::parse(line);
        const svc::Json* job = parsed ? parsed->find("job") : nullptr;
        std::string perr;
        const bool decoded = job && svc::parse_job(*job, &perr);
        per_conn[c].decode_s.push_back(seconds_since(d0));
        if (!decoded) {
          failed(pos, "in-process decode failed: " + perr);
          s.ok = false;
        }
      }
      per_conn[c].samples.push_back(s);
    }
  };

  double before = reference_sample();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      svc::Client client;
      std::string error;
      if (!client.connect(kSocket, &error)) errors[c] = "connect: " + error;
      for (;;) {
        sync.arrive_and_wait();  // the epoch starts
        if (stop) break;
        try {
          if (errors[c].empty()) send(c, client);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
        sync.arrive_and_wait();  // the epoch is over
      }
    });
  }
  Loop all;
  std::exception_ptr error;
  const auto t0 = Clock::now();
  for (;; ++epoch) {
    stop = error || cursor.load() >= end ||
           (seconds > 0 && seconds_since(t0) >= seconds);
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(kEpochS));
    const auto e0 = Clock::now();
    sync.arrive_and_wait();
    if (stop) break;
    sync.arrive_and_wait();
    const double wall = seconds_since(e0);
    try {
      const double after = reference_sample();
      all.epochs.add(wall, reference_scale(before, after));
      before = after;
    } catch (...) {
      error = std::current_exception();
    }
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  for (int c = 0; c < kConnections; ++c) {
    if (!errors[c].empty()) throw std::runtime_error(errors[c]);
    const Loop& l = per_conn[c];
    all.samples.insert(all.samples.end(), l.samples.begin(), l.samples.end());
    all.decode_s.insert(all.decode_s.end(), l.decode_s.begin(),
                        l.decode_s.end());
  }
  out.attempted += all.samples.size();
  return all;
}

/// Sends `shutdown`, then checks the daemon exits 0 and removes its socket.
double stop_daemon(DaemonProcess& daemon, Outcome& out) {
  ++out.attempted;
  svc::Client c = connect_when_ready(5.0);
  std::string resp, error;
  if (!c.request("{\"op\":\"shutdown\"}", &resp, &error) ||
      resp != "{\"draining\":true,\"ok\":true}") {
    out.fail("shutdown refused: " + resp + error);
  }
  c.close();
  double rss = 0.0;
  if (!daemon.reap(30.0, &rss)) out.fail("rfdnetd did not exit 0");
  if (socket_exists()) out.fail("rfdnetd left its socket behind");
  return rss;
}

/// Daemon counters from the `status` op.
svc::Json daemon_status() {
  svc::Client c = connect_when_ready(5.0);
  std::string resp, error;
  if (!c.request("{\"op\":\"status\"}", &resp, &error)) {
    throw std::runtime_error("status: " + error);
  }
  const auto parsed = svc::Json::parse(resp);
  const svc::Json* status = parsed ? parsed->find("status") : nullptr;
  if (!status || !status->is_object()) {
    throw std::runtime_error("status: bad response " + resp);
  }
  return *status;
}

double counter(const svc::Json& status, const char* name) {
  const svc::Json* v = status.find(name);
  if (!v || !v->is_number()) {
    throw std::runtime_error(std::string("status lacks ") + name);
  }
  return v->as_number();
}

}  // namespace

void run_whatif_daemon(const Args& args, Outcome& out) {
  if (::chdir(args.tmp_dir.c_str()) != 0) {
    throw std::runtime_error("cannot enter " + args.tmp_dir);
  }
  // Enough requests for any run: a hit takes well over 50 us.
  const std::size_t capacity =
      kWarmupRequests + static_cast<std::size_t>(args.seconds * 20000) + 1000;
  const int setups = args.trace ? 1 : kSetups;

  Traffic traffic;
  std::unique_ptr<Answers> answers;
  std::unique_ptr<DaemonProcess> daemon;
  Loop loop;
  svc::Json status;
  double daemon_rss = 0.0;
  const Timings setup = repeated_setup(
      setups,
      [&] {
        traffic = make_traffic(args.seed, capacity);
        answers = std::make_unique<Answers>(traffic.lines.size());
        daemon = std::make_unique<DaemonProcess>(args.rfdnetd);
        connect_when_ready(10.0);
        drive(traffic, 0, kWarmupRequests, 0.0, false, *answers, out);
      },
      [&] {
        loop = drive(traffic, kWarmupRequests, traffic.order.size(),
                     args.seconds, args.trace, *answers, out);
        status = daemon_status();
        daemon_rss = stop_daemon(*daemon, out);
        daemon.reset();
      },
      [&] {
        stop_daemon(*daemon, out);
        daemon.reset();
      });

  // Every answered job's payload must equal the in-process run_job bytes.
  // One job at a time on the pinned CPU, so `run_job_s` is the compute a
  // cold request needs, without the queue wait or the sharing of the CPU.
  const std::vector<std::size_t> jobs = answers->answered();
  std::vector<double> run_job_s;
  for (const std::size_t j : jobs) {
    ++out.attempted;
    const auto parsed = svc::Json::parse(traffic.lines[j]);
    const svc::Json* job = parsed ? parsed->find("job") : nullptr;
    std::string perr;
    const auto spec = job ? svc::parse_job(*job, &perr) : std::nullopt;
    if (!spec) {
      out.fail("job " + std::to_string(j) + " does not decode: " + perr);
      continue;
    }
    try {
      const auto t0 = Clock::now();
      const std::string payload = svc::run_job(*spec);
      run_job_s.push_back(seconds_since(t0));
      if (payload != answers->payload(j)) {
        out.fail("job " + std::to_string(j) +
                 ": daemon payload differs from in-process run_job");
      }
    } catch (const std::exception& e) {
      out.fail("job " + std::to_string(j) + ": run_job threw: " + e.what());
    }
  }

  char line[200];
  std::snprintf(line, sizeof line,
                "verified %zu distinct job payloads against in-process run_job",
                jobs.size());
  out.note(line);

  // A failed or refused request counts as slower than every success.
  constexpr double kMissing = std::numeric_limits<double>::infinity();
  UnitTimes t;
  for (std::size_t e = 0; e < loop.epochs.wall_s.size(); ++e) {
    t.busy_s += loop.epochs.wall_s[e] * loop.epochs.scale[e];
  }
  std::vector<double> all, hits, colds, plain, traced;
  for (const Sample& s : loop.samples) {
    all.push_back(s.ok ? s.latency_s : kMissing);
    if (!s.ok) continue;
    t.units.add(s.latency_s, loop.epochs.scale.at(s.epoch));
    ++t.done;
    (s.first ? colds : hits).push_back(s.latency_s);
    (s.traced ? traced : plain).push_back(s.latency_s);
  }
  if (!args.trace) {
    report_end_to_end(setup, t, daemon_rss, out);
    std::snprintf(line, sizeof line,
                  "requests: %zu, p99 %.6f s with failures counted slowest",
                  all.size(), quantile(all, 0.99));
    out.note(line);
    return;
  }
  if (plain.empty() || traced.empty() || hits.empty() || colds.empty()) {
    throw std::runtime_error("traced run saw too few requests");
  }
  report_overhead(plain, traced, out);
  const double cold = median(colds);
  const double run_job = median(run_job_s);
  out.metric("trace.unit_s", cold, "s");
  out.metric("svc.hit_p50_s", median(hits), "s");
  out.metric("svc.request_p99_s", quantile(all, 0.99), "s");
  out.metric("svc.decode_s", median(loop.decode_s), "s");
  out.metric("svc.cold_p50_s", cold, "s");
  out.metric("svc.run_job_s", run_job, "s");
  out.metric("svc.cold_overhead_s", cold - run_job, "s");
  const double hits_n = counter(status, "cache_hits");
  const double accepted = counter(status, "jobs_accepted");
  const double joins = counter(status, "singleflight_joins");
  out.metric("svc.hit_ratio", hits_n / (hits_n + accepted + joins), "ratio");
  out.metric("svc.cache_hits", hits_n, "count");
  out.metric("svc.singleflight_joins", joins, "count");
  out.metric("svc.jobs_accepted", accepted, "count");
  out.metric("svc.jobs_failed", counter(status, "jobs_failed"), "count");
  out.metric("svc.rejected",
             counter(status, "rejected_queue_full") +
                 counter(status, "rejected_draining"),
             "count");
}

}  // namespace perfbench
