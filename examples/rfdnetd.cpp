// rfdnetd: the what-if evaluation daemon. Serves canonical-JSON job requests
// (topology, flap/fault schedule, RFD params, requested outputs) over an
// AF_UNIX socket, one newline-delimited JSON request/response pair per line,
// fanning jobs out across the shared thread pool with a bounded queue,
// content-addressed LRU result caching and single-flight deduplication.
//
//   $ ./rfdnetd --socket /tmp/rfdnet.sock --queue 64 --cache 128 --jobs 8
//
// SIGINT/SIGTERM (or a protocol `shutdown` request) drains in-flight jobs,
// rejects new ones with a 503, and exits 0.
//
// The same binary is the client (`rfdnetctl` mode) used by tests and the
// check.sh smoke leg:
//
//   $ ./rfdnetd --ctl --socket /tmp/rfdnet.sock --ping
//   $ ./rfdnetd --ctl --socket /tmp/rfdnet.sock --status
//   $ JOB='{"op":"run","job":{"pulses":2,"outputs":["scorecard"]}}'
//   $ ./rfdnetd --ctl --socket /tmp/rfdnet.sock --request "$JOB"
//   $ ./rfdnetd --ctl --socket /tmp/rfdnet.sock --request-file job.json
//   $ ./rfdnetd --ctl --socket /tmp/rfdnet.sock --shutdown
//
// Client mode prints the response line to stdout and exits 0 iff the
// response carries "ok":true.
//
// Protocol (one JSON object per line):
//   {"op":"ping"}                      -> {"ok":true,"pong":true}
//   {"op":"status"}                    -> {"ok":true,"status":{...counters}}
//   {"op":"shutdown"}                  -> {"ok":true,"draining":true}
//   {"op":"run","job":{...}}           -> {"ok":true,"payload":{...}}
//                                       | {"ok":false,"error":{code,message}}
// Error codes follow HTTP idiom: 400 malformed, 429 queue full, 500 job
// failed, 503 draining. See DESIGN.md ("The svc layer") for the job grammar.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/cli.hpp"
#include "core/parallel.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"

namespace {

using namespace rfdnet;

// The signal handler can only touch async-signal-safe state; it pokes the
// daemon's self-pipe through this pointer.
svc::Daemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}

void usage() {
  std::cout <<
      "rfdnetd - what-if evaluation daemon for rfdnet\n"
      "\n"
      "daemon mode (default):\n"
      "  --socket PATH    AF_UNIX socket path (required)\n"
      "  --queue N        job queue capacity (default 64)\n"
      "  --cache N        LRU result cache capacity (default 128)\n"
      "  --jobs N         worker threads (default: hardware concurrency)\n"
      "  --heartbeat SECS status line to stderr every SECS wall seconds\n"
      "\n"
      "client mode (--ctl):\n"
      "  --ctl --socket PATH [--ping | --status | --shutdown |\n"
      "                       --request JSON | --request-file PATH]\n"
      "\n"
      "Prints the response line; exits 0 iff the response has \"ok\":true.\n";
}

int ctl_mode(const core::ArgParser& flags) {
  std::string request;
  int selected = 0;
  if (flags.has("ping")) {
    request = "{\"op\":\"ping\"}";
    ++selected;
  }
  if (flags.has("status")) {
    request = "{\"op\":\"status\"}";
    ++selected;
  }
  if (flags.has("shutdown")) {
    request = "{\"op\":\"shutdown\"}";
    ++selected;
  }
  if (flags.has("request")) {
    request = flags.get("request");
    ++selected;
  }
  if (flags.has("request-file")) {
    std::ifstream in(flags.get("request-file"));
    if (!in) {
      std::cerr << "error: cannot open " << flags.get("request-file") << "\n";
      return 2;
    }
    std::ostringstream body;
    body << in.rdbuf();
    request = body.str();
    // A request file may end in a newline; the protocol wants one line.
    while (!request.empty() &&
           (request.back() == '\n' || request.back() == '\r')) {
      request.pop_back();
    }
    ++selected;
  }
  if (selected != 1) {
    std::cerr << "error: --ctl needs exactly one of --ping, --status, "
                 "--shutdown, --request, --request-file\n";
    return 2;
  }

  svc::Client client;
  std::string error;
  if (!client.connect(flags.get("socket"), &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::string response;
  if (!client.request(request, &response, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::cout << response << "\n";

  const auto parsed = svc::Json::parse(response);
  const svc::Json* ok = parsed ? parsed->find("ok") : nullptr;
  return (ok != nullptr && ok->is_bool() && ok->as_bool()) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // First, so an invalid --jobs exits 2 before anything is built.
  core::ParallelRunner::configure_from_args(argc, argv);

  core::ArgParser flags({"help", "ctl", "ping", "status", "shutdown"},
                        {"socket", "queue", "cache", "jobs", "heartbeat",
                         "request", "request-file"});
  if (!flags.parse(argc, argv)) {
    std::cerr << "error: " << flags.error() << "\n";
    return 2;
  }
  if (flags.has("help")) {
    usage();
    return 0;
  }
  if (!flags.has("socket")) {
    std::cerr << "error: --socket PATH is required (see --help)\n";
    return 2;
  }

  if (flags.has("ctl")) return ctl_mode(flags);

  svc::ServiceConfig svc_cfg;
  svc_cfg.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue", 64));
  svc_cfg.cache_capacity =
      static_cast<std::size_t>(flags.get_int("cache", 128));
  if (flags.get_int("queue", 64) < 1) {
    std::cerr << "error: invalid value '" << flags.get("queue")
              << "' for --queue (expected a positive integer)\n";
    return 2;
  }
  if (flags.get_int("cache", 128) < 0) {
    std::cerr << "error: invalid value '" << flags.get("cache")
              << "' for --cache (expected a non-negative integer)\n";
    return 2;
  }

  svc::DaemonConfig daemon_cfg;
  daemon_cfg.socket_path = flags.get("socket");
  daemon_cfg.heartbeat_s = flags.get_double("heartbeat", 0.0);
  if (daemon_cfg.heartbeat_s < 0) {
    std::cerr << "error: invalid value '" << flags.get("heartbeat")
              << "' for --heartbeat (expected a non-negative number)\n";
    return 2;
  }

  svc::Service service(svc_cfg);
  svc::Daemon daemon(daemon_cfg, service);
  std::string error;
  if (!daemon.start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }

  g_daemon = &daemon;
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  std::fprintf(stderr,
               "rfdnetd: serving on %s (queue %zu, cache %zu, %d workers)\n",
               daemon_cfg.socket_path.c_str(), svc_cfg.queue_capacity,
               svc_cfg.cache_capacity,
               core::ParallelRunner::shared().threads());
  const int rc = daemon.serve();
  g_daemon = nullptr;
  return rc;
}
