#include "svc/service.hpp"

#include <cstdio>
#include <exception>
#include <utility>
#include <vector>

namespace rfdnet::svc {

std::string error_response(int code, const std::string& message) {
  std::string out = "{\"error\":{\"code\":";
  out += std::to_string(code);
  out += ",\"message\":\"";
  out += Json::escape(message);
  out += "\"},\"ok\":false}";
  return out;
}

Service::Service(ServiceConfig cfg, JobRunner run)
    : cfg_(cfg),
      run_(run ? std::move(run) : JobRunner(&run_job)),
      runner_(cfg.runner ? cfg.runner : &core::ParallelRunner::shared()),
      cache_(cfg.cache_capacity),
      metrics_(obs::SvcMetrics::bind(registry_)) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Service::~Service() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  dispatcher_.join();
}

bool Service::shutdown_requested() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shutdown_requested_;
}

Service::Stats Service::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.accepted = metrics_.accepted->value();
  s.completed = metrics_.completed->value();
  s.failed = metrics_.failed->value();
  s.cache_hits = metrics_.cache_hits->value();
  s.coalesced = metrics_.coalesced->value();
  s.rejected_full = metrics_.rejected_full->value();
  s.rejected_draining = metrics_.rejected_draining->value();
  s.queue_depth = queue_.size();
  s.running = running_;
  s.cached = cache_.size();
  return s;
}

std::string Service::status_line() const {
  const Stats s = stats();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "rfdnetd: queue=%zu running=%zu accepted=%llu "
                "completed=%llu failed=%llu cache_hits=%llu joins=%llu "
                "rejected=%llu",
                s.queue_depth, s.running,
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.failed),
                static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(s.coalesced),
                static_cast<unsigned long long>(s.rejected_full +
                                                s.rejected_draining));
  return buf;
}

std::string Service::handle_line(const std::string& line) {
  std::string parse_error;
  const auto request = Json::parse(line, &parse_error);
  if (!request) {
    return error_response(400, "malformed JSON: " + parse_error);
  }
  const Json* op = request->find("op");
  if (!op || !op->is_string()) {
    return error_response(400, "request must be an object with a string "
                               "'op' member");
  }
  const std::string& name = op->as_string();
  if (name == "ping") {
    return "{\"ok\":true,\"pong\":true}";
  }
  if (name == "status") {
    const Stats s = stats();
    std::string out = "{\"ok\":true,\"status\":{";
    out += "\"cache_entries\":" + std::to_string(s.cached);
    out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
    out += ",\"jobs_accepted\":" + std::to_string(s.accepted);
    out += ",\"jobs_completed\":" + std::to_string(s.completed);
    out += ",\"jobs_failed\":" + std::to_string(s.failed);
    out += ",\"queue_depth\":" + std::to_string(s.queue_depth);
    out += ",\"rejected_draining\":" + std::to_string(s.rejected_draining);
    out += ",\"rejected_queue_full\":" + std::to_string(s.rejected_full);
    out += ",\"running\":" + std::to_string(s.running);
    out += ",\"singleflight_joins\":" + std::to_string(s.coalesced);
    out += "}}";
    return out;
  }
  if (name == "shutdown") {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_requested_ = true;
      draining_ = true;
    }
    return "{\"draining\":true,\"ok\":true}";
  }
  if (name == "run") {
    return handle_run(*request);
  }
  return error_response(400, "unknown op '" + name + "'");
}

std::string Service::handle_run(const Json& request) {
  const Json* job = request.find("job");
  if (!job) {
    return error_response(400, "'run' requires a 'job' member");
  }
  for (const auto& [key, value] : request.as_object()) {
    if (key != "op" && key != "job") {
      return error_response(400, "unknown member '" + key + "'");
    }
  }
  std::string parse_error;
  auto spec = parse_job(*job, &parse_error);
  if (!spec) {
    return error_response(400, parse_error);
  }

  std::shared_future<std::shared_ptr<const std::string>> future;
  {
    std::unique_lock<std::mutex> lk(mu_);
    // Resolution order: cached bytes beat everything (a hit is free and
    // immune to drain), then an in-flight twin, then a queue slot.
    if (const auto cached = cache_.get(spec->canonical)) {
      metrics_.cache_hits->inc();
      return *cached;
    }
    if (const auto it = inflight_.find(spec->canonical);
        it != inflight_.end()) {
      metrics_.coalesced->inc();
      future = it->second->future;
    } else if (draining_) {
      metrics_.rejected_draining->inc();
      return error_response(503, "service is draining; resubmit to the next "
                                 "instance");
    } else if (queue_.size() >= cfg_.queue_capacity) {
      metrics_.rejected_full->inc();
      return error_response(429, "job queue is full (capacity " +
                                     std::to_string(cfg_.queue_capacity) +
                                     "); retry later");
    } else {
      auto flight = std::make_shared<Flight>();
      flight->spec = std::move(*spec);
      flight->future = flight->promise.get_future().share();
      future = flight->future;
      inflight_.emplace(flight->spec.canonical, flight);
      queue_.push_back(std::move(flight));
      metrics_.accepted->inc();
      metrics_.queue_depth->set(static_cast<std::int64_t>(queue_.size()));
      lk.unlock();
      work_cv_.notify_one();
    }
  }

  const std::shared_ptr<const std::string> result = future.get();
  return *result;
}

void Service::dispatcher_loop() {
  for (;;) {
    std::vector<std::shared_ptr<Flight>> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      // Take the whole backlog: one for_each over the batch lets the pool
      // run admitted jobs concurrently instead of one at a time.
      batch.assign(queue_.begin(), queue_.end());
      queue_.clear();
      running_ += batch.size();
      metrics_.queue_depth->set(0);
      metrics_.running->set(static_cast<std::int64_t>(running_));
    }

    std::vector<std::shared_ptr<const std::string>> results(batch.size());
    // One byte per job, not vector<bool>: pool threads set these flags
    // concurrently, and packed bits would share words between jobs.
    std::vector<char> ok(batch.size(), 0);
    runner_->for_each(batch.size(), [&](std::size_t i) {
      try {
        results[i] = std::make_shared<const std::string>(
            "{\"ok\":true,\"payload\":" + run_(batch[i]->spec) + "}");
        ok[i] = 1;
      } catch (const std::exception& e) {
        results[i] = std::make_shared<const std::string>(
            error_response(500, std::string("job failed: ") + e.what()));
      } catch (...) {
        results[i] = std::make_shared<const std::string>(
            error_response(500, "job failed: unknown error"));
      }
    });

    {
      std::lock_guard<std::mutex> lk(mu_);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        // Publish to the cache before erasing the in-flight entry: a new
        // submission arriving now sees either the flight (joins) or the
        // cached bytes (hit) — there is no window where it would recompute.
        if (ok[i]) {
          cache_.put(batch[i]->spec.canonical, results[i]);
          metrics_.completed->inc();
        } else {
          // Failures are not cached: a transient failure (bad_alloc under
          // load) must not pin an error as the permanent answer.
          metrics_.failed->inc();
        }
        inflight_.erase(batch[i]->spec.canonical);
      }
      running_ -= batch.size();
      metrics_.running->set(static_cast<std::int64_t>(running_));
    }
    // Fulfill outside the lock: joiners wake straight into future.get()'s
    // result without bouncing on mu_.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i]->promise.set_value(results[i]);
    }
    drained_cv_.notify_all();
  }
}

void Service::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  draining_ = true;
  drained_cv_.wait(lk, [&] { return queue_.empty() && running_ == 0; });
}

}  // namespace rfdnet::svc
