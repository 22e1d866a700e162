#include "obs/metrics.hpp"

#include "obs/stability.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rfdnet::obs {

namespace {

/// Shortest round-trip formatting, so equal doubles always print the same
/// bytes (JSON determinism is checked by the sweep property tests).
std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_quoted(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1, 0) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be sorted");
  }
}

void Histogram::observe(double x) {
  if (std::isnan(x)) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += x;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return std::nan("");
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double prev = cum;
    cum += static_cast<double>(buckets_[i]);
    if (cum < rank || buckets_[i] == 0) continue;
    // Overflow bucket has no upper edge; clamp the estimate to the last
    // bound (the histogram cannot say more).
    if (i >= bounds_.size()) return bounds_.empty() ? 0.0 : bounds_.back();
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    const double hi = bounds_[i];
    const double frac = (rank - prev) / static_cast<double>(buckets_[i]);
    return lo + (hi - lo) * frac;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::inject(const std::vector<std::uint64_t>& bucket_counts,
                       double sum) {
  if (bucket_counts.size() != buckets_.size()) {
    throw std::logic_error("Histogram::inject: bucket count mismatch");
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += bucket_counts[i];
    count_ += bucket_counts[i];
  }
  sum_ += sum;
}

std::vector<double> Histogram::default_bounds() {
  return {1.0, 10.0, 100.0, 1000.0, 10000.0};
}

Counter& Registry::counter(const std::string& name) { return counters_[name]; }

Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(bounds))).first->second;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].value_ += c.value_;
  }
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauges_[name];
    mine.value_ += g.value_;
    mine.max_ = std::max(mine.max_, g.max_);
  }
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
      continue;
    }
    Histogram& mine = it->second;
    if (mine.bounds_ != h.bounds_) {
      throw std::logic_error("Registry::merge: histogram bounds differ: " +
                             name);
    }
    for (std::size_t i = 0; i < mine.buckets_.size(); ++i) {
      mine.buckets_[i] += h.buckets_[i];
    }
    mine.count_ += h.count_;
    mine.sum_ += h.sum_;
  }
}

bool Registry::empty() const {
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

std::size_t Registry::size() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

void Registry::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    write_quoted(os, name);
    os << ':' << c.value_;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    write_quoted(os, name);
    os << ":{\"value\":" << g.value_ << ",\"max\":" << g.max_ << '}';
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    write_quoted(os, name);
    os << ":{\"count\":" << h.count_ << ",\"sum\":" << fmt_double(h.sum_)
       << ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds_.size(); ++i) {
      if (i > 0) os << ',';
      os << fmt_double(h.bounds_[i]);
    }
    os << "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets_.size(); ++i) {
      if (i > 0) os << ',';
      os << h.buckets_[i];
    }
    os << "]}";
  }
  os << "}}";
}

std::string Registry::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void Registry::write_summary(std::ostream& os, const std::string& indent) const {
  for (const auto& [name, c] : counters_) {
    os << indent << name << " = " << c.value_ << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << indent << name << " = " << g.value_ << " (max " << g.max_ << ")\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << indent << name << " = count " << h.count_ << ", sum "
       << fmt_double(h.sum_);
    if (h.count_ > 0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), ", p50 ~%.3g, p90 ~%.3g, p99 ~%.3g",
                    h.quantile(0.50), h.quantile(0.90), h.quantile(0.99));
      os << buf;
    }
    os << '\n';
  }
}

EngineMetrics EngineMetrics::bind_logical(Registry& r) {
  EngineMetrics m;
  m.scheduled = &r.counter("engine.scheduled");
  m.cancelled = &r.counter("engine.cancelled");
  m.fired = &r.counter("engine.fired");
  return m;
}

EngineMetrics EngineMetrics::bind(Registry& r) {
  EngineMetrics m = bind_logical(r);
  m.compactions = &r.counter("engine.compactions");
  m.heap = &r.gauge("engine.heap");
  m.live = &r.gauge("engine.live");
  return m;
}

RouterMetrics RouterMetrics::bind_logical(Registry& r) {
  RouterMetrics m;
  m.sends = &r.counter("bgp.sends");
  m.withdrawals = &r.counter("bgp.withdrawals");
  m.mrai_deferrals = &r.counter("bgp.mrai_deferrals");
  return m;
}

RouterMetrics RouterMetrics::bind(Registry& r) {
  RouterMetrics m = bind_logical(r);
  m.pending = &r.gauge("bgp.pending");
  return m;
}

DampingMetrics DampingMetrics::bind_logical(Registry& r) {
  DampingMetrics m;
  m.charges = &r.counter("rfd.charges");
  m.suppressions = &r.counter("rfd.suppressions");
  m.reuses = &r.counter("rfd.reuses");
  m.reschedules = &r.counter("rfd.reschedules");
  return m;
}

DampingMetrics DampingMetrics::bind(Registry& r) {
  DampingMetrics m = bind_logical(r);
  m.penalty = &r.histogram("rfd.penalty");
  return m;
}

ResidencyMetrics ResidencyMetrics::bind(Registry& r) {
  ResidencyMetrics m;
  m.rib = &r.gauge("bgp.rib_resident");
  m.rib_peak = &r.gauge("bgp.rib_resident_peak");
  m.tracked = &r.gauge("rfd.tracked_entries");
  m.tracked_peak = &r.gauge("rfd.tracked_entries_peak");
  m.active = &r.gauge("rfd.active_entries");
  m.active_peak = &r.gauge("rfd.active_entries_peak");
  return m;
}

PhaseMetrics PhaseMetrics::bind(Registry& r) {
  // Duration buckets in seconds: sub-minute through the ~1h suppression tail.
  const std::vector<double> secs = {1.0, 10.0, 60.0, 300.0, 900.0, 3600.0};
  PhaseMetrics m;
  m.charging = &r.histogram("phase.charging", secs);
  m.suppression = &r.histogram("phase.suppression", secs);
  m.releasing = &r.histogram("phase.releasing", secs);
  m.intervals = &r.counter("phase.intervals");
  return m;
}

FaultMetrics FaultMetrics::bind(Registry& r) {
  FaultMetrics m;
  m.injected = &r.counter("fault.injected");
  m.link_downs = &r.counter("fault.link_downs");
  m.link_ups = &r.counter("fault.link_ups");
  m.restarts = &r.counter("fault.restarts");
  m.perturb_drops = &r.counter("fault.perturb_drops");
  m.perturb_delays = &r.counter("fault.perturb_delays");
  m.held_links = &r.gauge("fault.held_links");
  return m;
}

namespace {

/// Registry-side bucket edges mirroring a FixedHist's integer bounds, scaled
/// by `unit` (1e6 for microsecond histograms reported in seconds).
std::vector<double> scaled_bounds(const std::vector<std::int64_t>& bounds,
                                  double unit) {
  std::vector<double> out;
  out.reserve(bounds.size());
  for (const std::int64_t b : bounds) {
    out.push_back(static_cast<double>(b) / unit);
  }
  return out;
}

}  // namespace

StabilityMetrics StabilityMetrics::bind(Registry& r) {
  StabilityMetrics m;
  m.updates = &r.counter("stability.updates");
  m.withdrawals = &r.counter("stability.withdrawals");
  m.trains = &r.counter("stability.trains");
  m.singletons = &r.counter("stability.singleton_trains");
  m.suppressions = &r.counter("stability.suppressions");
  m.reuses = &r.counter("stability.reuses");
  m.keys = &r.gauge("stability.keys");
  m.max_train_len = &r.gauge("stability.max_train_len");
  m.score_ppm = &r.gauge("stability.score_ppm");
  m.train_len = &r.histogram(
      "stability.train_len",
      scaled_bounds(StabilityReport::train_len_bounds(), 1.0));
  m.train_duration = &r.histogram(
      "stability.train_duration_s",
      scaled_bounds(StabilityReport::duration_bounds_us(), 1e6));
  m.intra_arrival = &r.histogram(
      "stability.intra_arrival_s",
      scaled_bounds(StabilityReport::intra_bounds_us(), 1e6));
  return m;
}

void StabilityMetrics::record(const StabilityReport& report) const {
  updates->inc(report.updates);
  withdrawals->inc(report.withdrawals);
  trains->inc(report.trains);
  singletons->inc(report.singletons);
  suppressions->inc(report.suppresses);
  reuses->inc(report.reuses);
  keys->set(static_cast<std::int64_t>(report.keys.size()));
  max_train_len->set(static_cast<std::int64_t>(report.max_len));
  // Integer parts-per-million: the gauge stays shard-count-invariant (the
  // score is a ratio of merged integer totals).
  score_ppm->set(static_cast<std::int64_t>(report.score() * 1e6 + 0.5));
  // Histograms land pre-bucketed: the tracker accumulates integer
  // microsecond sums, so the double `sum` here is a single conversion, not
  // an order-dependent accumulation.
  train_len->inject(report.train_len_hist.buckets(),
                    static_cast<double>(report.train_len_hist.sum()));
  train_duration->inject(
      report.train_dur_hist.buckets(),
      static_cast<double>(report.train_dur_hist.sum()) / 1e6);
  intra_arrival->inject(report.intra_hist.buckets(),
                        static_cast<double>(report.intra_hist.sum()) / 1e6);
}

SvcMetrics SvcMetrics::bind(Registry& r) {
  SvcMetrics m;
  m.accepted = &r.counter("svc.jobs_accepted");
  m.completed = &r.counter("svc.jobs_completed");
  m.failed = &r.counter("svc.jobs_failed");
  m.cache_hits = &r.counter("svc.cache_hits");
  m.coalesced = &r.counter("svc.singleflight_joins");
  m.rejected_full = &r.counter("svc.rejected_queue_full");
  m.rejected_draining = &r.counter("svc.rejected_draining");
  m.queue_depth = &r.gauge("svc.queue_depth");
  m.running = &r.gauge("svc.running");
  return m;
}

ShardMetrics ShardMetrics::bind(Registry& r) {
  ShardMetrics m;
  m.rounds = &r.counter("shard.rounds");
  m.cross_posted = &r.counter("shard.cross_posted");
  m.cross_admitted = &r.counter("shard.cross_admitted");
  m.shards = &r.gauge("shard.shards");
  m.cut_links = &r.gauge("shard.cut_links");
  m.lookahead_us = &r.gauge("shard.lookahead_us");
  m.barrier_wait_us = &r.gauge("shard.barrier_wait_us");
  return m;
}

void ShardMetrics::record(std::uint64_t rounds_n, std::uint64_t posted,
                          std::uint64_t admitted, int shard_count,
                          std::size_t cuts, double lookahead_s,
                          std::uint64_t wait_ns) const {
  rounds->inc(rounds_n);
  cross_posted->inc(posted);
  cross_admitted->inc(admitted);
  shards->set(shard_count);
  cut_links->set(static_cast<std::int64_t>(cuts));
  lookahead_us->set(static_cast<std::int64_t>(lookahead_s * 1e6));
  barrier_wait_us->set(static_cast<std::int64_t>(wait_ns / 1000));
}

}  // namespace rfdnet::obs
