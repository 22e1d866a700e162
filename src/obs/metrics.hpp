#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace rfdnet::obs {

/// Monotone event count. Instrumented components hold a `Counter*` obtained
/// from a `Registry` once at wiring time, so the hot path is a single
/// increment — no name lookup, no hashing.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  friend class Registry;
  std::uint64_t value_ = 0;
};

/// Instantaneous level with a high-water mark (e.g. heap size, pending
/// depth). Merging sums the final levels and takes the max of the marks.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  void add(std::int64_t delta) { set(value_ + delta); }
  std::int64_t value() const { return value_; }
  std::int64_t max() const { return max_; }

 private:
  friend class Registry;
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Fixed-bound histogram: `bounds()[i]` is the inclusive upper edge of
/// bucket i; one implicit overflow bucket catches everything above the last
/// bound. Bounds are fixed at creation so merging is bucket-wise addition.
class Histogram {
 public:
  Histogram() : Histogram(default_bounds()) {}
  explicit Histogram(std::vector<double> upper_bounds);

  /// NaN observations are dropped — a NaN would poison `sum()` and fall into
  /// the overflow bucket (every comparison with a bound is false), silently
  /// skewing the tail estimate.
  void observe(double x);

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation within the
  /// bucket holding the target rank; the first bucket interpolates from 0 and
  /// the overflow bucket clamps to the last bound. NaN when empty.
  double quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Size `bounds().size() + 1`; the last entry is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  /// Adds pre-bucketed observations: bucket-wise counts (must match this
  /// histogram's bucket count, bounds + overflow) plus their summed value.
  /// Lets integer accumulators (the stability trains) land in the registry
  /// without replaying individual observations.
  void inject(const std::vector<std::uint64_t>& bucket_counts, double sum);

  /// Decades from 1 to 10^4 — spans the damping penalty range (paper
  /// increments are 500..1000, ceiling ~12000).
  static std::vector<double> default_bounds();

 private:
  friend class Registry;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Named metrics for one simulation run. Backed by `std::map`, so metric
/// addresses are stable across inserts (components keep raw pointers) and
/// every export iterates in sorted name order — two registries holding the
/// same values always serialize byte-identically.
class Registry {
 public:
  /// Get-or-create. The returned reference stays valid for the registry's
  /// lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = Histogram::default_bounds());

  /// Folds `other` into this registry: counters and histogram buckets add,
  /// gauge levels add and high-water marks take the max. Addition is
  /// commutative, so any merge order yields the same registry; sweep code
  /// still merges in canonical (point, seed) order. Histograms with the
  /// same name must share bounds (throws `std::logic_error` otherwise).
  void merge(const Registry& other);

  bool empty() const;
  std::size_t size() const;

  /// Single JSON object, keys sorted: {"counters":{...},"gauges":{...},
  /// "histograms":{...}}. Deterministic for equal contents.
  void write_json(std::ostream& os) const;
  std::string json() const;

  /// Human-readable block, one metric per line, for report footers.
  void write_summary(std::ostream& os, const std::string& indent = "  ") const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Typed wiring bundle for `sim::Engine`. `bind` registers the metrics under
/// canonical names; the engine then increments through the pointers.
///
/// The fields split into *logical* counters (one increment per logical
/// simulation event — handler-driven schedules, cancels, fires — so
/// per-shard values add to the serial value exactly) and
/// *partition-dependent* figures (compaction count, heap/live occupancy:
/// artifacts of how the event set is laid out across engines).
/// `bind_logical` registers only the former and leaves the rest null — the
/// shape the sharded drivers use; the engine null-checks the
/// partition-dependent pointers on the hot path.
struct EngineMetrics {
  // Logical, shard-mergeable.
  Counter* scheduled = nullptr;    ///< events accepted by schedule_at/after
  Counter* cancelled = nullptr;    ///< successful cancels
  Counter* fired = nullptr;        ///< events executed
  // Partition-dependent (serial-only).
  Counter* compactions = nullptr;  ///< heap rebuilds dropping stale entries
  Gauge* heap = nullptr;           ///< heap entries held (incl. stale)
  Gauge* live = nullptr;           ///< live (pending) events

  static EngineMetrics bind(Registry& r);
  /// Logical counters only; partition-dependent members stay null.
  static EngineMetrics bind_logical(Registry& r);
};

/// Typed wiring bundle for `bgp::BgpRouter` (shared by all routers of a
/// network — the counts aggregate).
///
/// `sends`/`withdrawals`/`mrai_deferrals` are logical counters (each wire
/// event counted on exactly one router, hence one shard) and merge exactly
/// across shard counts; the pending gauge records an instantaneous level
/// whose high-water mark depends on the partition, so `bind_logical` leaves
/// it null and the router null-checks it on the hot path.
struct RouterMetrics {
  // Logical, shard-mergeable.
  Counter* sends = nullptr;           ///< updates put on the wire
  Counter* withdrawals = nullptr;     ///< subset of sends that withdraw
  Counter* mrai_deferrals = nullptr;  ///< flush attempts blocked by MRAI
  // Partition-dependent (serial-only).
  Gauge* pending = nullptr;           ///< updates held back (pending depth)

  static RouterMetrics bind(Registry& r);
  /// Logical counters only; the gauge stays null.
  static RouterMetrics bind_logical(Registry& r);
};

/// Typed wiring bundle for `rfd::DampingModule` (shared by all modules).
///
/// The counters are logical (each damping event happens on exactly one
/// module, hence one shard) and merge exactly; the penalty histogram sums
/// doubles in observation order (order-dependent across partitions), so
/// `bind_logical` leaves it null and the module null-checks it on the hot
/// path.
struct DampingMetrics {
  // Logical, shard-mergeable.
  Counter* charges = nullptr;       ///< penalty increments actually applied
  Counter* suppressions = nullptr;  ///< entries crossing the cut-off
  Counter* reuses = nullptr;        ///< reuse timers fired on suppressed entries
  Counter* reschedules = nullptr;   ///< reuse timers cancelled + moved out
  // Partition-dependent (serial-only).
  Histogram* penalty = nullptr;     ///< post-charge penalty values

  static DampingMetrics bind(Registry& r);
  /// Logical counters only; the histogram stays null.
  static DampingMetrics bind_logical(Registry& r);
};

/// Residency gauges, set by the drivers from their own samples rather than
/// on the hot path: resident per-prefix RIB rows (RIB-IN + Loc-RIB +
/// RIB-OUT) over all routers, damping entry-store rows (`tracked`) and
/// live-penalty entries (`active`, what the RFC 2439 memory limit bounds)
/// over all damping modules. Each has a `_peak` twin holding the in-run
/// high-water mark the driver sampled.
struct ResidencyMetrics {
  Gauge* rib = nullptr;
  Gauge* rib_peak = nullptr;
  Gauge* tracked = nullptr;
  Gauge* tracked_peak = nullptr;
  Gauge* active = nullptr;
  Gauge* active_peak = nullptr;

  static ResidencyMetrics bind(Registry& r);
};

/// Typed wiring bundle for the damping-phase timeline recorder (one per
/// run): per-phase occupancy histograms (interval durations in seconds)
/// plus the interval count, filled from the finalized timeline.
struct PhaseMetrics {
  Histogram* charging = nullptr;     ///< charging interval durations (s)
  Histogram* suppression = nullptr;  ///< suppression interval durations (s)
  Histogram* releasing = nullptr;    ///< releasing interval durations (s)
  Counter* intervals = nullptr;      ///< total timeline intervals recorded

  static PhaseMetrics bind(Registry& r);
};

/// Typed wiring bundle for `fault::FaultInjector` (one per run).
struct FaultMetrics {
  Counter* injected = nullptr;       ///< fault events applied
  Counter* link_downs = nullptr;     ///< links actually taken down
  Counter* link_ups = nullptr;       ///< links actually restored
  Counter* restarts = nullptr;       ///< router restarts (RIB + damping flush)
  Counter* perturb_drops = nullptr;  ///< messages dropped by perturbation
  Counter* perturb_delays = nullptr; ///< messages given extra delay
  Gauge* held_links = nullptr;       ///< links currently held down by faults

  static FaultMetrics bind(Registry& r);
};

/// Typed wiring bundle for the streaming stability analytics
/// (`obs::StabilityTracker`): update-train counts, scores and shape
/// histograms, filled once at end of run from the finalized (and, under
/// sharding, merged) `StabilityReport`. Every figure is a pure integer
/// accumulation or a ratio of integers, so — unlike the other bundles —
/// this one is legal in sharded runs and byte-identical at any shard count.
struct StabilityMetrics {
  Counter* updates = nullptr;      ///< updates observed at send instants
  Counter* withdrawals = nullptr;  ///< subset that withdraw
  Counter* trains = nullptr;       ///< update trains closed
  Counter* singletons = nullptr;   ///< trains of exactly one update
  Counter* suppressions = nullptr; ///< damping suppressions folded per key
  Counter* reuses = nullptr;       ///< reuse fires folded per key
  Gauge* keys = nullptr;           ///< distinct (from,to,prefix) detectors
  Gauge* max_train_len = nullptr;  ///< longest train seen (updates)
  Gauge* score_ppm = nullptr;      ///< stability score, parts-per-million
  Histogram* train_len = nullptr;       ///< train lengths (updates)
  Histogram* train_duration = nullptr;  ///< train durations (s)
  Histogram* intra_arrival = nullptr;   ///< within-train inter-arrivals (s)

  static StabilityMetrics bind(Registry& r);

  /// Fills the bundle from a finalized report (canonical fold order).
  void record(const struct StabilityReport& report) const;
};

/// Typed wiring bundle for the what-if daemon (`svc::Service`): job-flow
/// counters plus instantaneous queue/execution gauges. Counters and gauges
/// are not thread-safe on their own; the service mutates the whole bundle
/// under its state mutex. Volatile by nature (arrival order, cache state),
/// so these figures feed the status line and `status` responses, never a
/// deterministic artifact.
struct SvcMetrics {
  Counter* accepted = nullptr;      ///< jobs admitted to the queue
  Counter* completed = nullptr;     ///< jobs finished successfully
  Counter* failed = nullptr;        ///< jobs that threw in the driver
  Counter* cache_hits = nullptr;    ///< responses served from the LRU cache
  Counter* coalesced = nullptr;     ///< submissions joined onto an in-flight twin
  Counter* rejected_full = nullptr;      ///< 429s: bounded queue at capacity
  Counter* rejected_draining = nullptr;  ///< 503s: submitted during drain
  Gauge* queue_depth = nullptr;     ///< jobs queued, not yet dispatched
  Gauge* running = nullptr;         ///< jobs currently executing

  static SvcMetrics bind(Registry& r);
};

/// Typed wiring bundle for `sim::ShardedEngine` runs (one per run).
/// Diagnostics only: every figure here depends on the partition and the
/// host's thread timing, so these gauges must never feed a deterministic
/// artifact (the sharded drivers keep them out of scorecards by design).
struct ShardMetrics {
  Counter* rounds = nullptr;          ///< barrier-synchronized rounds executed
  Counter* cross_posted = nullptr;    ///< messages posted to foreign inboxes
  Counter* cross_admitted = nullptr;  ///< inbox messages admitted into shards
  Gauge* shards = nullptr;            ///< shard count of the run
  Gauge* cut_links = nullptr;         ///< undirected links crossing shards
  Gauge* lookahead_us = nullptr;      ///< conservative window (microseconds)
  Gauge* barrier_wait_us = nullptr;   ///< summed barrier wait (microseconds)

  static ShardMetrics bind(Registry& r);

  /// Copies one run's figures out of the engine stats / partition.
  void record(std::uint64_t rounds_n, std::uint64_t posted,
              std::uint64_t admitted, int shard_count, std::size_t cuts,
              double lookahead_s, std::uint64_t wait_ns) const;
};

}  // namespace rfdnet::obs
