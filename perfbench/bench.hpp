#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rfdnetd;  ///< path of the daemon binary (whatif_daemon)
  std::string tmp_dir;  ///< private working directory of this run
};

/// What a workload hands back: operation accounting, the metrics of the
/// requested kind (end-to-end when untraced, per-layer when traced) and
/// human-readable lines printed before the result object.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a failed operation with its reason (the first few are kept).
  void fail(const std::string& why);
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// q-quantile (0..1) by linear interpolation between order statistics, the
/// same rule as numpy's default. Empty input gives 0.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Index of the lower-median element of `v` (the sample a breakdown is
/// taken from, so its parts add up to a value that was actually measured).
std::size_t median_index(const std::vector<double>& v);

/// The highest percentile with at least ten samples beyond it (0 when there
/// are fewer than 20 samples), as a whole-number percent.
int supported_percentile(std::size_t samples);

/// Peak resident set size of this process in MiB.
double self_peak_rss_mb();

// ------------------------------------------------------ host-speed reference

/// Uncontended time of one `reference_sample()` on the 4-vCPU host the
/// figures in README.md come from. Scaled times read as seconds on that
/// host when nothing contends for its caches.
constexpr double kReferenceS = 0.008;

/// Runs the fixed reference kernel on the calling thread and returns the
/// wall time of one pass. It depends on no rfdnet code and uses memory of
/// its own, so a change to the program cannot move it; only the speed of
/// the CPU it runs on does. Call it from one thread at a time.
double reference_sample();

/// Factor that turns a wall time measured between two reference samples
/// into a time at the reference speed: kReferenceS over their mean.
double reference_scale(double before_s, double after_s);

/// Pins the calling thread, and every thread and process it starts from
/// then on, to the CPU it runs on, so each unit and the reference samples
/// around it share one CPU. Does nothing where affinity is unavailable.
void pin_to_current_cpu();

/// Runs `fn` on every CPU the process started with (threads it starts
/// inherit that), then pins the calling thread again.
void run_unpinned(const std::function<void()>& fn);

/// Wall times of repeated pieces of work as measured, each with the
/// reference scale of the samples taken around it.
struct Timings {
  std::vector<double> wall_s;
  std::vector<double> scale;

  void add(double wall, double s) {
    wall_s.push_back(wall);
    scale.push_back(s);
  }
  /// Each wall time times its scale.
  std::vector<double> scaled() const;
};

/// Runs `setup` `times` times, each on a fresh thread so thread-local caches
/// (the AS-path intern table) start cold every time, between two reference
/// samples, and returns their timings. The last repetition's thread then
/// runs `after_last` — the timed phase — so the state the last setup warmed
/// is the state that is measured; the others run the untimed `after_other`
/// (e.g. stopping a daemon).
Timings repeated_setup(int times, const std::function<void()>& setup,
                       const std::function<void()>& after_last,
                       const std::function<void()>& after_other = {});

/// Traced runs alternate plain and traced units on the same inputs; this
/// reports `obs.profile_overhead`, the traced median over the plain median
/// minus one.
void report_overhead(const std::vector<double>& plain,
                     const std::vector<double>& traced, Outcome& out);

/// Timings of a closed loop of units and the end-to-end metrics they give.
struct UnitTimes {
  Timings units;  ///< each successful unit
  /// Scaled time of the spans the units ran in, and the successful units
  /// done in them; for throughput.
  double busy_s = 0.0;
  std::size_t done = 0;
};

/// Fills the end-to-end metrics from scaled times: `setup_s` (median
/// set-up), `unit_p50_s` (median unit), `ops_per_s` (units done over the
/// busy time) and `peak_rss_mb`. Notes the set-up count, the unit sample
/// count with the supported tail percentile, and the wall-clock medians as
/// measured.
void report_end_to_end(const Timings& setups, const UnitTimes& t,
                       double peak_rss_mb, Outcome& out);

// Workloads. Each fills `out` from `args` and may throw on a broken setup.
void run_paper_sweep(const Args& args, Outcome& out);
void run_internet_flap(const Args& args, Outcome& out);
void run_full_table_churn(const Args& args, Outcome& out);
void run_whatif_daemon(const Args& args, Outcome& out);

}  // namespace perfbench
