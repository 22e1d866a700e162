#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

void Outcome::fail(const std::string& why) {
  ++failed;
  if (failed <= 5) note("FAILED: " + why);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::size_t median_index(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&v](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return order.empty() ? 0 : order[(order.size() - 1) / 2];
}

int supported_percentile(std::size_t samples) {
  // p is supported when samples * (1 - p/100) >= 10.
  for (int p = 99; p >= 50; --p) {
    if (static_cast<double>(samples) * (100 - p) / 100.0 >= 10.0) return p;
  }
  return 0;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void report_overhead(const std::vector<double>& plain,
                     const std::vector<double>& traced, Outcome& out) {
  if (plain.empty() || traced.empty()) {
    throw std::runtime_error("traced run needs a plain and a traced unit");
  }
  out.metric("obs.profile_overhead", median(traced) / median(plain) - 1.0,
             "ratio");
}

std::vector<double> Timings::scaled() const {
  std::vector<double> v(wall_s.size());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = wall_s[i] * scale[i];
  return v;
}

Timings repeated_setup(int times, const std::function<void()>& setup,
                       const std::function<void()>& after_last,
                       const std::function<void()>& after_other) {
  Timings took;
  for (int i = 0; i < times; ++i) {
    std::exception_ptr error;
    std::thread worker([&] {
      try {
        const double before = reference_sample();
        const auto t0 = Clock::now();
        setup();
        const double wall = seconds_since(t0);
        took.add(wall, reference_scale(before, reference_sample()));
        if (i == times - 1) {
          after_last();
        } else if (after_other) {
          after_other();
        }
      } catch (...) {
        error = std::current_exception();
      }
    });
    worker.join();
    if (error) std::rethrow_exception(error);
  }
  return took;
}

void report_end_to_end(const Timings& setups, const UnitTimes& t,
                       double peak_rss_mb, Outcome& out) {
  if (t.units.wall_s.empty() || !(t.busy_s > 0)) {
    throw std::runtime_error("no unit completed");
  }
  const std::vector<double> units = t.units.scaled();
  out.metric("setup_s", median(setups.scaled()), "s");
  out.metric("unit_p50_s", median(units), "s");
  out.metric("ops_per_s", static_cast<double>(t.done) / t.busy_s, "1/s");
  out.metric("peak_rss_mb", peak_rss_mb, "MiB");
  char line[240];
  std::snprintf(line, sizeof line,
                "setup: median %.6f s scaled, %.6f s wall, over %zu set-ups",
                median(setups.scaled()), median(setups.wall_s),
                setups.wall_s.size());
  out.note(line);
  std::snprintf(line, sizeof line,
                "units (scaled): %zu samples, min %.6f s, p50 %.6f s, "
                "max %.6f s",
                units.size(), quantile(units, 0.0), quantile(units, 0.5),
                quantile(units, 1.0));
  out.note(line);
  if (const int p = supported_percentile(units.size()); p > 0) {
    std::snprintf(line, sizeof line,
                  "units (scaled): p%d %.6f s, the highest percentile with "
                  "ten samples beyond it",
                  p, quantile(units, p / 100.0));
    out.note(line);
  }
  std::snprintf(line, sizeof line,
                "units (wall): p50 %.6f s; reference scale min %.3f, "
                "p50 %.3f, max %.3f",
                median(t.units.wall_s), quantile(t.units.scale, 0.0),
                median(t.units.scale), quantile(t.units.scale, 1.0));
  out.note(line);
}

}  // namespace perfbench
