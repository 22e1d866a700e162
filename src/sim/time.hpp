#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace rfdnet::sim {

/// Longest span, in seconds, that a config may put on the clock (about 32
/// years). `Duration` holds about ±9.2e12 s, so a run's sum of such spans
/// stays far inside it; past the range `Duration::seconds` has no defined
/// result. Configs reject longer and non-finite spans.
inline constexpr double kMaxSpanS = 1e9;

/// Whether `s` seconds is finite and within ±`kMaxSpanS`.
inline bool span_fits_clock(double s) {
  return std::isfinite(s) && std::fabs(s) <= kMaxSpanS;
}

/// Length of simulated time with microsecond resolution.
///
/// All simulation timing uses integer microseconds internally so that event
/// ordering is exact and runs are bit-for-bit reproducible; `double` seconds
/// are accepted at the API boundary for convenience.
class Duration {
 public:
  constexpr Duration() = default;

  /// Duration from a raw microsecond count.
  static constexpr Duration micros(std::int64_t us) { return Duration{us}; }
  static constexpr Duration millis(std::int64_t ms) {
    return Duration{ms * 1000};
  }
  /// Duration from (possibly fractional) seconds, rounded to the nearest
  /// microsecond.
  static Duration seconds(double s) {
    return Duration{static_cast<std::int64_t>(std::llround(s * 1e6))};
  }
  static constexpr Duration zero() { return Duration{0}; }
  static constexpr Duration max() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t as_micros() const { return us_; }
  constexpr double as_seconds() const {
    return static_cast<double>(us_) / 1e6;
  }

  constexpr bool is_zero() const { return us_ == 0; }
  constexpr bool is_negative() const { return us_ < 0; }

  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration{a.us_ + b.us_};
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration{a.us_ - b.us_};
  }
  friend constexpr Duration operator*(Duration a, std::int64_t k) {
    return Duration{a.us_ * k};
  }
  friend constexpr Duration operator*(std::int64_t k, Duration a) {
    return a * k;
  }
  constexpr auto operator<=>(const Duration&) const = default;

  std::string to_string() const;

 private:
  constexpr explicit Duration(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

/// A point on the simulated clock. Time zero is the start of the simulation.
class SimTime {
 public:
  constexpr SimTime() = default;

  static constexpr SimTime from_micros(std::int64_t us) { return SimTime{us}; }
  static SimTime from_seconds(double s) {
    return SimTime{} + Duration::seconds(s);
  }
  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t as_micros() const { return us_; }
  constexpr double as_seconds() const {
    return static_cast<double>(us_) / 1e6;
  }

  friend constexpr SimTime operator+(SimTime t, Duration d) {
    return SimTime{t.us_ + d.as_micros()};
  }
  friend constexpr SimTime operator+(Duration d, SimTime t) { return t + d; }
  friend constexpr SimTime operator-(SimTime t, Duration d) {
    return SimTime{t.us_ - d.as_micros()};
  }
  friend constexpr Duration operator-(SimTime a, SimTime b) {
    return Duration::micros(a.us_ - b.us_);
  }
  constexpr auto operator<=>(const SimTime&) const = default;

  std::string to_string() const;

 private:
  constexpr explicit SimTime(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

}  // namespace rfdnet::sim
