#include "rfd/params.hpp"

#include <cmath>
#include <cstdio>
#include <numbers>
#include <stdexcept>

#include "sim/time.hpp"

namespace rfdnet::rfd {

DampingParams DampingParams::cisco() {
  return DampingParams{};  // the defaults are the Cisco column of Table 1
}

DampingParams DampingParams::juniper() {
  DampingParams p;
  p.reannouncement_penalty = 1000.0;
  p.cutoff = 3000.0;
  return p;
}

double DampingParams::lambda() const { return std::numbers::ln2 / half_life_s; }

double DampingParams::ceiling() const {
  return reuse * std::exp2(max_suppress_s / half_life_s);
}

void DampingParams::validate() const {
  if (withdrawal_penalty < 0 || reannouncement_penalty < 0 ||
      attr_change_penalty < 0) {
    throw std::invalid_argument("DampingParams: negative penalty increment");
  }
  if (reuse <= 0) throw std::invalid_argument("DampingParams: reuse <= 0");
  if (cutoff <= reuse) {
    throw std::invalid_argument("DampingParams: cutoff must exceed reuse");
  }
  if (half_life_s <= 0) {
    throw std::invalid_argument("DampingParams: half-life <= 0");
  }
  if (max_suppress_s <= 0) {
    throw std::invalid_argument("DampingParams: max hold-down <= 0");
  }
  if (reuse_granularity_s < 0) {
    throw std::invalid_argument("DampingParams: negative granularity");
  }
  // Spans on the clock: reuse timers are scheduled from them.
  if (!sim::span_fits_clock(half_life_s) ||
      !sim::span_fits_clock(max_suppress_s) ||
      !sim::span_fits_clock(reuse_granularity_s)) {
    throw std::invalid_argument(
        "DampingParams: half-life, max hold-down and granularity must be "
        "finite and at most 1e9 s");
  }
  if (ceiling() <= cutoff) {
    // A ceiling at or below the cut-off would make suppression impossible.
    throw std::invalid_argument(
        "DampingParams: max hold-down too small for cutoff");
  }
}

std::string DampingParams::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{PW=%g PA=%g Pattr=%g cut=%g reuse=%g H=%gs maxhold=%gs "
                "ceiling=%g}",
                withdrawal_penalty, reannouncement_penalty, attr_change_penalty,
                cutoff, reuse, half_life_s, max_suppress_s, ceiling());
  return buf;
}

}  // namespace rfdnet::rfd
