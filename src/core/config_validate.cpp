#include "core/config_validate.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/time.hpp"

namespace rfdnet::core {

void validate_stability_gap(bool collect_stability, double gap_s,
                            const std::string& who) {
  if (!collect_stability) return;
  if (!(std::isfinite(gap_s) && gap_s > 0)) {
    throw std::invalid_argument(who + ": stability gap must be > 0");
  }
}

void validate_telemetry(double telemetry_period_s, double heartbeat_s,
                        const std::string& who) {
  if (telemetry_period_s != 0.0) {
    if (!(std::isfinite(telemetry_period_s) && telemetry_period_s > 0)) {
      throw std::invalid_argument(who + ": telemetry period must be > 0");
    }
    // The sampling grid lives on the integer-microsecond simulation clock; a
    // sub-microsecond period would round to an empty step and loop forever.
    if (telemetry_period_s < 1e-6) {
      throw std::invalid_argument(who +
                                  ": telemetry period must be >= 1 microsecond");
    }
    validate_span(telemetry_period_s, who + ": telemetry period");
  }
  if (heartbeat_s != 0.0 &&
      !(std::isfinite(heartbeat_s) && heartbeat_s > 0)) {
    throw std::invalid_argument(who + ": heartbeat period must be > 0");
  }
}

void validate_span(double seconds, const std::string& what) {
  if (!sim::span_fits_clock(seconds)) {
    throw std::invalid_argument(what + " must be finite and at most 1e9 s");
  }
}

}  // namespace rfdnet::core
