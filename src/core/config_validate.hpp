#pragma once

#include <string>

namespace rfdnet::core {

/// Config-validation helpers for the cross-cutting observability knobs,
/// shared by the `validate()` of `ExperimentConfig`, `FullTableConfig` and
/// `MultiOriginConfig`.
/// One implementation, one message shape — `"<who>: ..."`.

/// `stability_gap_s` must be strictly positive (and finite) whenever
/// stability collection is on; throws `std::invalid_argument` with
/// `"<who>: stability gap must be > 0"` otherwise.
void validate_stability_gap(bool collect_stability, double gap_s,
                            const std::string& who);

/// Telemetry knobs: `telemetry_period_s` and `heartbeat_s` are off at 0 and
/// must otherwise be finite, strictly positive and (for the telemetry grid,
/// which lives on the integer-microsecond clock) between one microsecond
/// and `sim::kMaxSpanS`.
/// Throws `std::invalid_argument` with a `"<who>: ..."` message.
void validate_telemetry(double telemetry_period_s, double heartbeat_s,
                        const std::string& who);

/// A span of `seconds` on the simulated clock must be finite and within
/// `sim::kMaxSpanS`; throws `std::invalid_argument` with
/// `"<what> must be finite and at most 1e9 s"` otherwise.
void validate_span(double seconds, const std::string& what);

}  // namespace rfdnet::core
