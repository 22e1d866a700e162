#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/config.hpp"
#include "core/experiment.hpp"
#include "rfd/params.hpp"

namespace rfdnet::core {

/// Workload with several independently flapping origins — the aggregate
/// regime RFC 3221 credits damping for ("keeping the global update load
/// under control"). The paper studies one unstable destination; this driver
/// attaches `origins` customer ASes to distinct random ISPs and flaps each
/// one's prefix with a per-origin phase offset.
struct MultiOriginConfig {
  TopologySpec topology;
  bgp::TimingConfig timing;
  std::optional<rfd::DampingParams> damping = rfd::DampingParams::cisco();
  bool rcn = false;

  int origins = 4;
  int pulses = 5;
  double flap_interval_s = 60.0;
  /// Offset between consecutive origins' first flaps (decorrelates waves).
  double stagger_s = 15.0;

  std::uint64_t seed = 1;
  double max_sim_s = 50000.0;

  /// Throws `std::invalid_argument` for a value no run can use, before
  /// anything is simulated. What needs the graph (enough nodes for the
  /// origins) is checked as soon as it is built.
  void validate() const;
};

struct MultiOriginResult {
  /// Updates delivered network-wide from the first flap on.
  std::uint64_t message_count = 0;
  /// From the last origin's final announcement to the last update seen.
  double convergence_time_s = 0.0;
  std::uint64_t suppress_events = 0;
  double max_penalty = 0.0;
  /// Per origin: did its ispAS suppress its prefix?
  std::vector<bool> isp_suppressed;
  bool hit_horizon = false;
};

/// Runs the multi-origin workload. Deterministic for a given config.
MultiOriginResult run_multi_origin(const MultiOriginConfig& cfg);

}  // namespace rfdnet::core
