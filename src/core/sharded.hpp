#pragma once

#include <string>

#include "core/experiment.hpp"
#include "net/partition.hpp"
#include "sim/sharded_engine.hpp"

namespace rfdnet::core {

/// Result of a sharded experiment run: the canonical merged result (all
/// per-shard recorder streams merged into one deterministic artifact) plus
/// the parallel-run diagnostics. `base` is byte-for-byte identical across
/// shard counts for the same config; everything outside `base` (partition
/// shape, rounds, barrier wall time) legitimately depends on the shard
/// count and stays out of the scorecard.
struct ShardedExperimentResult {
  ExperimentResult base;
  net::Partition partition;
  sim::ShardedEngine::Stats engine_stats;
  double lookahead_s = 0.0;
  /// Every update-delivery instant (re-based, sorted): the finest-grained
  /// shard-count-invariant artifact, serialized into the scorecard so a
  /// single reordered delivery anywhere breaks byte-identity.
  std::vector<double> delivery_times;

  /// Deterministic serialization of `base`'s shard-count-invariant fields
  /// (doubles at max_digits10): two runs of the same config at different
  /// shard counts must produce byte-identical scorecards — the determinism
  /// contract the test suite enforces. Wall-clock, partition and round
  /// figures are excluded by design.
  std::string scorecard() const;
};

/// Runs one experiment sharded across `shards` cores (clamped to the node
/// count; 1 = one shard on the calling thread). The world, workload and
/// PRNG sub-seeding are the serial driver's; the per-shard streams merge
/// into one result that is byte-identical at every shard count.
///
/// Narrower than `run_experiment`: configs asking for link-session flaps,
/// fault injection, tracing/spans or profiling are rejected with
/// `std::invalid_argument` — those features are inherently cross-shard and
/// stay serial-only. Two obs features are shard-legal and byte-identical
/// across shard counts: the streaming stability bundle
/// (`collect_stability`) and the logical-counter subset of the metric
/// bundles plus sim-time telemetry (`collect_metrics` /
/// `telemetry_period_s`) — per-shard integer accumulators that merge
/// exactly. The partition-dependent remainder of the metric bundles
/// (heap/live/pending gauges, the penalty histogram, the residency gauges)
/// is never bound here, so a sharded `--metrics` registry holds strictly
/// fewer figures than a serial one.
ShardedExperimentResult run_sharded_experiment(const ExperimentConfig& cfg,
                                               int shards);

}  // namespace rfdnet::core
