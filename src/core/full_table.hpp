#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "bgp/config.hpp"
#include "bgp/rib_backend.hpp"
#include "obs/metrics.hpp"
#include "obs/stability.hpp"
#include "rfd/params.hpp"

namespace rfdnet::core {

/// Full-table churn workload: the paper studies one flapping destination in
/// depth; this driver scales the other axis. An origin router announces
/// `prefixes` distinct prefixes down a line of ASes, then a Zipf-distributed
/// toggle stream (heavy-tailed per-prefix instability, as BGP measurement
/// studies report) withdraws and re-announces them. The hot head of the
/// distribution keeps damping penalties, MRAI pacing and suppression timers
/// busy while the cold tail exercises per-prefix state reclamation — the
/// leak this PR's bugfix closes — and the RFC 2439 memory-limit prune.
///
/// All RIB tables and damping entry stores run on `rib_backend`: hash (the
/// store; `radix` is a name for it), or null, which retains nothing and
/// measures pure engine/transport overhead.
struct FullTableConfig {
  /// Distinct prefixes the origin announces (>= 1).
  std::size_t prefixes = 100000;
  /// Zipf skew of the toggle stream; 0 = uniform.
  double alpha = 1.0;
  /// Withdraw/re-announce toggles after warm-up.
  std::uint64_t events = 200000;
  /// Spacing between consecutive toggles.
  double event_interval_s = 0.05;
  /// Routers in the line topology (>= 2); node 0 is the origin.
  int routers = 4;
  double link_delay_s = 0.001;

  bgp::RibBackendKind rib_backend = bgp::RibBackendKind::kHashMap;
  bgp::TimingConfig timing;
  /// Damping on every router, or nullopt for no damping.
  std::optional<rfd::DampingParams> damping = rfd::DampingParams::cisco();

  std::uint64_t seed = 1;
  /// Residency sampling points spread across the toggle stream (>= 1).
  std::size_t samples = 64;

  /// Streaming update-train analytics over every directed (from, to, prefix)
  /// stream (`obs::StabilityTracker`): per-shard trackers merge exactly into
  /// `FullTableResult::stability` plus the `stability.*` metric bundle.
  bool collect_stability = false;
  /// Quiet-gap threshold of the train detectors (seconds, > 0).
  double stability_gap_s = obs::StabilityTracker::kDefaultGapS;
  /// Extra simulated time after the last toggle for the network to drain.
  double cooldown_s = 120.0;

  /// > 0 samples counters and residency probes every `telemetry_period_s`
  /// simulated seconds into `FullTableResult::telemetry_jsonl`. The sampled
  /// series hold only logical figures, so they are byte-identical across
  /// shard counts.
  double telemetry_period_s = 0.0;
  /// > 0 prints a wall-clock progress heartbeat to stderr roughly every
  /// `heartbeat_s` real seconds. Volatile; never part of any artifact.
  double heartbeat_s = 0.0;

  /// Shards the line is partitioned into (clamped to the router count),
  /// run under conservative-lookahead barriers; 0 and 1 both run one shard
  /// on the calling thread. Every artifact — scorecard, metrics, telemetry,
  /// stability — is byte-identical at every shard count.
  int shards = 0;

  void validate() const;
};

struct FullTableResult {
  std::uint64_t toggles_applied = 0;
  std::uint64_t updates_delivered = 0;  ///< churn phase, network-wide
  std::uint64_t updates_sent = 0;       ///< churn phase, all routers
  double sim_duration_s = 0.0;          ///< simulated churn + cooldown span
  bool hit_horizon = false;             ///< events still pending at the end

  /// Resident RIB rows, one per (router, prefix) with any RIB-IN, Loc-RIB or
  /// RIB-OUT state, summed over all routers and sampled at `samples`
  /// fixed instants across the toggle stream and after cooldown (final);
  /// `peak` is the largest of those sums. The reclamation bugfix keeps
  /// `final` at the reachable-prefix baseline instead of
  /// everything-ever-heard.
  std::size_t peak_rib_resident = 0;
  std::size_t final_rib_resident = 0;
  /// Damping entry-store rows (tracked) and live-penalty entries (active,
  /// what the RFC 2439 memory limit bounds), summed over all modules.
  std::size_t peak_damping_tracked = 0;
  std::size_t final_damping_tracked = 0;
  std::size_t peak_damping_active = 0;
  std::size_t final_damping_active = 0;

  /// The logical counters of the router and damping bundles for the whole
  /// run (`bind_logical`, exact per-shard sums), the six residency gauges
  /// (`bgp.rib_resident`, `rfd.tracked_entries`, `rfd.active_entries` and
  /// their `_peak` twins, mirroring the fields above), plus `stability.*`
  /// when requested.
  obs::Registry metrics;

  /// Streaming update-train report for the whole run; nullopt unless
  /// `FullTableConfig::collect_stability` was set. The scorecard embeds only
  /// its aggregate summary — the per-key space is O(prefixes * links).
  std::optional<obs::StabilityReport> stability;

  /// Deterministic telemetry series (JSONL) and its compact summary; empty
  /// unless `FullTableConfig::telemetry_period_s` > 0. Not embedded in the
  /// scorecard — exported separately — but byte-identical across shard
  /// counts, which `ShardedDeterminism` asserts.
  std::string telemetry_jsonl;
  std::string telemetry_summary;

  /// Wall-clock seconds of the churn phase and the derived throughput
  /// (delivered updates per wall-clock second). Volatile: excluded from the
  /// scorecard.
  double wall_s = 0.0;
  double updates_per_core_sec = 0.0;

  /// Deterministic JSON of everything except wall-clock figures and the
  /// backend name, so runs that behave identically give identical bytes.
  std::string scorecard() const;
};

/// Runs the workload on `cfg.shards` shards (one thread each; 0 and 1 run on
/// the calling thread). Deterministic for a given config, and the same
/// result at every shard count.
FullTableResult run_full_table(const FullTableConfig& cfg);

}  // namespace rfdnet::core
