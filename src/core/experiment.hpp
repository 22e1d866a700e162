#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/config.hpp"
#include "fault/schedule.hpp"
#include "net/graph.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/span.hpp"
#include "obs/stability.hpp"
#include "obs/trace.hpp"
#include "rcn/root_cause.hpp"
#include "rfd/params.hpp"
#include "sim/profile.hpp"
#include "sim/random.hpp"
#include "stats/phase.hpp"
#include "stats/time_series.hpp"

namespace rfdnet::core {

enum class PolicyKind : std::uint8_t {
  kShortestPath,  ///< §5 default
  kNoValley,      ///< §7 policy study
};

std::string to_string(PolicyKind k);

/// Declarative topology description used by experiment configs.
struct TopologySpec {
  enum class Kind : std::uint8_t {
    kMeshTorus,
    kInternetLike,
    kLine,
    kRing,
    kClique,
    kRandom,
  };
  Kind kind = Kind::kMeshTorus;
  int width = 10;    ///< mesh
  int height = 10;   ///< mesh
  int nodes = 100;   ///< non-mesh kinds
  double edge_prob = 0.05;        ///< random graphs
  net::InternetOptions internet;  ///< Internet-like graphs
  double link_delay_s = 0.01;

  net::Graph build(sim::Rng& rng) const;
  std::string to_string() const;
};

/// Full description of one simulation run (§5.1 methodology): topology,
/// protocol timing, damping deployment, policy, flap workload and seed.
struct ExperimentConfig {
  TopologySpec topology;
  /// When set, this exact graph is used instead of generating one from
  /// `topology` (e.g. a topology loaded from a file).
  std::optional<net::Graph> topology_graph;
  bgp::TimingConfig timing;

  /// Damping parameters, or nullopt for the "No Damping" baseline.
  std::optional<rfd::DampingParams> damping = rfd::DampingParams::cisco();
  /// Fraction of routers that deploy damping (1.0 = full deployment).
  double deployment = 1.0;
  /// Attach Root Cause Notification and its damping filter (§6).
  bool rcn = false;
  /// Use selective route flap damping (Mao et al.) instead — the prior fix
  /// the paper compares against. Mutually exclusive with `rcn`.
  bool selective = false;
  /// Diverse parameter study (§6): this fraction of damping routers uses
  /// `damping_alt` instead of `damping`. Routers with more aggressive
  /// parameters suppress longer; when a conservatively-configured neighbor
  /// reuses first, its announcement re-charges them — secondary charging
  /// without any path exploration.
  double alt_fraction = 0.0;
  std::optional<rfd::DampingParams> damping_alt;
  PolicyKind policy = PolicyKind::kShortestPath;

  int pulses = 1;
  double flap_interval_s = 60.0;
  /// Irregular flapping: each inter-update gap is scaled by a uniform
  /// factor in [1 - flap_jitter, 1 + flap_jitter]. Zero (default) gives the
  /// paper's fixed 60 s cadence. Must be in [0, 1).
  double flap_jitter = 0.0;

  /// How the instability is injected.
  enum class FlapMode : std::uint8_t {
    /// The paper's model: the origin AS sends alternating withdrawals and
    /// announcements over a healthy session.
    kOriginUpdates,
    /// Full link semantics: the flapping link's BGP sessions go down and up
    /// (implicit withdrawals, session re-establishment, in-flight loss).
    kLinkSession,
  };
  FlapMode flap_mode = FlapMode::kOriginUpdates;
  /// Link to flap in kLinkSession mode. Defaults to the origin–ispAS stub
  /// link; any other existing link makes the instability *internal* — a
  /// regime the paper leaves open, with no single router able to muffle it.
  std::optional<std::pair<net::NodeId, net::NodeId>> flap_link;

  /// Ablation (§5.2): stop charging penalties this many seconds after the
  /// first flap. Freezing right after the charging period leaves the false
  /// suppression of path exploration in place but removes secondary
  /// charging.
  std::optional<double> freeze_penalties_after_s;

  /// Fault workload layered on top of (or, with `pulses = 0`, instead of)
  /// the origin flap schedule: a scripted schedule or a randomized storm,
  /// injected through the event engine starting at the first-flap instant.
  /// Storms draw from a PRNG stream split off the trial seed, and the split
  /// only happens when this is set, so fault-free runs replay byte-for-byte
  /// against older configs. Storms never touch the origin AS directly — the
  /// flap workload owns origin-link instability.
  std::optional<fault::FaultPlan> faults;

  std::uint64_t seed = 1;
  /// Node the origin AS attaches to (random if unset).
  std::optional<net::NodeId> isp;
  /// Penalty probe: a router this many hops from the origin (Fig. 7 uses 7;
  /// capped at the farthest reachable node).
  std::size_t probe_distance = 7;
  double bin_width_s = 5.0;
  /// Safety horizon after the first flap; runs reaching it set
  /// `ExperimentResult::hit_horizon`.
  double max_sim_s = 50000.0;
  /// Keep every (node, peer, t, penalty) event in the result — entry-level
  /// audit used by diagnostics and tests; off by default (memory).
  bool record_all_penalties = false;
  /// Keep every delivered update (t, from, to, kind); off by default.
  bool record_update_log = false;

  /// Collect obs metrics (engine, BGP, damping) into
  /// `ExperimentResult::metrics`; off by default (zero hot-path cost).
  bool collect_metrics = false;
  /// Streaming update-train analytics (`obs::StabilityTracker`): per-(peer,
  /// prefix) gap-threshold train detectors fed from the send/suppress/reuse
  /// instrumentation, whole run (warm-up included, like the JSONL trace).
  /// Fills `ExperimentResult::stability` plus the `stability.*` metric
  /// bundle in `ExperimentResult::metrics`. Unlike the other obs features
  /// this one is legal under `--shards` (per-shard trackers merge exactly).
  bool collect_stability = false;
  /// Quiet-gap threshold of the train detectors: an update at most this long
  /// after its predecessor (per directed (from, to, prefix) stream) extends
  /// the current train; a strictly longer gap starts a new one.
  double stability_gap_s = obs::StabilityTracker::kDefaultGapS;
  /// Write a trace to this path (format per `trace_format`); sweeps derive
  /// per-trial names from it (".p<pulses>.s<seed>").
  std::optional<std::string> trace_path;
  /// On-disk format for `trace_path`: the JSONL event log (default) or a
  /// Chrome trace-event / Perfetto JSON of the causal spans and
  /// damping-phase timelines.
  obs::TraceFormat trace_format = obs::TraceFormat::kJsonl;
  /// Collect causal spans and phase timelines into the result even without
  /// a trace file (tests, programmatic consumers). Tracing is also enabled
  /// implicitly whenever `trace_path` is set.
  bool collect_spans = false;
  /// Collect the per-event-kind engine dispatch profile into
  /// `ExperimentResult::profile`; off by default (zero hot-path cost).
  bool profile = false;
  /// Live telemetry: snapshot the logical metric counters (engine fires,
  /// update/withdrawal counts, damping charges/suppressions/reuses) plus
  /// residency and damping-occupancy probes every this many simulated
  /// seconds, from the first flap on, into
  /// `ExperimentResult::telemetry_jsonl` (0 = off). Registers the logical
  /// (shard-mergeable) counter bundles even without `collect_metrics`, and —
  /// like `collect_stability` — is legal under `--shards`: per-shard
  /// samplers over the same grid merge exactly, so the series is
  /// byte-identical at any shard count.
  double telemetry_period_s = 0.0;
  /// Wall-clock heartbeat period in seconds (0 = off): progress lines (sim
  /// time watermark, events/s, per-shard barrier stats) to stderr. Volatile
  /// by construction — never part of a deterministic artifact.
  double heartbeat_s = 0.0;

  /// Throws `std::invalid_argument` for a value no driver can run. What
  /// needs the graph (a connected topology, the isp and `flap_link`) is
  /// checked as soon as the graph is built, still before anything is
  /// simulated.
  void validate() const;
};

/// Everything the figures/tables consume, with all times re-based so that
/// t = 0 is the first flap (as in the paper's plots).
struct ExperimentResult {
  // The paper's two headline metrics (§3): time from the origin's final
  // announcement to the last update observed, and updates observed from the
  // first flap on.
  double convergence_time_s = 0.0;
  std::uint64_t message_count = 0;
  /// Updates lost to link failures (kLinkSession workloads).
  std::uint64_t dropped_count = 0;

  double stop_time_s = 0.0;  ///< final announcement (re-based)
  double last_activity_s = 0.0;
  /// Fault workload accounting (zero when `ExperimentConfig::faults` unset):
  /// events applied, messages lost to perturbation windows, and the instant
  /// (re-based) the last fault fully released. Convergence time is measured
  /// from the later of `stop_time_s` and `fault_stop_s`.
  std::uint64_t faults_injected = 0;
  std::uint64_t perturb_drops = 0;
  double fault_stop_s = 0.0;
  /// Links in the simulated graph (stub link included); lets callers turn
  /// `suppress_events` into a per-session share without rebuilding the
  /// topology.
  std::size_t link_count = 0;
  /// The actual flap schedule used (re-based): (time, is_withdrawal).
  std::vector<std::pair<double, bool>> flap_schedule;

  stats::TimeSeries update_series{5.0};
  stats::StepSeries damped_links;
  std::vector<stats::Phase> phases;
  /// (time, penalty-after-update) at the probe router (Figs. 3/7 material).
  std::vector<std::pair<double, double>> penalty_trace;
  /// All penalty events (re-based), when `record_all_penalties` was set.
  struct PenaltyEvent {
    double t_s;
    net::NodeId node;
    net::NodeId peer;
    double value;
  };
  std::vector<PenaltyEvent> penalty_events;
  /// All suppress/reuse events (re-based), always recorded.
  struct EntryEvent {
    double t_s;
    net::NodeId node;
    net::NodeId peer;
    bool noisy = false;  ///< meaningful for reuse events only
  };
  std::vector<EntryEvent> suppressions;
  std::vector<EntryEvent> reuses;
  /// Delivered updates (re-based), when `record_update_log` was set.
  struct UpdateRecord {
    double t_s;
    net::NodeId from;
    net::NodeId to;
    bool withdrawal;
    std::optional<rcn::RootCause> rc;
  };
  std::vector<UpdateRecord> update_log;

  net::NodeId origin = net::kInvalidNode;
  net::NodeId isp = net::kInvalidNode;
  net::NodeId probe = net::kInvalidNode;
  std::size_t probe_hops = 0;

  std::uint64_t suppress_events = 0;
  std::uint64_t noisy_reuses = 0;
  std::uint64_t silent_reuses = 0;
  double max_penalty = 0.0;

  /// Did ispAS itself ever suppress the origin's route, and when did its
  /// reuse timer (RT_h) fire (re-based; nullopt if it never suppressed).
  bool isp_suppressed = false;
  std::optional<double> isp_reuse_s;
  /// Last noisy reuse in the rest of the network (RT_net), re-based.
  std::optional<double> net_last_noisy_reuse_s;

  /// t_up estimate: convergence time of the initial route announcement
  /// during warm-up.
  double warmup_tup_s = 0.0;

  bool hit_horizon = false;

  /// Obs metrics for the whole run (warm-up included); empty unless
  /// `ExperimentConfig::collect_metrics` (or `collect_stability`, which
  /// contributes only the `stability.*` bundle) was set.
  obs::Registry metrics;

  /// Streaming update-train report for the whole run (times in the raw
  /// engine clock, not re-based — it matches the trace byte-for-byte);
  /// nullopt unless `ExperimentConfig::collect_stability` was set.
  std::optional<obs::StabilityReport> stability;

  /// Causal spans of the measured phase (re-based, closed), in span-id
  /// order; empty unless tracing was on (`collect_spans` or `trace_path`).
  std::vector<obs::SpanRecord> spans;
  /// Per-(node, peer, prefix) damping-phase timelines (re-based, tiling
  /// [0, converged]); empty unless tracing was on.
  std::vector<obs::PhaseInterval> phase_timeline;
  /// Engine dispatch profile for the whole run (warm-up included); all-zero
  /// unless `ExperimentConfig::profile` was set.
  sim::EngineProfile profile;

  /// Telemetry series of the measured phase as JSONL rows
  /// (`{"t":..,"name":..,"value":..}`, raw engine-clock seconds) and its
  /// compact summary object; empty unless
  /// `ExperimentConfig::telemetry_period_s > 0`. Byte-identical across shard
  /// counts for the shard-legal series set.
  std::string telemetry_jsonl;
  std::string telemetry_summary;
};

/// Builds the network, warms it up, applies the flap workload and collects
/// the result. Deterministic for a given config.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace rfdnet::core
