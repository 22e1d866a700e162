#pragma once

// The scaffold every simulation driver shares: `run_experiment`,
// `run_sharded_experiment` and `run_full_table` differ only in the
// transport and engine they run on (`bgp::BgpNetwork` on one `sim::Engine`,
// or `bgp::ShardedBgpNetwork` on a `sim::ShardedEngine`). Everything else —
// building the experiment world, deploying damping, the heartbeat,
// registering telemetry series, sampling residency, and folding per-lane
// telemetry, stability, metrics and recorder streams into one result —
// lives here, once. Internal to `core`.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/prefix.hpp"
#include "bgp/router.hpp"
#include "core/experiment.hpp"
#include "net/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/stability.hpp"
#include "obs/telemetry.hpp"
#include "rfd/damping.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/sharded_engine.hpp"
#include "stats/recorder.hpp"
#include "stats/stability_probe.hpp"

namespace rfdnet::core::scaffold {

/// The one destination an experiment flaps.
constexpr bgp::Prefix kPrefix = 0;

/// Driver events (flaps, origination, toggles, residency samples) on a
/// sharded engine carry bit-62 keys: at one instant per shard they run after
/// every router timer (small auto-key prefixes) and before every delivery
/// (bit 63) — the same slotting for every shard count.
class DriverKeys {
 public:
  std::uint64_t next() { return (1ULL << 62) | seq_++; }

 private:
  std::uint64_t seq_ = 0;
};

/// The world of one experiment (Fig. 1): the base graph plus the origin AS
/// attached to ispAS, the probe router, the policy, and the PRNG streams.
/// `rng` has given up the topology and deployment splits and the isp draw;
/// the serial transport draws processing delays from it afterwards.
struct World {
  sim::Rng rng;
  /// Damping deployment first, then flap jitter.
  sim::Rng deploy_rng;
  net::Graph graph;
  net::NodeId origin = net::kInvalidNode;
  net::NodeId isp = net::kInvalidNode;
  /// A router `probe_distance` hops from the origin (Fig. 7 uses 7), capped
  /// at the graph's reach; the smallest such id.
  net::NodeId probe = net::kInvalidNode;
  std::size_t probe_hops = 0;
  /// The link `FlapMode::kLinkSession` flaps: `flap_link`, or origin–isp.
  std::pair<net::NodeId, net::NodeId> flap_link;
  std::unique_ptr<bgp::Policy> policy;
};

/// Builds the world of a validated `cfg`. Throws `std::invalid_argument` for
/// a disconnected topology, an isp outside the base graph, or a `flap_link`
/// that names no link — before anything is simulated.
World build_world(const ExperimentConfig& cfg);

/// The flap schedule (re-based): `2 * pulses` alternating withdrawal and
/// announcement instants, each gap scaled by the jitter draw from
/// `deploy_rng`.
std::vector<std::pair<double, bool>> flap_schedule(const ExperimentConfig& cfg,
                                                   sim::Rng& deploy_rng);

/// One single-writer slice of a run: the routers and damping modules one
/// engine executes, and the recorder, metric bundles, stability tracker and
/// telemetry sampler their events write to. The serial experiment driver
/// has one lane; sharded runs have one per shard, merged after the run.
struct Lane {
  sim::Engine* engine = nullptr;
  std::vector<bgp::BgpRouter*> routers;
  std::vector<rfd::DampingModule*> dampers;
  /// Experiment lanes record the paper's figures; full-table lanes have no
  /// recorder and feed their stability tracker through `stability_probe`.
  std::unique_ptr<stats::Recorder> recorder;
  std::unique_ptr<obs::StabilityTracker> stability;
  std::unique_ptr<stats::StabilityProbe> stability_probe;
  obs::Registry registry;
  obs::EngineMetrics engine_metrics;
  obs::RouterMetrics router_metrics;
  obs::DampingMetrics damping_metrics;
  std::unique_ptr<obs::TelemetrySampler> telemetry;
  /// Grid instant of the sample being taken. Time-evaluating probes read it
  /// instead of the engine clock, which sits at the last executed event —
  /// before the grid instant in an idle gap, and partition-dependent.
  sim::SimTime sample_now;

  /// What the lane's routers and damping modules report to (may be null).
  bgp::Observer* observer() const;
};

/// Sets lane `l` up for an experiment on `engine`: a recorder with the
/// config's audit switches and, with `collect_stability`, a stability
/// tracker behind it.
void init_experiment_lane(Lane& l, sim::Engine& engine,
                          const ExperimentConfig& cfg);

/// Binds lane `l`'s metric bundles into its registry: the logical
/// (shard-mergeable) counters, plus the partition-dependent figures when
/// `full`. `with_engine` also binds the engine bundle and wires it into the
/// lane's engine.
void bind_metrics(Lane& l, bool full, bool with_engine);

/// Hands router `u` (`routers[u]`) to lane `lane_of[u]`, in node order,
/// wiring the lane's router metrics when they are bound.
void assign_routers(std::vector<Lane>& lanes,
                    const std::vector<bgp::BgpRouter*>& routers,
                    const std::vector<int>& lane_of);

/// Attaches a damping module with `params` to router `r` of lane `l`: its
/// reuse timers run on the lane's engine, its events go to the lane's
/// observer and metrics. The caller owns the returned module.
std::unique_ptr<rfd::DampingModule> attach_damping(
    bgp::BgpRouter& r, Lane& l, const rfd::DampingParams& params,
    bgp::RibBackendKind backend = bgp::RibBackendKind::kHashMap);

/// The experiment's damping deployment (§5.1, §6): each router, in node
/// order, deploys with probability `deployment`, then draws `damping_alt`
/// with probability `alt_fraction`, both from `deploy_rng`; RCN or
/// selective damping as configured.
std::vector<std::unique_ptr<rfd::DampingModule>> deploy_damping(
    const ExperimentConfig& cfg, sim::Rng& deploy_rng,
    std::vector<Lane>& lanes, const std::vector<bgp::BgpRouter*>& routers,
    const std::vector<int>& lane_of);

/// Wall-clock heartbeat (`period_s > 0`): a rate-limited progress line to
/// stderr — simulated-time watermark, events/s, and for a sharded engine
/// its barrier rounds and wait. Volatile by construction, so it never
/// reaches a deterministic artifact.
void install_heartbeat(sim::Engine& engine, double period_s);
void install_heartbeat(sim::ShardedEngine& engine, double period_s);

/// Ends the warm-up: resets every lane's damping modules and recorder for a
/// clean measured phase starting at `t0`, arms the §5.2 freeze ablation's
/// charge deadline, and returns t_up — the last warm-up delivery instant.
double end_warmup(std::vector<Lane>& lanes, sim::SimTime t0,
                  std::optional<double> freeze_penalties_after_s);

/// Gives every lane a telemetry sampler on the grid `t0 + k * period`, with
/// rows reserved for `span_s` of simulated time (capped), carrying the
/// residency and damping-occupancy probes. With `counters` it also carries
/// the series every driver shares: the logical router and damping counters,
/// `engine.fired` when the lane binds engine metrics, `rfd.damped_links`
/// when it has a recorder, and the stability tracker's update and train
/// counts.
void start_telemetry(std::vector<Lane>& lanes, sim::SimTime t0,
                     sim::Duration period, double span_s, bool counters);

/// Takes lane `l`'s sample at grid instant `t`.
void sample(Lane& l, sim::SimTime t);

/// Seals every lane's sampler, drops rows after the last executed event
/// (`last_us`; sharded runs can sample trailing grid instants the serial run
/// never reaches) and merges them, cell by cell, into lane 0's sampler,
/// which it returns — null without telemetry.
obs::TelemetrySampler* finish_telemetry(std::vector<Lane>& lanes,
                                        std::int64_t last_us);

/// The lanes' registries merged in lane order: exact integer sums, so the
/// result does not depend on how the nodes were split into lanes.
obs::Registry merge_metrics(std::vector<Lane>& lanes);

/// Folds the lanes' stability trackers into one report (per-key
/// accumulators are single-writer per lane, so the merge is exact) and
/// records the `stability.*` bundle into `registry`; nullopt when stability
/// is off.
std::optional<obs::StabilityReport> finish_stability(std::vector<Lane>& lanes,
                                                     double gap_s,
                                                     obs::Registry& registry);

/// Resident per-prefix RIB rows and damping entry-store rows (tracked, and
/// live-penalty active) at one instant.
struct Residency {
  std::size_t rib = 0;
  std::size_t tracked = 0;
  std::size_t active = 0;

  Residency& operator+=(const Residency& o);
  /// Per-field maximum.
  static Residency max(const Residency& a, const Residency& b);
};

/// Lane `l`'s residency at `now` — at or after the lane's last executed
/// event — sweeping rows reclaimable by then and decaying penalties to
/// then. An explicit instant keeps the figure partition-independent: after
/// a run each shard's clock sits at its own last event.
Residency measure(Lane& l, sim::SimTime now);

/// Sets the six residency gauges (`bgp.rib_resident`,
/// `rfd.tracked_entries`, `rfd.active_entries` and their `_peak` twins).
void record_residency(obs::Registry& registry, const Residency& now,
                      const Residency& peak);

/// End-of-run audit of every lane's engine, routers and damping modules.
void check_invariants(const std::vector<Lane>& lanes);

/// One run's measured-phase recorder streams, each in time order: a view of
/// a single recorder, or of the canonical merge of several.
struct Streams {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::optional<double> last_delivery_s;
  double max_penalty = 0.0;
  std::span<const double> delivery_times;
  std::span<const stats::Recorder::SuppressEvent> suppressions;
  std::span<const stats::Recorder::ReuseEvent> reuses;
  std::span<const stats::Recorder::PenaltyEvent> penalties;
  std::span<const stats::Recorder::PenaltySample> probe_trace;
  std::span<const stats::Recorder::UpdateRecord> update_log;
  std::span<const std::pair<double, int>> busy;
};

/// The streams of one recorder, as recorded (in execution order).
Streams streams_of(const stats::Recorder& r);

/// Per-lane recorder streams merged canonically, viewed through the
/// `Streams` base: each lane's stream is time-ordered, and a stable sort on
/// (t, node, peer) interleaves them the same way for every lane count
/// (node -> lane is fixed, so runs of equal keys keep stream order).
struct MergedStreams : Streams {
  explicit MergedStreams(const std::vector<Lane>& lanes);
  MergedStreams(const MergedStreams&) = delete;
  MergedStreams& operator=(const MergedStreams&) = delete;

  std::vector<double> delivery_times_;
  std::vector<stats::Recorder::SuppressEvent> suppressions_;
  std::vector<stats::Recorder::ReuseEvent> reuses_;
  std::vector<stats::Recorder::PenaltyEvent> penalties_;
  std::vector<stats::Recorder::PenaltySample> probe_trace_;
  std::vector<stats::Recorder::UpdateRecord> update_log_;
  std::vector<std::pair<double, int>> busy_;
};

/// Fills `res` from the world and the measured-phase streams, re-basing
/// every time on `base_s` (the first flap): the paper's headline metrics,
/// the update and damped-link series, suppress/reuse accounting, the
/// penalty traces, the update log and the phase classification.
/// `res.flap_schedule`, `res.stop_time_s` and `res.fault_stop_s` must be set.
void assemble_result(const Streams& s, const World& w,
                     const ExperimentConfig& cfg, double base_s,
                     ExperimentResult& res);

}  // namespace rfdnet::core::scaffold
