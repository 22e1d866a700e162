#include "core/sharded.hpp"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bgp/sharded_network.hpp"
#include "core/scaffold.hpp"
#include "obs/invariant.hpp"
#include "rcn/root_cause.hpp"

namespace rfdnet::core {

ShardedExperimentResult run_sharded_experiment(const ExperimentConfig& cfg,
                                               int shards) {
  using scaffold::kPrefix;
  if (shards < 1) {
    throw std::invalid_argument("sharded experiment: shards must be >= 1");
  }
  cfg.validate();
  // The serial-only features, each rejected with its own message: faults
  // and link flapping act on links that may straddle shards mid-window,
  // span/trace freight does not survive the cross-shard envelope, and the
  // dispatch profile records partition-dependent figures. The metric
  // bundles bind only their logical counters here (`bind_logical`), which
  // merge exactly; the partition-dependent remainder (heap/live/pending
  // gauges, the penalty histogram, the residency gauges) is never bound.
  for (const auto& [serial_only, feature] :
       {std::pair{cfg.faults.has_value(), "fault injection"},
        {cfg.flap_mode == ExperimentConfig::FlapMode::kLinkSession,
         "link-session flapping"},
        {cfg.trace_path.has_value(), "tracing"},
        {cfg.collect_spans, "span collection"},
        {cfg.profile, "engine profiling"}}) {
    if (serial_only) {
      throw std::invalid_argument(std::string("sharded experiment: ") +
                                  feature + " is serial-only");
    }
  }

  // The same world as the serial driver: topology, isp pick, probe,
  // deployment pattern and flap jitter all come from the same draws.
  scaffold::World world = scaffold::build_world(cfg);
  const net::Graph& graph = world.graph;
  const net::NodeId origin = world.origin;

  ShardedExperimentResult out;
  out.partition = net::partition_graph(graph, shards);
  const net::Partition& part = out.partition;
  const auto k = static_cast<std::size_t>(part.shards);
  sim::ShardedEngine engine(part.shards);

  // One lane per shard: every observer callback fires on the thread of the
  // shard that executes it and lands on that shard's recorder, metric
  // bundles and stability tracker (a directed (from, to, prefix) key's sends
  // fire on the sender's shard, its suppress/reuse events on the owner's),
  // so every per-lane accumulator is single-writer and the end-of-run merge
  // is exact — byte-identical at any shard count.
  const bool telemetry_on = cfg.telemetry_period_s > 0;
  std::vector<scaffold::Lane> lanes(k);
  std::vector<bgp::Observer*> observers;
  for (std::size_t s = 0; s < k; ++s) {
    scaffold::init_experiment_lane(lanes[s], engine.shard(static_cast<int>(s)),
                                   cfg);
    if (cfg.collect_metrics || telemetry_on) {
      scaffold::bind_metrics(lanes[s], /*full=*/false, /*with_engine=*/true);
    }
    observers.push_back(lanes[s].observer());
  }
  lanes[static_cast<std::size_t>(part.shard_of[world.probe])]
      .recorder->probe_penalty(world.probe);

  bgp::ShardedBgpNetwork network(graph, part, cfg.timing, *world.policy,
                                 engine, cfg.seed, observers, cfg.rib_backend);
  const sim::Duration lookahead = network.conservative_lookahead();
  if (part.has_cut() && lookahead <= sim::Duration::zero()) {
    throw std::invalid_argument(
        "sharded experiment: cross-shard link latency rounds to zero "
        "microseconds; no safe conservative lookahead exists");
  }
  engine.set_lookahead(lookahead);
  out.lookahead_s = lookahead.as_seconds();

  std::vector<bgp::BgpRouter*> routers;
  for (net::NodeId u = 0; u < graph.node_count(); ++u) {
    routers.push_back(&network.router(u));
  }
  scaffold::assign_routers(lanes, routers, part.shard_of);
  const std::vector<std::unique_ptr<rfd::DampingModule>> dampers =
      scaffold::deploy_damping(cfg, world.deploy_rng, lanes, routers,
                               part.shard_of);
  scaffold::install_heartbeat(engine, cfg.heartbeat_s);

  ExperimentResult& res = out.base;
  scaffold::DriverKeys keys;
  bgp::BgpRouter& origin_router = network.router(origin);
  sim::Engine& origin_engine = engine.shard(network.shard_of(origin));

  // --- Warm-up. Origination runs as a scheduled event so it executes on
  // the owning shard's thread, with that shard's path table bound.
  origin_engine.schedule_keyed(
      sim::SimTime::zero(), keys.next(),
      [&origin_router] { origin_router.originate(kPrefix); },
      sim::EventKind::kFlap, origin);
  engine.run(sim::SimTime::from_seconds(cfg.max_sim_s));
  if (!network.all_reachable(kPrefix)) {
    throw std::runtime_error("experiment: warm-up did not converge");
  }

  // --- Flap workload. t0 is the latest shard clock — the global time of
  // the last warm-up event, identical for every shard count.
  const sim::SimTime t0 = engine.now();
  res.warmup_tup_s =
      scaffold::end_warmup(lanes, t0, cfg.freeze_penalties_after_s);
  const double base_s = t0.as_seconds();

  // Telemetry: per-lane samplers advanced by the engine at barrier-aligned
  // grid instants (samples never interleave with event execution inside a
  // window); each shard's slot is written by its own worker thread.
  if (telemetry_on) {
    const sim::Duration period = sim::Duration::seconds(cfg.telemetry_period_s);
    scaffold::start_telemetry(lanes, t0, period, cfg.max_sim_s,
                              /*counters=*/true);
    engine.set_sampling(t0 + period, period,
                        [&lanes](int s, sim::SimTime when) {
                          scaffold::sample(
                              lanes[static_cast<std::size_t>(s)], when);
                        });
  }

  rcn::RootCauseSource rc_source(origin, world.isp);
  res.flap_schedule = scaffold::flap_schedule(cfg, world.deploy_rng);
  for (const auto& [when_s, is_withdrawal] : res.flap_schedule) {
    origin_engine.schedule_keyed(
        t0 + sim::Duration::seconds(when_s), keys.next(),
        [&origin_router, &rc_source, down = is_withdrawal] {
          if (down) {
            origin_router.withdraw_origin(kPrefix, rc_source.next(false));
          } else {
            origin_router.originate(kPrefix, rc_source.next(true));
          }
        },
        sim::EventKind::kFlap, origin);
  }
  res.stop_time_s =
      res.flap_schedule.empty() ? 0.0 : res.flap_schedule.back().first;

  engine.run(t0 + sim::Duration::seconds(cfg.max_sim_s));
  res.hit_horizon = engine.pending() > 0;
  if (telemetry_on) engine.clear_sampling();
  if (obs::invariants_enabled()) scaffold::check_invariants(lanes);

  // --- Canonical merge of the per-lane streams, then the same assembly as
  // the serial driver.
  const scaffold::MergedStreams merged(lanes);
  scaffold::assemble_result(merged, world, cfg, base_s, res);
  out.delivery_times.reserve(merged.delivery_times.size());
  for (const double t : merged.delivery_times) {
    out.delivery_times.push_back(std::max(0.0, t - base_s));
  }
  if (const obs::TelemetrySampler* telemetry =
          scaffold::finish_telemetry(lanes, engine.now().as_micros())) {
    res.telemetry_jsonl = telemetry->jsonl();
    res.telemetry_summary = telemetry->summary_json();
  }
  obs::Registry registry = scaffold::merge_metrics(lanes);
  res.stability =
      scaffold::finish_stability(lanes, cfg.stability_gap_s, registry);
  if (cfg.collect_metrics || cfg.collect_stability) {
    res.metrics = std::move(registry);
  }

  out.engine_stats = engine.stats();
  return out;
}

std::string ShardedExperimentResult::scorecard() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"origin\":" << base.origin << ",\"isp\":" << base.isp
     << ",\"probe\":" << base.probe << ",\"probe_hops\":" << base.probe_hops
     << ",\"link_count\":" << base.link_count
     << ",\"message_count\":" << base.message_count
     << ",\"hit_horizon\":" << (base.hit_horizon ? "true" : "false")
     << ",\"warmup_tup_s\":" << base.warmup_tup_s
     << ",\"stop_time_s\":" << base.stop_time_s
     << ",\"last_activity_s\":" << base.last_activity_s
     << ",\"convergence_time_s\":" << base.convergence_time_s
     << ",\"suppress_events\":" << base.suppress_events
     << ",\"noisy_reuses\":" << base.noisy_reuses
     << ",\"silent_reuses\":" << base.silent_reuses
     << ",\"max_penalty\":" << base.max_penalty
     << ",\"isp_suppressed\":" << (base.isp_suppressed ? "true" : "false");
  os << ",\"isp_reuse_s\":";
  if (base.isp_reuse_s) {
    os << *base.isp_reuse_s;
  } else {
    os << "null";
  }
  os << ",\"net_last_noisy_reuse_s\":";
  if (base.net_last_noisy_reuse_s) {
    os << *base.net_last_noisy_reuse_s;
  } else {
    os << "null";
  }
  os << ",\"flap_schedule\":[";
  for (std::size_t i = 0; i < base.flap_schedule.size(); ++i) {
    if (i) os << ',';
    os << '[' << base.flap_schedule[i].first << ','
       << (base.flap_schedule[i].second ? 1 : 0) << ']';
  }
  os << "],\"penalty_trace\":[";
  for (std::size_t i = 0; i < base.penalty_trace.size(); ++i) {
    if (i) os << ',';
    os << '[' << base.penalty_trace[i].first << ','
       << base.penalty_trace[i].second << ']';
  }
  os << "],\"penalty_events\":[";
  for (std::size_t i = 0; i < base.penalty_events.size(); ++i) {
    const auto& e = base.penalty_events[i];
    if (i) os << ',';
    os << '[' << e.t_s << ',' << e.node << ',' << e.peer << ',' << e.value
       << ']';
  }
  os << "],\"suppressions\":[";
  for (std::size_t i = 0; i < base.suppressions.size(); ++i) {
    const auto& e = base.suppressions[i];
    if (i) os << ',';
    os << '[' << e.t_s << ',' << e.node << ',' << e.peer << ']';
  }
  os << "],\"reuses\":[";
  for (std::size_t i = 0; i < base.reuses.size(); ++i) {
    const auto& e = base.reuses[i];
    if (i) os << ',';
    os << '[' << e.t_s << ',' << e.node << ',' << e.peer << ','
       << (e.noisy ? 1 : 0) << ']';
  }
  os << "],\"update_log\":[";
  for (std::size_t i = 0; i < base.update_log.size(); ++i) {
    const auto& u = base.update_log[i];
    if (i) os << ',';
    os << '[' << u.t_s << ',' << u.from << ',' << u.to << ','
       << (u.withdrawal ? 1 : 0) << ']';
  }
  os << "],\"delivery_times\":[";
  for (std::size_t i = 0; i < delivery_times.size(); ++i) {
    if (i) os << ',';
    os << delivery_times[i];
  }
  // Full per-key stability detail plus the stability.* metric bundle: the
  // first obs artifacts allowed into the sharded scorecard, because every
  // stored figure is an exact merge of per-shard integer accumulators.
  os << "],\"stability\":";
  if (base.stability) {
    os << base.stability->to_json();
  } else {
    os << "null";
  }
  os << ",\"metrics\":" << base.metrics.json();
  os << '}';
  return os.str();
}

}  // namespace rfdnet::core
