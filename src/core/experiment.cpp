#include "core/experiment.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "bgp/network.hpp"
#include "core/cli.hpp"
#include "core/config_validate.hpp"
#include "core/scaffold.hpp"
#include "fault/injector.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/invariant.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rcn/root_cause.hpp"

namespace rfdnet::core {

std::string to_string(PolicyKind k) {
  return k == PolicyKind::kShortestPath ? "shortest-path" : "no-valley";
}

net::Graph TopologySpec::build(sim::Rng& rng) const {
  switch (kind) {
    case Kind::kMeshTorus:
      return net::make_mesh_torus(width, height, link_delay_s);
    case Kind::kInternetLike: {
      net::InternetOptions opt = internet;
      opt.delay_s = link_delay_s;
      return net::make_internet_like(nodes, rng, opt);
    }
    case Kind::kLine:
      return net::make_line(nodes, link_delay_s);
    case Kind::kRing:
      return net::make_ring(nodes, link_delay_s);
    case Kind::kClique:
      return net::make_clique(nodes, link_delay_s);
    case Kind::kRandom:
      return net::make_random(nodes, edge_prob, rng, link_delay_s);
  }
  throw std::logic_error("TopologySpec: unknown kind");
}

std::string TopologySpec::to_string() const {
  switch (kind) {
    case Kind::kMeshTorus:
      return "mesh-torus " + std::to_string(width) + "x" +
             std::to_string(height);
    case Kind::kInternetLike:
      return "internet-like n=" + std::to_string(nodes);
    case Kind::kLine:
      return "line n=" + std::to_string(nodes);
    case Kind::kRing:
      return "ring n=" + std::to_string(nodes);
    case Kind::kClique:
      return "clique n=" + std::to_string(nodes);
    case Kind::kRandom:
      return "random n=" + std::to_string(nodes);
  }
  return "?";
}

void ExperimentConfig::validate() const {
  if (pulses < 0) throw std::invalid_argument("experiment: pulses < 0");
  if (flap_interval_s <= 0) {
    throw std::invalid_argument("experiment: flap interval <= 0");
  }
  if (flap_jitter < 0 || flap_jitter >= 1) {
    throw std::invalid_argument("experiment: flap_jitter out of [0, 1)");
  }
  if (deployment < 0 || deployment > 1) {
    throw std::invalid_argument("experiment: deployment out of [0,1]");
  }
  if (rcn && selective) {
    throw std::invalid_argument("experiment: rcn and selective are exclusive");
  }
  if (alt_fraction < 0 || alt_fraction > 1) {
    throw std::invalid_argument("experiment: alt_fraction out of [0,1]");
  }
  if (alt_fraction > 0 && !damping_alt) {
    throw std::invalid_argument("experiment: alt_fraction needs damping_alt");
  }
  // Spans on the clock; their sum must not wrap it.
  validate_span(flap_interval_s, "experiment: flap_interval_s");
  validate_span(pulses * flap_interval_s,
                "experiment: pulses x flap_interval_s");
  validate_span(max_sim_s, "experiment: max_sim_s");
  validate_span(bin_width_s, "experiment: bin_width_s");
  validate_span(topology.link_delay_s, "experiment: link_delay_s");
  if (freeze_penalties_after_s) {
    validate_span(*freeze_penalties_after_s,
                  "experiment: freeze_penalties_after_s");
  }
  if (damping) damping->validate();
  if (damping_alt) damping_alt->validate();
  timing.validate();
  validate_stability_gap(collect_stability, stability_gap_s, "experiment");
  validate_telemetry(telemetry_period_s, heartbeat_s, "experiment");
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  using scaffold::kPrefix;
  cfg.validate();
  scaffold::World world = scaffold::build_world(cfg);
  const net::Graph& graph = world.graph;
  const net::NodeId origin = world.origin;
  const net::NodeId isp = world.isp;

  sim::Engine engine;
  std::vector<scaffold::Lane> lanes(1);
  scaffold::Lane& lane = lanes.front();
  scaffold::init_experiment_lane(lane, engine, cfg);
  stats::Recorder& recorder = *lane.recorder;
  recorder.probe_penalty(world.probe);

  // Observability: one registry (and, optionally, one trace file) per run,
  // shared by the engine, every router and every damping module, so the
  // counters aggregate per trial. With neither option set no pointers are
  // installed and the hot path is untouched. Telemetry alone only needs the
  // logical (shard-mergeable) counters.
  obs::Registry& registry = lane.registry;
  std::unique_ptr<obs::TraceSink> trace;
  const bool global_metrics = obs_runtime::metrics_enabled();
  const bool collect_metrics = cfg.collect_metrics || global_metrics;
  const bool telemetry_on = cfg.telemetry_period_s > 0;
  const std::optional<std::string> trace_path =
      cfg.trace_path ? cfg.trace_path : obs_runtime::next_trace_path();
  const obs::TraceFormat trace_format =
      cfg.trace_path ? cfg.trace_format : obs_runtime::trace_format();
  if (collect_metrics || telemetry_on) {
    scaffold::bind_metrics(lane, collect_metrics, /*with_engine=*/true);
  }
  // A chrome-format trace is written whole at the end of the run (it is one
  // JSON object, not an event log), so no JSONL sink is attached for it.
  if (trace_path && trace_format == obs::TraceFormat::kJsonl) {
    trace = (*trace_path == "-") ? std::make_unique<obs::TraceSink>(std::cout)
                                 : std::make_unique<obs::TraceSink>(*trace_path);
    engine.set_trace(trace.get());
  }

  // Causal tracing: one span tracer + phase-timeline recorder per run,
  // shared by every layer, whenever any trace artifact (or the in-memory
  // span collection) was requested.
  const bool tracing = trace_path.has_value() || cfg.collect_spans;
  std::unique_ptr<obs::SpanTracer> spans;
  std::unique_ptr<obs::PhaseTimeline> timeline;
  if (tracing) {
    spans = std::make_unique<obs::SpanTracer>();
    timeline = std::make_unique<obs::PhaseTimeline>();
  }

  // Engine dispatch profile: counts per event kind (plus handler wall time,
  // which never reaches a deterministic artifact).
  sim::EngineProfile profile;
  const bool profiling = cfg.profile || obs_runtime::profile_enabled();
  if (profiling) engine.set_profile(&profile);
  scaffold::install_heartbeat(engine, cfg.heartbeat_s);

  bgp::BgpNetwork network(graph, cfg.timing, *world.policy, engine, world.rng,
                          &recorder);
  if (spans) network.set_span_tracer(spans.get());
  std::vector<bgp::BgpRouter*> routers;
  for (net::NodeId u = 0; u < graph.node_count(); ++u) {
    routers.push_back(&network.router(u));
    if (trace) network.router(u).set_trace(trace.get());
  }
  const std::vector<int> lane_of(routers.size(), 0);
  scaffold::assign_routers(lanes, routers, lane_of);

  // Damping deployment. Modules are owned here; routers hold raw hooks.
  const std::vector<std::unique_ptr<rfd::DampingModule>> dampers =
      scaffold::deploy_damping(cfg, world.deploy_rng, lanes, routers, lane_of);
  for (const auto& d : dampers) {
    if (trace) d->set_trace(trace.get());
    if (spans) d->set_span_tracer(spans.get());
    if (timeline) d->set_phase_timeline(timeline.get());
  }

  ExperimentResult res;

  // --- Warm-up: every node learns a stable route to the origin (§5.1). ---
  network.router(origin).originate(kPrefix);
  engine.run(sim::SimTime::from_seconds(cfg.max_sim_s));
  if (!network.all_reachable(kPrefix)) {
    throw std::runtime_error("experiment: warm-up did not converge");
  }

  // --- Flap workload (Fig. 1): n pulses of withdraw + re-announce. ---
  const sim::SimTime t0 = engine.now();
  res.warmup_tup_s =
      scaffold::end_warmup(lanes, t0, cfg.freeze_penalties_after_s);
  if (timeline) timeline->reset();
  const double base_s = t0.as_seconds();

  // --- Telemetry sampler over the measured phase (grid t0 + k*period).
  // With explicit telemetry the sampler carries the logical counter bundles
  // plus level probes and is exported as JSONL; with `collect_metrics` alone
  // it runs as an internal peak recorder (residency/occupancy probes only,
  // at the reporting bin width) so the `*_peak` gauges can hold true in-run
  // peaks instead of the end-of-run snapshot.
  const sim::Duration telemetry_period = sim::Duration::seconds(
      telemetry_on ? cfg.telemetry_period_s : cfg.bin_width_s);
  if (telemetry_on || collect_metrics) {
    scaffold::start_telemetry(lanes, t0, telemetry_period, cfg.max_sim_s,
                              telemetry_on);
    if (telemetry_on) {
      // Serial-only series: the live event count is partition-dependent
      // mid-run, so sharded runs omit it (and the trace oracle cannot
      // reconstruct it — trace rows record the pre-handler count).
      lane.telemetry->add_probe("engine.pending", [&engine] {
        return static_cast<std::int64_t>(engine.pending());
      });
    }
  }

  // Fault workload: materialized and armed only when configured, and fed
  // from PRNG streams split off here so fault-free runs keep the exact draw
  // sequence (and byte-identical traces) they had before faults existed.
  std::unique_ptr<fault::FaultInjector> injector;
  obs::FaultMetrics fault_metrics;
  if (cfg.faults) {
    sim::Rng fault_rng = world.rng.split();
    const fault::FaultSchedule fault_schedule =
        cfg.faults->materialize(graph, fault_rng, {origin});
    injector = std::make_unique<fault::FaultInjector>(network, engine,
                                                      fault_rng.split());
    if (collect_metrics) {
      fault_metrics = obs::FaultMetrics::bind(registry);
      injector->set_metrics(&fault_metrics);
    }
    if (trace) injector->set_trace(trace.get());
    if (spans) injector->set_span_tracer(spans.get());
    injector->arm(fault_schedule, t0);
    res.fault_stop_s = fault_schedule.stop_time_s();
  }

  rcn::RootCauseSource rc_source(origin, isp);
  bgp::BgpRouter& origin_router = network.router(origin);
  res.flap_schedule = scaffold::flap_schedule(cfg, world.deploy_rng);
  // Each scheduled flap instant is a causal root: the withdrawal or
  // announcement it injects (and everything derived from it, hop by hop)
  // lives in the trace this root mints.
  obs::SpanTracer* const sp = spans.get();
  const bool link_flap =
      cfg.flap_mode == ExperimentConfig::FlapMode::kLinkSession;
  const net::NodeId flap_u = link_flap ? world.flap_link.first : origin;
  const net::NodeId flap_v = link_flap ? world.flap_link.second : isp;
  for (const auto& [when_s, is_withdrawal] : res.flap_schedule) {
    const char* kind =
        link_flap ? (is_withdrawal ? "flap.link-down" : "flap.link-up")
                  : (is_withdrawal ? "flap.withdraw" : "flap.announce");
    engine.schedule_at(
        t0 + sim::Duration::seconds(when_s),
        [&, kind, down = is_withdrawal] {
          obs::SpanContext root;
          if (sp) {
            root = sp->root(kind, engine.now().as_seconds(), flap_u, flap_v,
                            kPrefix);
          }
          const obs::ActiveSpan guard(sp, root);
          if (link_flap) {
            network.set_link(flap_u, flap_v, !down);
          } else if (down) {
            origin_router.withdraw_origin(kPrefix, rc_source.next(false));
          } else {
            origin_router.originate(kPrefix, rc_source.next(true));
          }
        },
        sim::EventKind::kFlap);
  }
  res.stop_time_s =
      res.flap_schedule.empty() ? 0.0 : res.flap_schedule.back().first;

  const sim::SimTime horizon = t0 + sim::Duration::seconds(cfg.max_sim_s);
  if (lane.telemetry) {
    engine.run_sampled(horizon, t0 + telemetry_period, telemetry_period,
                       [&lane](sim::SimTime t) { scaffold::sample(lane, t); });
  } else {
    engine.run(horizon);
  }
  res.hit_horizon = engine.pending() > 0;

  // End-of-run audit (debug builds / tests): the run must leave every layer
  // internally consistent regardless of whether the horizon was hit.
  if (obs::invariants_enabled()) {
    scaffold::check_invariants(lanes);
    if (injector) injector->check_invariants();
  }
  // --- Collect, re-basing every time on t0. The single recorder stream is
  // already in execution order; it is read as recorded, never re-sorted.
  if (injector) {
    res.faults_injected = injector->injected();
    res.perturb_drops = injector->perturb_drops();
  }
  scaffold::assemble_result(scaffold::streams_of(recorder), world, cfg, base_s,
                            res);

  // --- Causal spans and phase timelines (re-based like everything else). ---
  if (spans) {
    // Sweep suppressions that never reused and updates still in flight at
    // the horizon; then re-base onto the first flap.
    spans->close_open(engine.now().as_seconds());
    res.spans.reserve(spans->size());
    for (obs::SpanRecord r : spans->records()) {
      r.t0_s = std::max(0.0, r.t0_s - base_s);
      r.t1_s = std::max(r.t0_s, r.t1_s - base_s);
      res.spans.push_back(r);
    }
  }
  if (timeline) {
    // Close every entry's timeline at the network-level converged instant,
    // so the per-entry view and the global phase classifier agree on when
    // the run ended.
    const double end_s =
        base_s +
        (res.phases.empty() ? res.last_activity_s : res.phases.back().t0_s);
    res.phase_timeline = timeline->finalize(end_s);
    for (obs::PhaseInterval& iv : res.phase_timeline) {
      iv.t0_s = std::max(0.0, iv.t0_s - base_s);
      iv.t1_s = std::max(iv.t0_s, iv.t1_s - base_s);
    }
    // Aggregate phase occupancy: how long entries spend charging /
    // suppressed / releasing across the run.
    if (collect_metrics && !res.phase_timeline.empty()) {
      obs::PhaseMetrics pm = obs::PhaseMetrics::bind(registry);
      for (const obs::PhaseInterval& iv : res.phase_timeline) {
        pm.intervals->inc();
        switch (iv.phase) {
          case obs::EntryPhase::kCharging:
            pm.charging->observe(iv.duration());
            break;
          case obs::EntryPhase::kSuppression:
            pm.suppression->observe(iv.duration());
            break;
          case obs::EntryPhase::kReleasing:
            pm.releasing->observe(iv.duration());
            break;
          case obs::EntryPhase::kConverged:
            break;
        }
      }
    }
  }
  if (profiling) {
    const bgp::PathTable::Stats& paths = network.paths().stats();
    const bgp::UpdateMessagePool::Stats& pool = network.message_pool().stats();
    profile.alloc.intern_requests = paths.intern_requests;
    profile.alloc.node_builds = paths.node_builds;
    profile.alloc.prepend_hits = paths.prepend_hits;
    profile.alloc.pool_acquired = pool.acquired;
    profile.alloc.pool_reused = pool.reused;
    profile.alloc.pool_high_water = pool.high_water;
    res.profile = profile;
  }

  // --- Emit the artifacts. ---
  const obs::TelemetrySampler* telemetry =
      scaffold::finish_telemetry(lanes, engine.now().as_micros());
  if (telemetry_on) {
    res.telemetry_jsonl = telemetry->jsonl();
    res.telemetry_summary = telemetry->summary_json();
  }
  if (collect_metrics) {
    // End-of-run residency snapshot (post-reclamation), with true in-run
    // peaks from the sampler grid folded with it in case the run peaked
    // after the last grid instant.
    const scaffold::Residency now = scaffold::measure(lane, engine.now());
    const scaffold::Residency grid_peak{
        static_cast<std::size_t>(telemetry->peak("bgp.rib_resident")),
        static_cast<std::size_t>(telemetry->peak("rfd.tracked_entries")),
        static_cast<std::size_t>(telemetry->peak("rfd.active_entries"))};
    scaffold::record_residency(registry, now,
                               scaffold::Residency::max(grid_peak, now));
  }
  res.stability =
      scaffold::finish_stability(lanes, cfg.stability_gap_s, registry);
  if (global_metrics) obs_runtime::accumulate(registry);
  if (obs_runtime::profile_enabled()) obs_runtime::accumulate_profile(profile);
  if (cfg.collect_metrics || cfg.collect_stability) {
    res.metrics = std::move(registry);
  }
  if (trace) {
    // JSONL: append the causal tree and the phase intervals to the event
    // log, already re-based so they line up with the figures.
    for (const obs::SpanRecord& r : res.spans) {
      trace->span(r.trace_id, r.span_id, r.parent_span_id, r.kind, r.t0_s,
                  r.t1_s, r.node, r.peer, r.prefix);
    }
    for (const obs::PhaseInterval& iv : res.phase_timeline) {
      trace->phase(iv.node, iv.peer, iv.prefix, to_string(iv.phase).c_str(),
                   iv.t0_s, iv.t1_s);
    }
    trace->flush();
  } else if (trace_path && trace_format == obs::TraceFormat::kChrome) {
    // Chrome format is one JSON document, written whole once the run is
    // complete.
    if (*trace_path == "-") {
      obs::write_chrome_trace(std::cout, res.spans, res.phase_timeline);
    } else {
      std::ofstream out(*trace_path);
      if (out) obs::write_chrome_trace(out, res.spans, res.phase_timeline);
    }
  }

  return res;
}

}  // namespace rfdnet::core
