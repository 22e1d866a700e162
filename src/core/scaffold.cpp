#include "core/scaffold.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <tuple>
#include <type_traits>

#include "net/topology.hpp"
#include "obs/invariant.hpp"
#include "stats/phase.hpp"

namespace rfdnet::core::scaffold {

World build_world(const ExperimentConfig& cfg) {
  World w;
  w.rng = sim::Rng(cfg.seed);
  sim::Rng topo_rng = w.rng.split();
  w.deploy_rng = w.rng.split();

  w.graph =
      cfg.topology_graph ? *cfg.topology_graph : cfg.topology.build(topo_rng);
  if (w.graph.node_count() < 2 || !w.graph.connected()) {
    throw std::invalid_argument("experiment: topology must be connected");
  }
  const auto base_nodes = static_cast<net::NodeId>(w.graph.node_count());
  w.isp = cfg.isp ? *cfg.isp
                  : static_cast<net::NodeId>(w.rng.uniform_index(base_nodes));
  if (w.isp >= base_nodes) {
    throw std::invalid_argument("experiment: bad isp id");
  }
  w.origin = w.graph.add_node();
  w.graph.add_link(w.origin, w.isp, cfg.topology.link_delay_s,
                   net::Relationship::kProvider);  // isp provides for origin

  w.flap_link = cfg.flap_link.value_or(std::pair{w.origin, w.isp});
  if (!w.graph.has_link(w.flap_link.first, w.flap_link.second)) {
    throw std::invalid_argument("experiment: flap_link does not exist");
  }

  const auto dist = net::bfs_distances(w.graph, w.origin);
  std::size_t max_d = 0;
  for (net::NodeId u = 0; u < w.graph.node_count(); ++u) {
    if (dist[u] != SIZE_MAX) max_d = std::max(max_d, dist[u]);
  }
  w.probe_hops = std::min(cfg.probe_distance, max_d);
  w.probe = w.isp;
  for (net::NodeId u = 0; u < w.graph.node_count(); ++u) {
    if (dist[u] == w.probe_hops) {
      w.probe = u;
      break;
    }
  }

  if (cfg.policy == PolicyKind::kNoValley) {
    w.policy = std::make_unique<bgp::NoValleyPolicy>();
  } else {
    w.policy = std::make_unique<bgp::ShortestPathPolicy>();
  }
  return w;
}

std::vector<std::pair<double, bool>> flap_schedule(const ExperimentConfig& cfg,
                                                   sim::Rng& deploy_rng) {
  std::vector<std::pair<double, bool>> schedule;
  double event_t = 0.0;
  for (int k = 0; k < 2 * cfg.pulses; ++k) {
    if (k > 0) {
      double gap = cfg.flap_interval_s;
      if (cfg.flap_jitter > 0) {
        gap *= deploy_rng.uniform(1.0 - cfg.flap_jitter, 1.0 + cfg.flap_jitter);
      }
      event_t += gap;
    }
    schedule.emplace_back(event_t, k % 2 == 0);
  }
  return schedule;
}

bgp::Observer* Lane::observer() const {
  if (recorder) return recorder.get();
  return stability_probe.get();
}

void init_experiment_lane(Lane& l, sim::Engine& engine,
                          const ExperimentConfig& cfg) {
  l.engine = &engine;
  l.recorder = std::make_unique<stats::Recorder>(cfg.bin_width_s);
  l.recorder->record_all_penalties(cfg.record_all_penalties);
  l.recorder->record_update_log(cfg.record_update_log);
  // The tracker sees the whole run, warm-up included, through the
  // recorder's send/suppress/reuse hooks — exactly the event stream the
  // JSONL trace records, which the differential oracle test leans on.
  if (cfg.collect_stability) {
    l.stability = std::make_unique<obs::StabilityTracker>(cfg.stability_gap_s);
    l.recorder->set_stability(l.stability.get());
  }
}

void bind_metrics(Lane& l, bool full, bool with_engine) {
  if (full) {
    l.router_metrics = obs::RouterMetrics::bind(l.registry);
    l.damping_metrics = obs::DampingMetrics::bind(l.registry);
  } else {
    // The partition-dependent figures stay null; every instrumented hot
    // path null-checks them. The registry get-or-creates by name, so a
    // later full bind upgrades these same counters in place.
    l.router_metrics = obs::RouterMetrics::bind_logical(l.registry);
    l.damping_metrics = obs::DampingMetrics::bind_logical(l.registry);
  }
  if (with_engine) {
    l.engine_metrics = full ? obs::EngineMetrics::bind(l.registry)
                            : obs::EngineMetrics::bind_logical(l.registry);
    l.engine->set_metrics(&l.engine_metrics);
  }
}

void assign_routers(std::vector<Lane>& lanes,
                    const std::vector<bgp::BgpRouter*>& routers,
                    const std::vector<int>& lane_of) {
  for (std::size_t u = 0; u < routers.size(); ++u) {
    Lane& l = lanes[static_cast<std::size_t>(lane_of[u])];
    l.routers.push_back(routers[u]);
    if (l.router_metrics.sends) routers[u]->set_metrics(&l.router_metrics);
  }
}

std::unique_ptr<rfd::DampingModule> attach_damping(
    bgp::BgpRouter& r, Lane& l, const rfd::DampingParams& params,
    bgp::RibBackendKind backend) {
  std::vector<net::NodeId> peer_ids;
  peer_ids.reserve(static_cast<std::size_t>(r.peer_count()));
  for (int s = 0; s < r.peer_count(); ++s) peer_ids.push_back(r.peer(s).id);
  auto mod = std::make_unique<rfd::DampingModule>(
      r.id(), std::move(peer_ids), params, *l.engine,
      [&r](int slot, bgp::Prefix p) { return r.on_reuse(slot, p); },
      l.observer(), backend);
  if (l.damping_metrics.charges) mod->set_metrics(&l.damping_metrics);
  r.set_damping(mod.get());
  l.dampers.push_back(mod.get());
  return mod;
}

std::vector<std::unique_ptr<rfd::DampingModule>> deploy_damping(
    const ExperimentConfig& cfg, sim::Rng& deploy_rng,
    std::vector<Lane>& lanes, const std::vector<bgp::BgpRouter*>& routers,
    const std::vector<int>& lane_of) {
  std::vector<std::unique_ptr<rfd::DampingModule>> dampers;
  if (!cfg.damping) return dampers;
  for (std::size_t u = 0; u < routers.size(); ++u) {
    if (cfg.deployment < 1.0 && !deploy_rng.bernoulli(cfg.deployment)) {
      continue;
    }
    const rfd::DampingParams& params =
        (cfg.damping_alt && deploy_rng.bernoulli(cfg.alt_fraction))
            ? *cfg.damping_alt
            : *cfg.damping;
    auto mod = attach_damping(
        *routers[u], lanes[static_cast<std::size_t>(lane_of[u])], params);
    if (cfg.rcn) mod->enable_rcn();
    if (cfg.selective) mod->enable_selective();
    dampers.push_back(std::move(mod));
  }
  return dampers;
}

namespace {

// Polled by the engine every 1024 executed events (serial) or once per
// barrier round (sharded, from the noexcept round-completion step, so it
// must not throw: the line is formatted on the stack).
template <class EngineT>
void install_heartbeat_on(EngineT& engine, double period_s) {
  if (period_s <= 0) return;
  engine.set_heartbeat([&engine, hb = obs::Heartbeat(period_s),
                        prev_wall = std::chrono::steady_clock::now(),
                        prev_events = std::uint64_t{0}]() mutable {
    if (!hb.due()) return;
    const auto wall = std::chrono::steady_clock::now();
    std::uint64_t events = 0;
    char shards[96] = "";
    if constexpr (std::is_same_v<EngineT, sim::ShardedEngine>) {
      events = engine.executed_so_far();
      std::snprintf(
          shards, sizeof shards, " rounds=%llu barrier_wait=%.3fs",
          static_cast<unsigned long long>(engine.rounds_so_far()),
          static_cast<double>(engine.barrier_wait_ns_so_far()) / 1e9);
    } else {
      events = engine.executed();
    }
    const double dt = std::chrono::duration<double>(wall - prev_wall).count();
    const double rate =
        dt > 0 ? static_cast<double>(events - prev_events) / dt : 0.0;
    std::fprintf(stderr, "heartbeat: sim=%.3fs events=%llu (%.0f/s)%s\n",
                 engine.now().as_seconds(),
                 static_cast<unsigned long long>(events), rate, shards);
    prev_wall = wall;
    prev_events = events;
  });
}

}  // namespace

void install_heartbeat(sim::Engine& engine, double period_s) {
  install_heartbeat_on(engine, period_s);
}

void install_heartbeat(sim::ShardedEngine& engine, double period_s) {
  install_heartbeat_on(engine, period_s);
}

double end_warmup(std::vector<Lane>& lanes, sim::SimTime t0,
                  std::optional<double> freeze_penalties_after_s) {
  double t_up = 0.0;
  for (Lane& l : lanes) {
    if (l.recorder) {
      t_up = std::max(t_up, l.recorder->last_delivery_s().value_or(0.0));
    }
    // Warm-up path exploration must not leave penalties behind.
    for (rfd::DampingModule* d : l.dampers) d->reset();
    if (l.recorder) l.recorder->reset();
    if (freeze_penalties_after_s) {
      const sim::SimTime deadline =
          t0 + sim::Duration::seconds(*freeze_penalties_after_s);
      for (rfd::DampingModule* d : l.dampers) d->set_charge_deadline(deadline);
    }
  }
  return t_up;
}

void start_telemetry(std::vector<Lane>& lanes, sim::SimTime t0,
                     sim::Duration period, double span_s, bool counters) {
  // Runs usually drain long before their horizon; cap the up-front
  // reservation and let the rows grow in the (rare) long tail.
  const std::size_t expect =
      static_cast<std::size_t>(
          std::min(span_s / period.as_seconds(), 65536.0)) +
      1;
  for (Lane& l : lanes) {
    l.sample_now = t0;
    l.telemetry = std::make_unique<obs::TelemetrySampler>(
        (t0 + period).as_micros(), period.as_micros());
    obs::TelemetrySampler& t = *l.telemetry;
    if (counters) {
      if (const obs::Counter* fired = l.engine_metrics.fired) {
        t.add_counter("engine.fired", fired);
      }
      t.add_counter("bgp.sends", l.router_metrics.sends);
      t.add_counter("bgp.withdrawals", l.router_metrics.withdrawals);
      t.add_counter("bgp.mrai_deferrals", l.router_metrics.mrai_deferrals);
      t.add_counter("rfd.charges", l.damping_metrics.charges);
      t.add_counter("rfd.suppressions", l.damping_metrics.suppressions);
      t.add_counter("rfd.reuses", l.damping_metrics.reuses);
      t.add_counter("rfd.reschedules", l.damping_metrics.reschedules);
      if (const stats::Recorder* r = l.recorder.get()) {
        t.add_probe("rfd.damped_links", [r] { return r->damped_level(); });
      }
      if (const obs::StabilityTracker* st = l.stability.get()) {
        t.add_probe("stability.updates", [st] {
          return static_cast<std::int64_t>(st->update_count());
        });
        t.add_probe("stability.trains", [st] {
          return static_cast<std::int64_t>(st->train_count());
        });
      }
    }
    t.add_probe("bgp.rib_resident", [&l] {
      std::int64_t total = 0;
      for (bgp::BgpRouter* r : l.routers) {
        r->sweep_reclaim(l.sample_now);
        total += static_cast<std::int64_t>(r->resident_rows());
      }
      return total;
    });
    t.add_probe("rfd.tracked_entries", [&l] {
      std::int64_t total = 0;
      for (const rfd::DampingModule* d : l.dampers) {
        total += static_cast<std::int64_t>(d->tracked_entries());
      }
      return total;
    });
    t.add_probe("rfd.active_entries", [&l] {
      std::int64_t total = 0;
      for (const rfd::DampingModule* d : l.dampers) {
        total += static_cast<std::int64_t>(d->active_entries(l.sample_now));
      }
      return total;
    });
    t.reserve(expect);
  }
}

void sample(Lane& l, sim::SimTime t) {
  l.sample_now = t;
  l.telemetry->sample(t.as_micros());
}

obs::TelemetrySampler* finish_telemetry(std::vector<Lane>& lanes,
                                        std::int64_t last_us) {
  if (!lanes.front().telemetry) return nullptr;
  for (Lane& l : lanes) {
    l.telemetry->finalize();
    l.telemetry->truncate_after(last_us);
  }
  obs::TelemetrySampler& merged = *lanes.front().telemetry;
  for (std::size_t s = 1; s < lanes.size(); ++s) {
    merged.merge(*lanes[s].telemetry);
  }
  return &merged;
}

obs::Registry merge_metrics(std::vector<Lane>& lanes) {
  obs::Registry merged = std::move(lanes.front().registry);
  for (std::size_t s = 1; s < lanes.size(); ++s) {
    merged.merge(lanes[s].registry);
  }
  return merged;
}

std::optional<obs::StabilityReport> finish_stability(std::vector<Lane>& lanes,
                                                     double gap_s,
                                                     obs::Registry& registry) {
  if (!lanes.front().stability) return std::nullopt;
  obs::StabilityTracker merged(gap_s);
  merged.finalize();
  for (Lane& l : lanes) {
    l.stability->finalize();
    merged.merge(*l.stability);
  }
  obs::StabilityReport report = merged.report();
  obs::StabilityMetrics::bind(registry).record(report);
  return report;
}

Residency& Residency::operator+=(const Residency& o) {
  rib += o.rib;
  tracked += o.tracked;
  active += o.active;
  return *this;
}

Residency Residency::max(const Residency& a, const Residency& b) {
  return {std::max(a.rib, b.rib), std::max(a.tracked, b.tracked),
          std::max(a.active, b.active)};
}

Residency measure(Lane& l, sim::SimTime now) {
  Residency r;
  for (bgp::BgpRouter* router : l.routers) {
    router->sweep_reclaim(now);
    r.rib += router->resident_rows();
  }
  for (const rfd::DampingModule* d : l.dampers) {
    r.tracked += d->tracked_entries();
    r.active += d->active_entries(now);
  }
  return r;
}

void record_residency(obs::Registry& registry, const Residency& now,
                      const Residency& peak) {
  const obs::ResidencyMetrics m = obs::ResidencyMetrics::bind(registry);
  m.rib->set(static_cast<std::int64_t>(now.rib));
  m.tracked->set(static_cast<std::int64_t>(now.tracked));
  m.active->set(static_cast<std::int64_t>(now.active));
  m.rib_peak->set(static_cast<std::int64_t>(peak.rib));
  m.tracked_peak->set(static_cast<std::int64_t>(peak.tracked));
  m.active_peak->set(static_cast<std::int64_t>(peak.active));
}

void check_invariants(const std::vector<Lane>& lanes) {
  for (const Lane& l : lanes) {
    l.engine->check_invariants();
    for (const bgp::BgpRouter* r : l.routers) r->check_invariants();
    for (const rfd::DampingModule* d : l.dampers) d->check_invariants();
  }
}

Streams streams_of(const stats::Recorder& r) {
  Streams s;
  s.delivered = r.delivered_count();
  s.dropped = r.dropped_count();
  s.last_delivery_s = r.last_delivery_s();
  s.max_penalty = r.max_penalty_seen();
  s.delivery_times = r.delivery_times();
  s.suppressions = r.suppress_events();
  s.reuses = r.reuse_events();
  s.penalties = r.penalty_events();
  s.probe_trace = r.penalty_trace();
  s.update_log = r.update_log();
  s.busy = r.busy_deltas();
  return s;
}

MergedStreams::MergedStreams(const std::vector<Lane>& lanes) {
  const auto append = [](auto& into, const auto& from) {
    into.insert(into.end(), from.begin(), from.end());
  };
  for (const Lane& l : lanes) {
    const stats::Recorder& r = *l.recorder;
    delivered += r.delivered_count();
    dropped += r.dropped_count();
    if (const auto t = r.last_delivery_s()) {
      last_delivery_s = std::max(last_delivery_s.value_or(*t), *t);
    }
    max_penalty = std::max(max_penalty, r.max_penalty_seen());
    append(delivery_times_, r.delivery_times());
    append(suppressions_, r.suppress_events());
    append(reuses_, r.reuse_events());
    append(penalties_, r.penalty_events());
    append(probe_trace_, r.penalty_trace());
    append(update_log_, r.update_log());
    append(busy_, r.busy_deltas());
  }
  const auto by_t_node_peer = [](const auto& a, const auto& b) {
    return std::tie(a.t_s, a.node, a.peer) < std::tie(b.t_s, b.node, b.peer);
  };
  std::sort(delivery_times_.begin(), delivery_times_.end());
  std::stable_sort(suppressions_.begin(), suppressions_.end(), by_t_node_peer);
  std::stable_sort(reuses_.begin(), reuses_.end(), by_t_node_peer);
  std::stable_sort(penalties_.begin(), penalties_.end(), by_t_node_peer);
  std::stable_sort(probe_trace_.begin(), probe_trace_.end(),
                   [](const auto& a, const auto& b) { return a.t_s < b.t_s; });
  std::stable_sort(update_log_.begin(), update_log_.end(),
                   [](const auto& a, const auto& b) {
                     return std::tie(a.t_s, a.to, a.from) <
                            std::tie(b.t_s, b.to, b.from);
                   });
  // Busy deltas: +1 before -1 at equal instants, so the merged busy count
  // never dips below its serial trajectory on ties.
  std::stable_sort(busy_.begin(), busy_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first ||
                            (a.first == b.first && a.second > b.second);
                   });
  delivery_times = delivery_times_;
  suppressions = suppressions_;
  reuses = reuses_;
  penalties = penalties_;
  probe_trace = probe_trace_;
  update_log = update_log_;
  busy = busy_;
}

void assemble_result(const Streams& s, const World& w,
                     const ExperimentConfig& cfg, double base_s,
                     ExperimentResult& res) {
  const auto rebase = [base_s](double t) { return std::max(0.0, t - base_s); };
  res.origin = w.origin;
  res.isp = w.isp;
  res.probe = w.probe;
  res.probe_hops = w.probe_hops;
  res.link_count = w.graph.link_count();
  res.message_count = s.delivered;
  res.dropped_count = s.dropped;
  res.last_activity_s = rebase(s.last_delivery_s.value_or(base_s));
  // Convergence counts from the instant the workload goes quiet: the last
  // scheduled flap or the last fault release, whichever is later.
  const double workload_stop = std::max(res.stop_time_s, res.fault_stop_s);
  res.convergence_time_s =
      (cfg.pulses > 0 || cfg.faults)
          ? std::max(0.0, res.last_activity_s - workload_stop)
          : 0.0;

  res.update_series = stats::TimeSeries(cfg.bin_width_s);
  for (const double t : s.delivery_times) res.update_series.add(rebase(t));
  for (const auto& e : s.suppressions) {
    if (e.node == w.isp && e.peer == w.origin) res.isp_suppressed = true;
  }
  // Suppress (+1) and reuse (-1) events interleave in time; rebuild the
  // merged step series in order.
  {
    stats::StepSeries merged;
    std::size_t i = 0, j = 0;
    const auto& sup = s.suppressions;
    const auto& reu = s.reuses;
    while (i < sup.size() || j < reu.size()) {
      const bool take_sup =
          j >= reu.size() || (i < sup.size() && sup[i].t_s <= reu[j].t_s);
      if (take_sup) {
        merged.add(rebase(sup[i].t_s), +1);
        ++i;
      } else {
        merged.add(rebase(reu[j].t_s), -1);
        ++j;
      }
    }
    res.damped_links = std::move(merged);
  }
  for (const auto& e : s.reuses) {
    const double t = e.t_s - base_s;
    if (e.node == w.isp && e.peer == w.origin) {
      res.isp_reuse_s = t;
    } else if (e.noisy) {
      res.net_last_noisy_reuse_s =
          std::max(res.net_last_noisy_reuse_s.value_or(0.0), t);
    }
    ++(e.noisy ? res.noisy_reuses : res.silent_reuses);
  }
  res.suppress_events = s.suppressions.size();
  res.max_penalty = s.max_penalty;

  for (const auto& e : s.probe_trace) {
    res.penalty_trace.emplace_back(rebase(e.t_s), e.value);
  }
  for (const auto& e : s.penalties) {
    res.penalty_events.push_back(
        ExperimentResult::PenaltyEvent{rebase(e.t_s), e.node, e.peer, e.value});
  }
  for (const auto& e : s.suppressions) {
    res.suppressions.push_back(
        ExperimentResult::EntryEvent{rebase(e.t_s), e.node, e.peer, false});
  }
  for (const auto& e : s.reuses) {
    res.reuses.push_back(
        ExperimentResult::EntryEvent{rebase(e.t_s), e.node, e.peer, e.noisy});
  }
  for (const auto& u : s.update_log) {
    res.update_log.push_back(ExperimentResult::UpdateRecord{
        rebase(u.t_s), u.from, u.to, u.kind == bgp::UpdateKind::kWithdrawal,
        u.rc});
  }

  stats::PhaseInput pin;
  pin.first_flap_s = 0.0;
  pin.busy_deltas.reserve(s.busy.size());
  for (const auto& [t, d] : s.busy) pin.busy_deltas.emplace_back(rebase(t), d);
  for (const auto& e : s.reuses) {
    pin.reuse_fires.emplace_back(rebase(e.t_s), e.noisy);
  }
  res.phases = stats::classify_phases(pin);
}

}  // namespace rfdnet::core::scaffold
