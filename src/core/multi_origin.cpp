#include "core/multi_origin.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "bgp/network.hpp"
#include "bgp/policy.hpp"
#include "core/config_validate.hpp"
#include "rcn/root_cause.hpp"
#include "rfd/damping.hpp"
#include "sim/engine.hpp"
#include "stats/recorder.hpp"

namespace rfdnet::core {

void MultiOriginConfig::validate() const {
  if (origins < 1) throw std::invalid_argument("multi-origin: origins < 1");
  if (pulses < 0) throw std::invalid_argument("multi-origin: pulses < 0");
  if (flap_interval_s <= 0 || stagger_s < 0) {
    throw std::invalid_argument("multi-origin: bad intervals");
  }
  // Spans on the clock; the last flap is the latest instant scheduled.
  validate_span(flap_interval_s, "multi-origin: flap_interval_s");
  validate_span(stagger_s, "multi-origin: stagger_s");
  validate_span(stagger_s * (origins - 1) +
                    (2.0 * pulses - 1.0) * flap_interval_s,
                "multi-origin: stagger_s x (origins - 1) + "
                "(2 x pulses - 1) x flap_interval_s");
  validate_span(max_sim_s, "multi-origin: max_sim_s");
  validate_span(topology.link_delay_s, "multi-origin: link_delay_s");
  if (damping) damping->validate();
  timing.validate();
}

MultiOriginResult run_multi_origin(const MultiOriginConfig& cfg) {
  cfg.validate();

  sim::Rng rng(cfg.seed);
  sim::Rng topo_rng = rng.split();

  net::Graph graph = cfg.topology.build(topo_rng);
  const auto base_nodes = static_cast<net::NodeId>(graph.node_count());
  if (static_cast<int>(base_nodes) < cfg.origins) {
    throw std::invalid_argument("multi-origin: more origins than nodes");
  }

  // Attach each origin to a distinct random ISP.
  std::vector<net::NodeId> isps;
  std::vector<net::NodeId> origins;
  while (static_cast<int>(isps.size()) < cfg.origins) {
    const auto candidate =
        static_cast<net::NodeId>(rng.uniform_index(base_nodes));
    if (std::find(isps.begin(), isps.end(), candidate) != isps.end()) continue;
    isps.push_back(candidate);
  }
  for (const net::NodeId isp : isps) {
    const net::NodeId origin = graph.add_node();
    graph.add_link(origin, isp, cfg.topology.link_delay_s,
                   net::Relationship::kProvider);
    origins.push_back(origin);
  }

  bgp::ShortestPathPolicy policy;
  sim::Engine engine;
  stats::Recorder recorder;
  bgp::BgpNetwork network(graph, cfg.timing, policy, engine, rng, &recorder);

  std::vector<std::unique_ptr<rfd::DampingModule>> dampers;
  if (cfg.damping) {
    for (net::NodeId u = 0; u < graph.node_count(); ++u) {
      bgp::BgpRouter& r = network.router(u);
      std::vector<net::NodeId> peer_ids;
      for (int s = 0; s < r.peer_count(); ++s) peer_ids.push_back(r.peer(s).id);
      auto mod = std::make_unique<rfd::DampingModule>(
          u, std::move(peer_ids), *cfg.damping, engine,
          [&r](int slot, bgp::Prefix p) { return r.on_reuse(slot, p); },
          &recorder);
      if (cfg.rcn) mod->enable_rcn();
      r.set_damping(mod.get());
      dampers.push_back(std::move(mod));
    }
  }

  // Warm-up: origin i originates prefix i.
  for (int i = 0; i < cfg.origins; ++i) {
    network.router(origins[static_cast<std::size_t>(i)])
        .originate(static_cast<bgp::Prefix>(i));
  }
  engine.run(sim::SimTime::from_seconds(cfg.max_sim_s));
  for (int i = 0; i < cfg.origins; ++i) {
    if (!network.all_reachable(static_cast<bgp::Prefix>(i))) {
      throw std::runtime_error("multi-origin: warm-up did not converge");
    }
  }
  for (auto& d : dampers) d->reset();
  recorder.reset();

  // Staggered flap schedules, one per origin.
  const sim::SimTime t0 = engine.now();
  const double base_s = t0.as_seconds();
  std::vector<std::unique_ptr<rcn::RootCauseSource>> rc_sources;
  double last_stop_s = 0.0;
  for (int i = 0; i < cfg.origins; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    rc_sources.push_back(
        std::make_unique<rcn::RootCauseSource>(origins[idx], isps[idx]));
    bgp::BgpRouter& router = network.router(origins[idx]);
    rcn::RootCauseSource& src = *rc_sources.back();
    const auto prefix = static_cast<bgp::Prefix>(i);
    const double offset = cfg.stagger_s * i;
    for (int k = 0; k < cfg.pulses; ++k) {
      engine.schedule_at(
          t0 + sim::Duration::seconds(offset + 2.0 * k * cfg.flap_interval_s),
          [&router, &src, prefix] {
            router.withdraw_origin(prefix, src.next(false));
          });
      engine.schedule_at(
          t0 + sim::Duration::seconds(offset +
                                      (2.0 * k + 1.0) * cfg.flap_interval_s),
          [&router, &src, prefix] { router.originate(prefix, src.next(true)); });
    }
    if (cfg.pulses > 0) {
      last_stop_s = std::max(
          last_stop_s, offset + (2.0 * cfg.pulses - 1.0) * cfg.flap_interval_s);
    }
  }

  engine.run(t0 + sim::Duration::seconds(cfg.max_sim_s));

  MultiOriginResult res;
  res.hit_horizon = engine.pending() > 0;
  res.message_count = recorder.delivered_count();
  res.suppress_events = recorder.suppress_count();
  res.max_penalty = recorder.max_penalty_seen();
  const double last_activity =
      std::max(0.0, recorder.last_delivery_s().value_or(base_s) - base_s);
  res.convergence_time_s =
      cfg.pulses > 0 ? std::max(0.0, last_activity - last_stop_s) : 0.0;
  res.isp_suppressed.assign(static_cast<std::size_t>(cfg.origins), false);
  for (const auto& s : recorder.suppress_events()) {
    for (int i = 0; i < cfg.origins; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (s.node == isps[idx] && s.peer == origins[idx]) {
        res.isp_suppressed[idx] = true;
      }
    }
  }
  return res;
}

}  // namespace rfdnet::core
