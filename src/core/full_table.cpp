#include "core/full_table.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/sharded_network.hpp"
#include "core/config_validate.hpp"
#include "core/scaffold.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "stats/zipf.hpp"

namespace rfdnet::core {

void FullTableConfig::validate() const {
  if (prefixes < 1) {
    throw std::invalid_argument("full-table: prefixes must be >= 1");
  }
  if (routers < 2) {
    throw std::invalid_argument("full-table: need at least 2 routers");
  }
  if (events > 0 && event_interval_s <= 0) {
    throw std::invalid_argument("full-table: event interval must be > 0");
  }
  if (!std::isfinite(alpha) || alpha < 0.0) {
    throw std::invalid_argument("full-table: alpha must be finite and >= 0");
  }
  if (samples < 1) throw std::invalid_argument("full-table: samples >= 1");
  validate_stability_gap(collect_stability, stability_gap_s, "full-table");
  validate_telemetry(telemetry_period_s, heartbeat_s, "full-table");
  if (cooldown_s < 0) throw std::invalid_argument("full-table: cooldown < 0");
  if (shards < 0) throw std::invalid_argument("full-table: shards < 0");
  timing.validate();
  if (damping) damping->validate();
}

FullTableResult run_full_table(const FullTableConfig& cfg) {
  cfg.validate();

  sim::Rng rng(cfg.seed);
  // The toggle stream draws from its own split so its randomness is
  // independent of the network — and so n = 1 (which draws nothing) stays
  // byte-identical trivially.
  sim::Rng churn_rng = rng.split();

  const net::Graph graph = net::make_line(cfg.routers, cfg.link_delay_s);
  bgp::ShortestPathPolicy policy;
  FullTableResult res;
  // The line is cut into contiguous blocks, one lane per shard; `shards` 0
  // and 1 both run one shard on the calling thread.
  const net::Partition part =
      net::partition_graph(graph, std::max(cfg.shards, 1));
  const auto k = static_cast<std::size_t>(part.shards);
  sim::ShardedEngine engine(part.shards);

  // Lanes carry the logical counters only (`bind_logical`, exact per-lane
  // sums); the stability tracker hears sends and damping events through a
  // probe rather than a recorder, whose per-delivery vectors this many
  // prefixes cannot afford.
  std::vector<scaffold::Lane> lanes(k);
  std::vector<bgp::Observer*> observers;
  for (std::size_t s = 0; s < k; ++s) {
    scaffold::Lane& l = lanes[s];
    l.engine = &engine.shard(static_cast<int>(s));
    scaffold::bind_metrics(l, /*full=*/false, /*with_engine=*/false);
    if (cfg.collect_stability) {
      l.stability =
          std::make_unique<obs::StabilityTracker>(cfg.stability_gap_s);
      l.stability_probe =
          std::make_unique<stats::StabilityProbe>(l.stability.get());
    }
    observers.push_back(l.observer());
  }
  bgp::ShardedBgpNetwork network(graph, part, cfg.timing, policy, engine,
                                 cfg.seed, observers, cfg.rib_backend);
  const sim::Duration lookahead = network.conservative_lookahead();
  if (part.has_cut() && lookahead <= sim::Duration::zero()) {
    throw std::invalid_argument(
        "full-table: link delay rounds to zero microseconds; cannot shard");
  }
  engine.set_lookahead(lookahead);

  std::vector<bgp::BgpRouter*> routers;
  for (net::NodeId u = 0; u < graph.node_count(); ++u) {
    routers.push_back(&network.router(u));
  }
  scaffold::assign_routers(lanes, routers, part.shard_of);
  std::vector<std::unique_ptr<rfd::DampingModule>> dampers;
  if (cfg.damping) {
    for (net::NodeId u = 0; u < graph.node_count(); ++u) {
      dampers.push_back(scaffold::attach_damping(
          *routers[u], lanes[static_cast<std::size_t>(part.shard_of[u])],
          *cfg.damping, cfg.rib_backend));
    }
  }
  scaffold::install_heartbeat(engine, cfg.heartbeat_s);

  scaffold::DriverKeys keys;
  bgp::BgpRouter& origin = network.router(0);
  sim::Engine& origin_engine = engine.shard(part.shard_of[0]);

  // --- Warm-up: the origin announces the full table, as an event on its
  // shard, and the line converges.
  origin_engine.schedule_keyed(
      sim::SimTime::zero(), keys.next(),
      [&origin, &cfg] {
        for (std::size_t p = 0; p < cfg.prefixes; ++p) {
          origin.originate(static_cast<bgp::Prefix>(p));
        }
      },
      sim::EventKind::kFlap, 0);
  engine.run();
  if (origin.rib_backend() != bgp::RibBackendKind::kNull) {
    for (std::size_t p = 0; p < cfg.prefixes; ++p) {
      if (!network.all_reachable(static_cast<bgp::Prefix>(p))) {
        throw std::runtime_error("full-table: warm-up did not converge");
      }
    }
  }
  const sim::SimTime t0 = engine.now();
  scaffold::end_warmup(lanes, t0, std::nullopt);

  // --- Churn: a self-rescheduling toggle chain on the origin's shard (one
  // live engine event at a time, however long the stream). Targets are
  // pre-drawn so the stream is a pure function of the seed.
  stats::ZipfSampler zipf(cfg.prefixes, cfg.alpha);
  std::vector<bgp::Prefix> targets(cfg.events);
  for (auto& t : targets) t = static_cast<bgp::Prefix>(zipf.sample(churn_rng));
  std::vector<bool> up(cfg.prefixes, true);

  const std::uint64_t delivered_before = network.delivered_count();
  std::uint64_t sent_before = 0;
  for (const bgp::BgpRouter* r : routers) sent_before += r->sent_count();

  const double churn_span_s =
      static_cast<double>(cfg.events) * cfg.event_interval_s;
  const sim::Duration step = sim::Duration::seconds(cfg.event_interval_s);

  // Telemetry: per-lane samplers advanced at barrier-aligned grid instants.
  // No engine.* series: the residency sample events below are pre-scheduled
  // per lane, so even the fired count depends on the partition. The cursor
  // lives in the engine and persists across the churn and cooldown runs,
  // keeping the grid unbroken at the phase boundary.
  if (cfg.telemetry_period_s > 0) {
    const sim::Duration period = sim::Duration::seconds(cfg.telemetry_period_s);
    scaffold::start_telemetry(lanes, t0, period, churn_span_s + cfg.cooldown_s,
                              /*counters=*/true);
    engine.set_sampling(t0 + period, period,
                        [&lanes](int s, sim::SimTime when) {
                          scaffold::sample(
                              lanes[static_cast<std::size_t>(s)], when);
                        });
  }

  // Residency sampling: per-lane events at `samples` fixed instants across
  // the toggle stream. A sample reads only its own lane; the per-instant
  // sums make peak and final figures a pure function of the workload and
  // the sample instants, not of the partition.
  const std::uint64_t sample_every =
      cfg.events == 0 ? 1
                      : std::max<std::uint64_t>(1, cfg.events / cfg.samples);
  const std::size_t n_samples =
      cfg.events == 0 ? 0
                      : static_cast<std::size_t>(cfg.events / sample_every);
  std::vector<std::vector<scaffold::Residency>> samples_of(
      k, std::vector<scaffold::Residency>(n_samples));
  for (std::size_t s = 0; s < k; ++s) {
    for (std::size_t m = 0; m < n_samples; ++m) {
      const sim::SimTime when =
          t0 + step * static_cast<std::int64_t>((m + 1) * sample_every);
      engine.shard(static_cast<int>(s)).schedule_keyed(
          when, keys.next(),
          [&lanes, &samples_of, s, m, when] {
            samples_of[s][m] = scaffold::measure(lanes[s], when);
          },
          sim::EventKind::kGeneric);
    }
  }

  std::function<void()> toggle_step = [&] {
    const bgp::Prefix p = targets[res.toggles_applied];
    if (up[p]) {
      origin.withdraw_origin(p);
    } else {
      origin.originate(p);
    }
    up[p] = !up[p];
    ++res.toggles_applied;
    if (res.toggles_applied < cfg.events) {
      origin_engine.schedule_keyed(origin_engine.now() + step, keys.next(),
                                   toggle_step, sim::EventKind::kFlap, 0);
    }
  };
  if (cfg.events > 0) {
    origin_engine.schedule_keyed(t0 + step, keys.next(), toggle_step,
                                 sim::EventKind::kFlap, 0);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  engine.run(t0 + sim::Duration::seconds(churn_span_s));
  const auto wall_end = std::chrono::steady_clock::now();
  // Cooldown: let MRAI flushes, reuse timers and parked reclaims drain.
  engine.run(t0 + sim::Duration::seconds(churn_span_s + cfg.cooldown_s));
  if (cfg.telemetry_period_s > 0) engine.clear_sampling();

  // Final residency (post-run, all lanes, judged at the last executed event
  // of the whole run), then the peak over it and every per-instant sum.
  scaffold::Residency final_residency;
  for (scaffold::Lane& l : lanes) {
    final_residency += scaffold::measure(l, engine.now());
  }
  scaffold::Residency peak = final_residency;
  for (std::size_t m = 0; m < n_samples; ++m) {
    scaffold::Residency sum;
    for (std::size_t s = 0; s < k; ++s) sum += samples_of[s][m];
    peak = scaffold::Residency::max(peak, sum);
  }
  res.final_rib_resident = final_residency.rib;
  res.final_damping_tracked = final_residency.tracked;
  res.final_damping_active = final_residency.active;
  res.peak_rib_resident = peak.rib;
  res.peak_damping_tracked = peak.tracked;
  res.peak_damping_active = peak.active;

  res.updates_delivered = network.delivered_count() - delivered_before;
  std::uint64_t sent_after = 0;
  for (const bgp::BgpRouter* r : routers) sent_after += r->sent_count();
  res.updates_sent = sent_after - sent_before;
  res.sim_duration_s = churn_span_s + cfg.cooldown_s;
  res.hit_horizon = engine.pending() > 0;
  res.wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
  res.updates_per_core_sec =
      res.wall_s > 0.0
          ? static_cast<double>(res.updates_delivered) / res.wall_s
          : 0.0;

  if (const obs::TelemetrySampler* telemetry =
          scaffold::finish_telemetry(lanes, engine.now().as_micros())) {
    res.telemetry_jsonl = telemetry->jsonl();
    res.telemetry_summary = telemetry->summary_json();
  }
  res.metrics = scaffold::merge_metrics(lanes);
  scaffold::record_residency(res.metrics, final_residency, peak);
  res.stability =
      scaffold::finish_stability(lanes, cfg.stability_gap_s, res.metrics);
  return res;
}

std::string FullTableResult::scorecard() const {
  std::ostringstream os;
  os << "{\"toggles\":" << toggles_applied
     << ",\"delivered\":" << updates_delivered << ",\"sent\":" << updates_sent
     << ",\"hit_horizon\":" << (hit_horizon ? "true" : "false")
     << ",\"residency\":{\"peak\":" << peak_rib_resident
     << ",\"final\":" << final_rib_resident
     << "},\"damping\":{\"peak_tracked\":" << peak_damping_tracked
     << ",\"final_tracked\":" << final_damping_tracked
     << ",\"peak_active\":" << peak_damping_active
     << ",\"final_active\":" << final_damping_active << "},\"metrics\":";
  metrics.write_json(os);
  // Aggregate train summary only: the per-key space is O(prefixes * links)
  // on this workload, far too large to embed.
  os << ",\"stability\":";
  if (stability) {
    os << stability->summary_json();
  } else {
    os << "null";
  }
  os << '}';
  return os.str();
}

}  // namespace rfdnet::core
