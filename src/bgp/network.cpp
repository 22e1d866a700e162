#include "bgp/network.hpp"

#include <stdexcept>

namespace rfdnet::bgp {

BgpNetwork::BgpNetwork(const net::Graph& graph, const TimingConfig& cfg,
                       const Policy& policy, sim::Engine& engine,
                       sim::Rng& rng, Observer* observer,
                       RibBackendKind rib_backend)
    : graph_(graph), engine_(engine), rng_(rng), cfg_(cfg), observer_(observer) {
  cfg.validate();
  const std::size_t n = graph.node_count();
  std::uint32_t wire_count = 0;
  first_wire_.reserve(n);
  for (net::NodeId u = 0; u < n; ++u) {
    first_wire_.push_back(wire_count);
    wire_count += static_cast<std::uint32_t>(graph.degree(u));
  }
  routers_.reserve(n);
  for (net::NodeId u = 0; u < n; ++u) {
    std::vector<BgpRouter::PeerInfo> peers;
    peers.reserve(graph.degree(u));
    for (const auto& e : graph.neighbors(u)) {
      peers.push_back(BgpRouter::PeerInfo{e.neighbor, e.rel});
    }
    routers_.push_back(std::make_unique<BgpRouter>(
        u, std::move(peers), cfg, policy, engine, rng,
        [this, first = first_wire_[u]](int slot, const UpdateMessage& msg) {
          transmit(first + static_cast<std::uint32_t>(slot), msg);
        },
        observer, rib_backend));
  }
  // Pre-build the directed wires in adjacency order.
  wires_.reserve(wire_count);
  for (net::NodeId u = 0; u < n; ++u) {
    for (const auto& e : graph.neighbors(u)) {
      Wire& wire = wires_.emplace_back();
      wire.from = u;
      wire.to = e.neighbor;
      wire.to_slot = routers_[e.neighbor]->peer_slot(u);
      wire.delay_s = e.delay_s;
    }
  }
}

std::uint32_t BgpNetwork::wire_index(net::NodeId u, net::NodeId v) const {
  if (!graph_.has_link(u, v)) {
    throw std::invalid_argument("BgpNetwork: no such link");
  }
  return first_wire_[u] +
         static_cast<std::uint32_t>(routers_[u]->peer_slot(v));
}

void BgpNetwork::transmit(std::uint32_t w, const UpdateMessage& msg) {
  Wire& wire = wires_[w];
  if (!wire.up) {
    ++dropped_;
    if (observer_) observer_->on_drop(wire.from, wire.to, msg, engine_.now());
    if (spans_) spans_->close(msg.span, engine_.now().as_seconds());
    return;
  }

  double extra = 0.0;
  if (perturb_) {
    const Perturbation p = perturb_(wire.from, wire.to);
    if (p.drop) {
      ++dropped_;
      if (observer_) {
        observer_->on_drop(wire.from, wire.to, msg, engine_.now());
      }
      if (spans_) spans_->close(msg.span, engine_.now().as_seconds());
      return;
    }
    extra = p.extra_delay_s;
  }

  const double proc = rng_.uniform(cfg_.proc_delay_min_s, cfg_.proc_delay_max_s);
  sim::SimTime when =
      engine_.now() + sim::Duration::seconds(wire.delay_s + proc + extra);
  // Enforce the FIFO clamp (see `Wire::clear`): a reordered withdrawal would
  // leave a permanently stale route behind.
  if (when < wire.clear) when = wire.clear;
  wire.clear = when + sim::Duration::micros(1);
  // Park the message in a pooled slot: the sender's buffer may be reused,
  // and the delivery closure then carries only the slot index — small enough
  // to sit in std::function's inline buffer, so scheduling a send allocates
  // nothing. A message from an earlier session incarnation is lost if the
  // link flapped while it was in flight (epoch check at delivery).
  const std::uint32_t slot = pool_.acquire();
  UpdateMessagePool::Slot& parked = pool_.at(slot);
  parked.msg = msg;
  parked.wire = w;
  parked.epoch = wire.epoch;
  engine_.schedule_at(when, [this, slot] { deliver_pooled(slot); },
                      sim::EventKind::kDelivery);
}

void BgpNetwork::deliver_pooled(std::uint32_t slot) {
  // Deque-backed slots have stable addresses, so this reference survives the
  // re-entrant transmits (and pool acquires) the delivery triggers.
  const UpdateMessagePool::Slot& parked = pool_.at(slot);
  const Wire& wire = wires_[parked.wire];
  if (!wire.up || wire.epoch != parked.epoch) {
    ++dropped_;
    if (observer_) {
      observer_->on_drop(wire.from, wire.to, parked.msg, engine_.now());
    }
    if (spans_) spans_->close(parked.msg.span, engine_.now().as_seconds());
    pool_.release(slot);
    return;
  }
  ++delivered_;
  routers_[wire.to]->receive(wire.to_slot, parked.msg);
  pool_.release(slot);
}

void BgpNetwork::set_link(net::NodeId u, net::NodeId v, bool up) {
  const std::uint32_t w = wire_index(u, v);
  if (wires_[w].up == up) return;
  const int slot_uv = static_cast<int>(w - first_wire_[u]);
  const int slot_vu = wires_[w].to_slot;
  for (Wire* wire : {&wires_[w], &wires_[first_wire_[v] + slot_vu]}) {
    wire->up = up;
    ++wire->epoch;
  }

  // Each endpoint detects the change on its own side and tags the updates
  // it emits with a root cause for its direction of the link (§6.1).
  const auto rc_for = [this, up](net::NodeId self, net::NodeId other) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(self) << 32) | other;
    auto [it, inserted] =
        rc_sources_.try_emplace(key, rcn::RootCauseSource{self, other});
    return it->second.next(up);
  };
  BgpRouter& ru = *routers_[u];
  BgpRouter& rv = *routers_[v];
  if (up) {
    ru.session_up(slot_uv, rc_for(u, v));
    rv.session_up(slot_vu, rc_for(v, u));
  } else {
    ru.session_down(slot_uv, rc_for(u, v));
    rv.session_down(slot_vu, rc_for(v, u));
  }
}

bool BgpNetwork::link_is_up(net::NodeId u, net::NodeId v) const {
  return wires_[wire_index(u, v)].up;
}

bool BgpNetwork::all_reachable(Prefix p) const {
  for (const auto& r : routers_) {
    if (!r->best(p)) return false;
  }
  return true;
}

bool BgpNetwork::none_reachable(Prefix p) const {
  for (const auto& r : routers_) {
    if (r->best(p)) return false;
  }
  return true;
}

}  // namespace rfdnet::bgp
