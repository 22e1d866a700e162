#include "bgp/sharded_network.hpp"

#include <stdexcept>
#include <utility>

namespace rfdnet::bgp {

namespace {

/// SplitMix64 finalizer: decorrelates the per-entity sub-seeds derived from
/// one root seed (adjacent ids must not produce adjacent xoshiro states).
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kRouterStream = 0xA5ULL << 56;
constexpr std::uint64_t kWireStream = 0x5AULL << 56;

}  // namespace

ShardedBgpNetwork::ShardedBgpNetwork(const net::Graph& graph,
                                     const net::Partition& part,
                                     const TimingConfig& cfg,
                                     const Policy& policy,
                                     sim::ShardedEngine& engine,
                                     std::uint64_t seed,
                                     const std::vector<Observer*>& observers,
                                     RibBackendKind rib_backend)
    : graph_(graph), part_(part), cfg_(cfg), engine_(engine) {
  cfg.validate();
  const std::size_t n = graph.node_count();
  if (part.shard_of.size() != n) {
    throw std::invalid_argument("ShardedBgpNetwork: partition/graph mismatch");
  }
  if (part.shards != engine.shards()) {
    throw std::invalid_argument(
        "ShardedBgpNetwork: partition and engine disagree on shard count");
  }
  const auto k = static_cast<std::size_t>(part.shards);
  if (!observers.empty() && observers.size() != k) {
    throw std::invalid_argument(
        "ShardedBgpNetwork: need one observer slot per shard");
  }

  tables_.reserve(k);
  pools_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    tables_.push_back(std::make_unique<PathTable>());
    pools_.push_back(std::make_unique<UpdateMessagePool>());
  }
  delivered_.resize(k);

  // Per-router MRAI-jitter streams: one generator per router, sub-seeded
  // from the root seed and the node id, so a router draws the same jitter
  // sequence no matter which shard (or how many shards) it runs on.
  for (net::NodeId u = 0; u < n; ++u) {
    router_rngs_.emplace_back(mix(seed ^ kRouterStream ^ u));
  }

  // Router `u`'s peer slot `s` sends on wire `first_wire[u] + s`.
  std::vector<std::uint32_t> first_wire;
  std::uint32_t wire_count = 0;
  first_wire.reserve(n);
  for (net::NodeId u = 0; u < n; ++u) {
    first_wire.push_back(wire_count);
    wire_count += static_cast<std::uint32_t>(graph.degree(u));
  }

  routers_.reserve(n);
  for (net::NodeId u = 0; u < n; ++u) {
    std::vector<BgpRouter::PeerInfo> peers;
    peers.reserve(graph.degree(u));
    for (const auto& e : graph.neighbors(u)) {
      peers.push_back(BgpRouter::PeerInfo{e.neighbor, e.rel});
    }
    const int s = shard_of(u);
    routers_.push_back(std::make_unique<BgpRouter>(
        u, std::move(peers), cfg, policy, engine_.shard(s), router_rngs_[u],
        *tables_[static_cast<std::size_t>(s)],
        [this, first = first_wire[u]](int slot, const UpdateMessage& msg) {
          transmit(first + static_cast<std::uint32_t>(slot), msg);
        },
        observers.empty() ? nullptr : observers[static_cast<std::size_t>(s)],
        rib_backend));
  }

  // Directed wires in graph order: the index is a pure function of the
  // graph, so delivery keys and per-wire PRNG streams are identical for
  // every partition of it.
  wires_.reserve(wire_count);
  for (net::NodeId u = 0; u < n; ++u) {
    for (const auto& e : graph.neighbors(u)) {
      const auto idx = static_cast<std::uint32_t>(wires_.size());
      Wire& w = wires_.emplace_back();
      w.from = u;
      w.to = e.neighbor;
      w.to_slot = routers_[e.neighbor]->peer_slot(u);
      w.dest_shard = shard_of(e.neighbor);
      w.delay_s = e.delay_s;
      w.clear = sim::SimTime::zero();
      w.rng = sim::Rng(mix(seed ^ kWireStream ^ idx));
    }
  }
}

sim::Duration ShardedBgpNetwork::conservative_lookahead() const {
  if (!part_.has_cut()) {
    // No link crosses shards: shards never interact, any window works.
    return sim::Duration::seconds(1e9);
  }
  return sim::Duration::seconds(part_.min_cut_delay_s +
                                cfg_.proc_delay_min_s);
}

void ShardedBgpNetwork::transmit(std::uint32_t w, const UpdateMessage& msg) {
  Wire& wire = wires_[w];
  const int src = shard_of(wire.from);
  sim::Engine& src_engine = engine_.shard(src);

  const double proc =
      wire.rng.uniform(cfg_.proc_delay_min_s, cfg_.proc_delay_max_s);
  sim::SimTime when =
      src_engine.now() + sim::Duration::seconds(wire.delay_s + proc);
  // FIFO clamp, exactly as in the serial transport: BGP runs over TCP, so a
  // later update must never overtake an earlier one on the same session.
  if (when < wire.clear) when = wire.clear;
  wire.clear = when + sim::Duration::micros(1);
  const std::uint64_t key = delivery_key(w, wire.seq++);

  if (wire.dest_shard == src) {
    UpdateMessagePool& pool = *pools_[static_cast<std::size_t>(src)];
    const std::uint32_t slot = pool.acquire();
    UpdateMessagePool::Slot& parked = pool.at(slot);
    parked.msg = msg;
    parked.wire = w;
    src_engine.schedule_keyed(
        when, key, [this, src, slot] { deliver_pooled(src, slot); },
        sim::EventKind::kDelivery, wire.to);
    return;
  }

  // Cross-shard: materialize the AS path (the interned handle is only valid
  // in the sender's table) and let the destination shard re-intern it. Span
  // freight is dropped — the sharded transport does not support tracing.
  Envelope env;
  env.wire = w;
  env.prefix = msg.prefix;
  env.kind = msg.kind;
  if (msg.route) {
    env.has_route = true;
    env.hops = msg.route->path.hops();
    env.local_pref = msg.route->local_pref;
  }
  env.rc = msg.rc;
  env.rel_pref = msg.rel_pref;
  engine_.post(
      wire.dest_shard, when, key, wire.to,
      [this, env = std::move(env)] { deliver_cross(env); },
      sim::EventKind::kDelivery);
}

void ShardedBgpNetwork::deliver_pooled(int shard, std::uint32_t slot) {
  UpdateMessagePool& pool = *pools_[static_cast<std::size_t>(shard)];
  const UpdateMessagePool::Slot& parked = pool.at(slot);
  const Wire& wire = wires_[parked.wire];
  ++delivered_[static_cast<std::size_t>(shard)].value;
  routers_[wire.to]->receive(wire.to_slot, parked.msg);
  pool.release(slot);
}

void ShardedBgpNetwork::deliver_cross(const Envelope& env) {
  UpdateMessage msg;
  msg.prefix = env.prefix;
  msg.kind = env.kind;
  // Only the wire's fixed fields are read here, on the receiver's thread.
  const Wire& wire = wires_[env.wire];
  if (env.has_route) {
    PathTable& paths = *tables_[static_cast<std::size_t>(wire.dest_shard)];
    msg.route = Route{paths.from_hops(env.hops), env.local_pref};
  }
  msg.rc = env.rc;
  msg.rel_pref = env.rel_pref;
  ++delivered_[static_cast<std::size_t>(wire.dest_shard)].value;
  routers_[wire.to]->receive(wire.to_slot, msg);
}

std::uint64_t ShardedBgpNetwork::delivered_count() const {
  std::uint64_t n = 0;
  for (const ShardCounter& c : delivered_) n += c.value;
  return n;
}

bool ShardedBgpNetwork::all_reachable(Prefix p) const {
  for (const auto& r : routers_) {
    if (!r->best(p)) return false;
  }
  return true;
}

bool ShardedBgpNetwork::none_reachable(Prefix p) const {
  for (const auto& r : routers_) {
    if (r->best(p)) return false;
  }
  return true;
}

}  // namespace rfdnet::bgp
