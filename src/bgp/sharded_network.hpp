#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "bgp/config.hpp"
#include "bgp/observer.hpp"
#include "bgp/path_table.hpp"
#include "bgp/policy.hpp"
#include "bgp/router.hpp"
#include "net/graph.hpp"
#include "net/partition.hpp"
#include "sim/random.hpp"
#include "sim/sharded_engine.hpp"

namespace rfdnet::bgp {

/// `BgpNetwork` split across the shards of a `sim::ShardedEngine`: routers
/// live on the engine of their shard (per `net::Partition`), same-shard
/// updates deliver exactly like the serial transport, and cross-shard
/// updates travel as time-stamped messages into the destination shard's
/// inbox (admitted under the engine's conservative lookahead window).
///
/// Determinism across shard counts is by construction, not by luck:
///  * Every delivery carries a logical key derived from its *directed wire*
///    (graph-order wire index + per-wire sequence number), so equal-time
///    deliveries order identically however they arrived.
///  * Per-message processing delay is drawn from a per-directed-wire PRNG
///    stream, and MRAI jitter from a per-router stream — no draw shares a
///    generator with another entity, so draw order across shards is
///    irrelevant.
///  * AS paths intern into one `PathTable` per shard (bound to whichever
///    thread runs the shard via the engine's thread hooks); a cross-shard
///    announcement materializes its hops and re-interns them on arrival.
///
/// Deliberately narrower than `BgpNetwork`: no link flapping, no fault
/// perturbation, no causal spans (a cross-shard update would lose its span
/// freight anyway). The serial drivers keep those features; the sharded
/// runner rejects configs that ask for them.
class ShardedBgpNetwork {
 public:
  /// `graph`, `part`, `cfg`, `policy` and `engine` must outlive the network.
  /// `observers[s]` (optional, else all-null) observes the routers of shard
  /// `s` — events land on the recorder of the shard that executes them.
  /// `seed` roots the per-router / per-wire PRNG streams. Installs this
  /// network's path-table binding as the engine's thread init/fini hooks.
  ShardedBgpNetwork(const net::Graph& graph, const net::Partition& part,
                    const TimingConfig& cfg, const Policy& policy,
                    sim::ShardedEngine& engine, std::uint64_t seed,
                    const std::vector<Observer*>& observers = {},
                    RibBackendKind rib_backend = RibBackendKind::kHashMap);

  BgpRouter& router(net::NodeId id) { return *routers_.at(id); }
  const BgpRouter& router(net::NodeId id) const { return *routers_.at(id); }
  std::size_t size() const { return routers_.size(); }
  const net::Graph& graph() const { return graph_; }
  const net::Partition& partition() const { return part_; }
  int shard_of(net::NodeId u) const {
    return part_.shard_of[static_cast<std::size_t>(u)];
  }

  /// Lower bound on every cross-shard delivery latency: min cut-link
  /// propagation delay plus the minimum processing delay. This is the value
  /// to hand `ShardedEngine::set_lookahead`; zero/negative (sub-microsecond
  /// cut links) means the topology cannot be sharded safely. With no cut
  /// links at all, returns a huge-but-finite window (shards never interact).
  sim::Duration conservative_lookahead() const;

  /// Total updates delivered (all shards). Call only between runs.
  std::uint64_t delivered_count() const;

  /// True when every / no router's Loc-RIB holds a route for `p`.
  bool all_reachable(Prefix p) const;
  bool none_reachable(Prefix p) const;

 private:
  /// Per-directed-wire transport record. Wires sit in graph (adjacency)
  /// order: router `u`'s peer slots send on consecutive wires, and the wire
  /// index, a pure function of the graph, keys the delivery's logical key
  /// and the wire's PRNG stream. The endpoints and the receiver's slot
  /// for the sender are fixed at construction; `clear` (the FIFO clamp),
  /// `seq` (messages so far, the key's low bits) and `rng` are touched only
  /// by the sender's shard thread.
  struct Wire {
    net::NodeId from = net::kInvalidNode;
    net::NodeId to = net::kInvalidNode;
    int to_slot = -1;  ///< slot of `from` at `to`
    int dest_shard = 0;
    double delay_s = 0.0;
    std::uint32_t seq = 0;
    sim::SimTime clear;
    sim::Rng rng{0};
  };
  /// A cross-shard update with its AS path materialized (handles don't
  /// survive table boundaries); re-interned at the destination.
  struct Envelope {
    std::uint32_t wire = 0;
    Prefix prefix = 0;
    UpdateKind kind = UpdateKind::kAnnouncement;
    bool has_route = false;
    std::vector<net::NodeId> hops;
    int local_pref = 100;
    std::optional<rcn::RootCause> rc;
    std::optional<RelPref> rel_pref;
  };

  void transmit(std::uint32_t w, const UpdateMessage& msg);
  void deliver_pooled(int shard, std::uint32_t slot);
  void deliver_cross(const Envelope& env);

  /// Delivery keys set bit 63, so at one instant per shard they sort after
  /// every router timer (auto keys, small prefixes) and driver event
  /// (bit 62) — the per-router interleaving a serial engine produces.
  static std::uint64_t delivery_key(std::uint32_t wire_idx,
                                    std::uint32_t seq) {
    return (1ULL << 63) | (static_cast<std::uint64_t>(wire_idx) << 32) | seq;
  }

  const net::Graph& graph_;
  const net::Partition& part_;
  const TimingConfig& cfg_;
  sim::ShardedEngine& engine_;
  std::vector<std::unique_ptr<PathTable>> tables_;  // one per shard
  std::deque<sim::Rng> router_rngs_;                // stable addresses
  std::vector<std::unique_ptr<BgpRouter>> routers_;
  std::vector<Wire> wires_;
  std::vector<std::unique_ptr<UpdateMessagePool>> pools_;  // one per shard
  /// Per-shard delivery counters, cache-line padded: each shard thread
  /// bumps only its own.
  struct alignas(64) ShardCounter {
    std::uint64_t value = 0;
  };
  std::vector<ShardCounter> delivered_;
};

}  // namespace rfdnet::bgp
