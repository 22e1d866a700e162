#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/config.hpp"
#include "bgp/observer.hpp"
#include "bgp/policy.hpp"
#include "bgp/router.hpp"
#include "net/graph.hpp"
#include "rcn/root_cause.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace rfdnet::bgp {

/// A network of BGP routers wired per a `net::Graph`: one router per node,
/// one session per link. Transport delivers each update after the link's
/// propagation delay plus a uniform processing delay at the receiver — the
/// SSFNet-style timing model whose asynchrony drives path exploration.
class BgpNetwork {
 public:
  /// `graph`, `cfg`, `policy`, `engine` and `rng` must outlive the network.
  /// `rib_backend` selects the per-prefix storage every router runs on.
  BgpNetwork(const net::Graph& graph, const TimingConfig& cfg,
             const Policy& policy, sim::Engine& engine, sim::Rng& rng,
             Observer* observer = nullptr,
             RibBackendKind rib_backend = RibBackendKind::kHashMap);

  BgpRouter& router(net::NodeId id) { return *routers_.at(id); }
  const BgpRouter& router(net::NodeId id) const { return *routers_.at(id); }
  std::size_t size() const { return routers_.size(); }
  const net::Graph& graph() const { return graph_; }

  /// Total updates delivered so far (each hop counts once).
  std::uint64_t delivered_count() const { return delivered_; }
  /// Updates lost to link failures.
  std::uint64_t dropped_count() const { return dropped_; }

  /// Sets the state of link {u, v}. Downing a link tears down the BGP
  /// session at both ends (routes learned over it become unfeasible;
  /// updates in flight are lost); upping re-establishes the session and the
  /// endpoints re-advertise their best routes. Each endpoint tags the
  /// updates it triggers with a fresh root cause for its direction of the
  /// link. No-op if the link is already in the requested state.
  void set_link(net::NodeId u, net::NodeId v, bool up);
  bool link_is_up(net::NodeId u, net::NodeId v) const;

  /// Per-message transmission perturbation (fault injection). Consulted for
  /// every update put on a healthy link; may drop the message or add extra
  /// in-flight delay. The extra delay is applied *before* the per-session
  /// FIFO clamp, so TCP ordering still holds.
  struct Perturbation {
    bool drop = false;
    double extra_delay_s = 0.0;
  };
  using PerturbFn =
      std::function<Perturbation(net::NodeId from, net::NodeId to)>;
  /// Installs (or removes, with an empty function) the perturbation hook.
  /// Not consulted for messages already in flight.
  void set_perturbation(PerturbFn fn) { perturb_ = std::move(fn); }

  /// Attaches (or detaches) the causal span tracer: the network closes the
  /// wire span of every update it drops, and every router gets the tracer
  /// for its own span emission. Not owned.
  void set_span_tracer(obs::SpanTracer* t) {
    spans_ = t;
    for (auto& r : routers_) r->set_span_tracer(t);
  }

  /// True when every router's Loc-RIB holds a route for `p`.
  bool all_reachable(Prefix p) const;
  /// True when no router has a route for `p`.
  bool none_reachable(Prefix p) const;

  /// In-flight message pool (tests / alloc profiling).
  const UpdateMessagePool& message_pool() const { return pool_; }

 private:
  /// Puts `msg` on directed wire `w`.
  void transmit(std::uint32_t w, const UpdateMessage& msg);
  /// Delivery-time half of `transmit`: checks the link is still the same
  /// incarnation, hands the pooled message to the receiver's slot, recycles
  /// the pool slot.
  void deliver_pooled(std::uint32_t slot);
  /// Wire from `u` to its neighbor `v`; throws if there is no such link.
  std::uint32_t wire_index(net::NodeId u, net::NodeId v) const;

  const net::Graph& graph_;
  sim::Engine& engine_;
  sim::Rng& rng_;
  const TimingConfig& cfg_;
  Observer* observer_ = nullptr;
  obs::SpanTracer* spans_ = nullptr;
  std::vector<std::unique_ptr<BgpRouter>> routers_;
  // Hot-path record per *directed* link, built once at construction: both
  // endpoints, the receiver's peer slot for the sender, the propagation
  // delay, the link's failure state, and the FIFO clamp — BGP runs over
  // TCP, so a later update must never overtake an earlier one on the same
  // session. `set_link` updates the failure state of both directions
  // together; `epoch` counts up/down transitions so in-flight messages from
  // an earlier session incarnation are discarded on delivery. Wires sit in
  // the graph's adjacency order: router `u`'s peer slot `s` sends on
  // `first_wire_[u] + s`.
  struct Wire {
    net::NodeId from = net::kInvalidNode;
    net::NodeId to = net::kInvalidNode;
    int to_slot = -1;  ///< slot of `from` at `to`
    bool up = true;
    std::uint64_t epoch = 0;
    double delay_s = 0.0;
    sim::SimTime clear;  ///< earliest arrival for the next message
  };
  std::vector<std::uint32_t> first_wire_;
  std::vector<Wire> wires_;
  std::unordered_map<std::uint64_t, rcn::RootCauseSource> rc_sources_;
  UpdateMessagePool pool_;
  PerturbFn perturb_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace rfdnet::bgp
