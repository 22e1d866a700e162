#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/config.hpp"
#include "bgp/damping_hook.hpp"
#include "bgp/message.hpp"
#include "bgp/observer.hpp"
#include "bgp/policy.hpp"
#include "bgp/prefix.hpp"
#include "bgp/rib_backend.hpp"
#include "net/types.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rcn/root_cause.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace rfdnet::bgp {

/// One BGP speaker (one AS, per Fig. 1/2 of the paper).
///
/// Implements the RIB-IN / Loc-RIB / RIB-OUT pipeline: receives updates,
/// consults the damping hook, runs the decision process under a `Policy`,
/// and emits updates to peers subject to export rules and per-(peer, prefix)
/// MRAI pacing. Message transport (delay, delivery) is delegated to the
/// owner via `SendFn` so the router is unit-testable in isolation.
class BgpRouter {
 public:
  struct PeerInfo {
    net::NodeId id = net::kInvalidNode;
    net::Relationship rel = net::Relationship::kPeer;
  };

  /// Puts `msg` on the wire toward the peer in slot `slot`. Provided by the
  /// network layer, which binds one per router and so knows the sender.
  using SendFn = std::function<void(int slot, const UpdateMessage&)>;

  BgpRouter(net::NodeId id, std::vector<PeerInfo> peers,
            const TimingConfig& cfg, const Policy& policy, sim::Engine& engine,
            sim::Rng& rng, SendFn send, Observer* observer = nullptr,
            RibBackendKind rib_backend = RibBackendKind::kHashMap);

  net::NodeId id() const { return id_; }
  int peer_count() const { return static_cast<int>(peers_.size()); }
  const PeerInfo& peer(int slot) const { return peers_.at(slot); }
  /// Slot index for a neighbor id, or -1.
  int peer_slot(net::NodeId neighbor) const;

  /// Attaches (or detaches, with nullptr) the damping hook. Not owned.
  void set_damping(DampingHook* hook) { damper_ = hook; }
  DampingHook* damping() const { return damper_; }

  /// Originates `p` locally and announces it (subject to policy/MRAI).
  void originate(Prefix p, std::optional<rcn::RootCause> rc = {});
  /// Stops originating `p` and withdraws it.
  void withdraw_origin(Prefix p, std::optional<rcn::RootCause> rc = {});
  bool originates(Prefix p) const { return originated_.contains(p); }

  /// Processes an update that has arrived on peer slot `slot` (called by the
  /// network layer at delivery time, after propagation + processing delay).
  void receive(int slot, const UpdateMessage& msg);
  /// `receive` from neighbor `from`, resolving its slot first (tests).
  void deliver(net::NodeId from, const UpdateMessage& msg);

  /// The BGP session to peer `slot` went down (link failure): all routes
  /// learned on it become unfeasible (implicit withdrawals, visible to the
  /// damping hook), and the RIB-OUT state for the peer is discarded — the
  /// peer no longer has anything from us. `rc` tags the updates this change
  /// triggers (RCN).
  void session_down(int slot, std::optional<rcn::RootCause> rc = {});

  /// The session to peer `slot` came (back) up: the current best routes are
  /// advertised to it afresh, as in a BGP session establishment.
  void session_up(int slot, std::optional<rcn::RootCause> rc = {});

  /// Whether the session to peer `slot` is established. While a session is
  /// down, the decision process keeps running but nothing is emitted toward
  /// the peer — and, crucially, RIB-OUT bookkeeping is not advanced, so the
  /// re-advertisement at `session_up` is never skipped because of an update
  /// that was "sent" into the dead session and lost.
  bool session_open(int slot) const { return session_open_.at(slot); }

  /// Called by the damping module when the reuse timer for (slot, p) fires
  /// and the entry becomes eligible again. Returns true if the reuse changed
  /// this router's best route — a "noisy" reuse in the paper's terms.
  bool on_reuse(int slot, Prefix p);

  /// Current best route for `p` (Loc-RIB), if any.
  std::optional<Route> best(Prefix p) const;
  /// Slot the best route was learned from (-1 = self-originated or none).
  int best_slot(Prefix p) const;
  /// Route currently stored in RIB-IN for (slot, p), if any.
  std::optional<Route> rib_in_route(int slot, Prefix p) const;
  /// Number of updates this router has put on the wire.
  std::uint64_t sent_count() const { return sent_; }

  /// Updates currently held back (pending RIB-OUT entries).
  int pending_depth() const { return pending_depth_; }

  /// Storage backend the per-prefix tables run on.
  RibBackendKind rib_backend() const { return rib_in_.kind(); }

  /// Resident per-prefix rows in each table. A prefix that has been fully
  /// withdrawn everywhere is reclaimed (see `maybe_reclaim`), so at
  /// quiescence these track the set of reachable prefixes, not the set of
  /// prefixes ever heard — the difference is the full-table leak this
  /// bounds. Always zero on the null backend.
  struct RibResidency {
    std::size_t rib_in = 0;
    std::size_t loc_rib = 0;
    std::size_t out = 0;
    std::size_t total() const { return rib_in + loc_rib + out; }
  };
  RibResidency residency() const {
    return RibResidency{rib_in_.size(), loc_rib_.size(), out_.size()};
  }
  /// Drains every deferred-reclaim candidate whose MRAI pacing horizon has
  /// passed (see `maybe_reclaim`). Runs automatically on every external poke
  /// (deliver, session churn, reuse, origination); drivers call it before
  /// reading `residency` so rows parked after the network's last activity
  /// don't linger in the report. O(1) when nothing is parked.
  void sweep_reclaim();
  /// Same sweep judged at an explicit instant instead of the engine clock.
  /// The telemetry probes use this: at a barrier-aligned sample instant a
  /// shard's own clock sits at its last executed event — a partition-
  /// dependent value — while the grid instant is workload-pure. Safe for any
  /// `now` at or after the last executed event on this router's engine.
  void sweep_reclaim(sim::SimTime now);

  /// Attaches (or detaches, with nullptr) a metrics bundle / trace sink.
  /// Typically one bundle is shared by every router of a network, so the
  /// counters aggregate. Not owned.
  void set_metrics(obs::RouterMetrics* m) { metrics_ = m; }
  void set_trace(obs::TraceSink* t) { trace_ = t; }

  /// Attaches (or detaches, with nullptr) the causal span tracer shared by
  /// the whole simulation. While attached, delivered updates close their
  /// wire span, processing runs under it as the active context, and every
  /// emitted update / MRAI deferral mints a child span. Not owned.
  void set_span_tracer(obs::SpanTracer* t) { spans_ = t; }

  /// Audit: pending-depth bookkeeping matches the RIB-OUT flags, and every
  /// scheduled MRAI wakeup has something to flush and a live engine event.
  /// Throws `obs::InvariantViolation` on breakage; always runs.
  void check_invariants() const;

 private:
  static constexpr int kSelfSlot = -1;
  static constexpr int kNoneSlot = -2;

  struct RibInEntry {
    std::optional<Route> route;
    std::optional<rcn::RootCause> rc;  ///< RC of the last update received
  };

  struct LocRibEntry {
    std::optional<Route> best;
    int from_slot = kNoneSlot;
  };

  struct OutEntry {
    std::optional<Route> last_sent;  ///< nullopt: withdrawn / never announced
    std::optional<Route> pending;    ///< desired state while has_pending
    std::optional<rcn::RootCause> pending_rc;
    bool has_pending = false;
    sim::SimTime mrai_ready;         ///< earliest next rate-limited send
    sim::EventId mrai_event = sim::kInvalidEvent;
    /// Span that caused the pending update (active context at enqueue time);
    /// the eventual send (or deferral) parents on it.
    obs::SpanContext pending_parent;
    /// Open `bgp.mrai_defer` span while an MRAI wakeup is scheduled.
    obs::SpanContext mrai_span;
  };

  RibInEntry& rib_in(int slot, Prefix p);
  const RibInEntry* find_rib_in(int slot, Prefix p) const;
  OutEntry& out_entry(int slot, Prefix p);
  OutEntry* find_out(int slot, Prefix p);

  /// What peer `slot` should currently be hearing from us for `p` (export
  /// policy, sender-side filtering), or nullopt for "withdrawn/nothing".
  std::optional<Route> desired_for(int slot, Prefix p) const;
  /// The route this router advertises for `loc.best` — the prepend happens
  /// here, exactly once per decision; the per-peer fan-out shares the
  /// resulting interned path. `loc.best` must be set.
  Route export_route(const LocRibEntry& loc) const;
  /// Per-peer export filters applied to the shared `exported` route:
  /// advertise-to-sender rule, policy `can_export`, sender-side loop check.
  std::optional<Route> filter_export(int slot, const LocRibEntry& loc,
                                     const Route& exported) const;

  /// Recomputes the best route for `p`, updates Loc-RIB, and enqueues the
  /// resulting updates toward every peer. `trigger_rc` is copied into those
  /// updates (RCN propagation rule, §6.1). Returns true if Loc-RIB changed.
  bool process(Prefix p, const std::optional<rcn::RootCause>& trigger_rc);

  void enqueue(int slot, Prefix p, std::optional<Route> desired,
               const std::optional<rcn::RootCause>& rc);
  /// `enqueue` with the RIB-OUT entry already in hand — the decision-process
  /// fan-out resolves `out_[p]` once and feeds every peer's entry through
  /// here instead of re-hashing per peer.
  void enqueue_entry(OutEntry& oe, int slot, Prefix p,
                     std::optional<Route> desired,
                     const std::optional<rcn::RootCause>& rc);
  void try_flush(int slot, Prefix p);
  void try_flush_entry(OutEntry& oe, int slot, Prefix p);
  void clear_pending(OutEntry& oe);
  /// Reclaims the per-prefix rows of `p` once everything about it is inert:
  /// not originated, no RIB-IN route on any slot, no Loc-RIB best, and every
  /// RIB-OUT entry idle (nothing sent-and-standing, nothing pending, no MRAI
  /// wakeup). A row whose only live state is a future `mrai_ready` is not
  /// erased — that would forget the rate limit — but is parked on
  /// `reclaim_queue_` and re-checked by `sweep_reclaim` once the pacing
  /// horizon has passed. No engine event is scheduled: reclamation is pure
  /// bookkeeping and must not perturb `Engine::pending()` or run-to-empty
  /// clock behavior.
  void maybe_reclaim(Prefix p);
  /// The same check with the park/erase decision judged at an explicit
  /// instant (see the public `sweep_reclaim(SimTime)` overload).
  void maybe_reclaim(Prefix p, sim::SimTime now);
  /// Single bookkeeping point for pending-depth changes: keeps the local
  /// counter, the metrics gauge and the observer in lockstep.
  void note_pending(int delta, sim::SimTime t);

  net::NodeId id_;
  std::vector<PeerInfo> peers_;
  std::unordered_map<net::NodeId, int> slot_of_;
  const TimingConfig& cfg_;
  const Policy& policy_;
  sim::Engine& engine_;
  sim::Rng& rng_;
  SendFn send_;
  Observer* observer_;
  DampingHook* damper_ = nullptr;
  obs::RouterMetrics* metrics_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  obs::SpanTracer* spans_ = nullptr;

  std::unordered_set<Prefix> originated_;
  /// Per-slot session state; all sessions start established.
  std::vector<bool> session_open_;
  // Per-prefix tables behind the pluggable storage backend. The rib_in_ and
  // out_ rows are indexed by peer slot.
  RibTable<std::vector<RibInEntry>> rib_in_;
  RibTable<LocRibEntry> loc_rib_;
  RibTable<std::vector<OutEntry>> out_;
  /// Deferred-reclaim parking lot: min-heap of (pacing horizon, prefix)
  /// drained by `sweep_reclaim`, with a guard set so each prefix is parked
  /// at most once (a stale horizon just re-evaluates and re-parks).
  std::vector<std::pair<sim::SimTime, Prefix>> reclaim_queue_;
  std::unordered_set<Prefix> reclaim_parked_;
  std::uint64_t sent_ = 0;
  int pending_depth_ = 0;
};

}  // namespace rfdnet::bgp
