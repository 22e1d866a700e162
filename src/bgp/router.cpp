#include "bgp/router.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/invariant.hpp"

namespace rfdnet::bgp {

namespace {
/// Local preference carried on the wire. Not transitive across eBGP: the
/// receiver overwrites it with its own import preference, so announcements
/// are emitted with this fixed placeholder to keep duplicate detection
/// meaningful.
constexpr int kWirePref = 100;

/// Min-heap comparator for the deferred-reclaim parking lot.
struct ReclaimLater {
  bool operator()(const std::pair<sim::SimTime, Prefix>& a,
                  const std::pair<sim::SimTime, Prefix>& b) const {
    return b.first < a.first;
  }
};
}  // namespace

BgpRouter::BgpRouter(net::NodeId id, std::vector<PeerInfo> peers,
                     const TimingConfig& cfg, const Policy& policy,
                     sim::Engine& engine, sim::Rng& rng, PathTable& paths,
                     SendFn send, Observer* observer,
                     RibBackendKind rib_backend)
    : id_(id),
      peers_(std::move(peers)),
      cfg_(cfg),
      policy_(policy),
      engine_(engine),
      rng_(rng),
      paths_(paths),
      send_(std::move(send)),
      observer_(observer),
      session_open_(peers_.size(), true),
      rows_(rib_backend) {
  if (!send_) throw std::invalid_argument("BgpRouter: empty send function");
  for (int s = 0; s < static_cast<int>(peers_.size()); ++s) {
    if (peers_[s].id == id_) {
      throw std::invalid_argument("BgpRouter: cannot peer with self");
    }
    if (!slot_of_.emplace(peers_[s].id, s).second) {
      throw std::invalid_argument("BgpRouter: duplicate peer");
    }
  }
}

int BgpRouter::peer_slot(net::NodeId neighbor) const {
  const auto it = slot_of_.find(neighbor);
  return it == slot_of_.end() ? -1 : it->second;
}

BgpRouter::Row& BgpRouter::row_of(Prefix p) {
  Row& row = rows_.find_or_create(p);
  if (row.peers.empty()) row.peers.resize(peers_.size());
  return row;
}

void BgpRouter::originate(Prefix p, std::optional<rcn::RootCause> rc) {
  sweep_reclaim();
  Row& row = row_of(p);
  row.originated = true;
  process(p, row, rc);
}

void BgpRouter::withdraw_origin(Prefix p, std::optional<rcn::RootCause> rc) {
  sweep_reclaim();
  Row& row = row_of(p);
  row.originated = false;
  process(p, row, rc);
}

void BgpRouter::deliver(net::NodeId from, const UpdateMessage& msg) {
  const int slot = peer_slot(from);
  if (slot < 0) throw std::logic_error("BgpRouter: update from non-peer");
  receive(slot, msg);
}

void BgpRouter::receive(int slot, const UpdateMessage& msg) {
  sweep_reclaim();
  if (observer_) {
    observer_->on_deliver(peers_[slot].id, id_, msg, engine_.now());
  }

  // Close the update's wire span at the delivery instant, then process under
  // it as the active context so derived spans parent on this hop.
  if (spans_) spans_->close(msg.span, engine_.now().as_seconds());
  const obs::ActiveSpan span_guard(spans_, msg.span);

  // Import processing: AS-path loop detection turns the announcement into an
  // implicit withdrawal; surviving announcements get this router's import
  // preference.
  UpdateMessage eff = msg;
  bool loop_denied = false;
  if (eff.is_announcement() && eff.route->path.contains(id_)) {
    eff = UpdateMessage::withdraw(msg.prefix, msg.rc);
    loop_denied = true;
  }
  if (eff.is_announcement()) {
    eff.route->local_pref = policy_.import_pref(peers_[slot].rel);
  }

  Row& row = row_of(eff.prefix);
  PeerEntry& entry = row.peers.at(slot);
  // Damping sees every received update, classified against the entry's
  // previous contents (RFC 2439; paper Fig. 2).
  if (damper_) damper_->on_update(slot, eff, entry.route, loop_denied);
  entry.route = eff.route;
  entry.rc = eff.rc;

  process(eff.prefix, row, eff.rc);
}

void BgpRouter::session_down(int slot, std::optional<rcn::RootCause> rc) {
  if (slot < 0 || slot >= static_cast<int>(peers_.size())) {
    throw std::invalid_argument("BgpRouter: bad peer slot");
  }
  sweep_reclaim();
  // Close the session first: the decision-process runs triggered below must
  // not advance RIB-OUT state toward the dead peer (see `session_open`).
  session_open_.at(slot) = false;
  // All routes learned on the session become unfeasible. Damping sees them
  // as withdrawals (RFC 2439 keeps damping state across session resets).
  // Ordered iteration: the damping charges (and the observer/trace records
  // they emit) happen here, so the visit order must not depend on the
  // hash layout.
  std::vector<std::pair<Prefix, Row*>> affected;
  rows_.for_each_ordered([&](Prefix p, Row& row) {
    PeerEntry& e = row.peers[slot];
    if (!e.route) return;
    const UpdateMessage implicit = UpdateMessage::withdraw(p, rc);
    if (damper_) damper_->on_update(slot, implicit, e.route, false);
    e.route.reset();
    e.rc = rc;
    affected.emplace_back(p, &row);
  });

  // The peer has lost everything we ever advertised: reset RIB-OUT state
  // and any pending/rate-limit machinery for the session. `clear_pending`
  // cancels the MRAI wakeup too — resetting `mrai_ready` while the event
  // stays scheduled would leave a stale flush surviving the session churn.
  rows_.for_each_ordered([&](Prefix, Row& row) {
    OutEntry& oe = row.peers[slot].out;
    clear_pending(oe);
    oe.last_sent.reset();
    oe.mrai_ready = sim::SimTime::zero();
  });

  // Each decision reclaims at most its own row, so the others stay valid.
  for (const auto& [p, row] : affected) process(p, *row, rc);
}

void BgpRouter::session_up(int slot, std::optional<rcn::RootCause> rc) {
  if (slot < 0 || slot >= static_cast<int>(peers_.size())) {
    throw std::invalid_argument("BgpRouter: bad peer slot");
  }
  sweep_reclaim();
  session_open_.at(slot) = true;
  // Session (re-)establishment: advertise the current best routes afresh.
  rows_.for_each_ordered([&](Prefix p, Row& row) {
    if (!row.best) return;
    enqueue(row.peers[slot].out, slot, p,
            filter_export(slot, row, export_route(row)), rc);
  });
}

bool BgpRouter::on_reuse(int slot, Prefix p) {
  sweep_reclaim();
  // The reused entry's stored RC rides on whatever updates the reuse
  // triggers (§6.2: reuse announcements carry an already-seen root cause).
  Row& row = row_of(p);
  const std::optional<rcn::RootCause> rc = row.peers.at(slot).rc;
  return process(p, row, rc);
}

bool BgpRouter::process(Prefix p, Row& row,
                        const std::optional<rcn::RootCause>& rc) {
  // Phase 1 of the decision process: pick the best usable candidate.
  Route self_route;
  Candidate best{};
  bool have = false;
  int best_slot = kNoneSlot;
  if (row.originated) {
    self_route = Route{paths_.origin(id_), kWirePref};
    best = Candidate{&self_route, id_, true};
    best_slot = kSelfSlot;
    have = true;
  }
  // The null store's row is a scratch slot that retains no RIB-IN, so a
  // router on it selects no learned route (see `RibBackendKind::kNull`).
  if (rows_.retains()) {
    for (int s = 0; s < static_cast<int>(peers_.size()); ++s) {
      const PeerEntry& e = row.peers[s];
      if (!e.route) continue;
      if (damper_ && damper_->suppressed(s, p)) continue;
      const Candidate c{&*e.route, peers_[s].id, false};
      if (!have || policy_.better(c, best)) {
        best = c;
        best_slot = s;
        have = true;
      }
    }
  }

  const std::optional<Route> new_best =
      have ? std::optional<Route>(*best.route) : std::nullopt;
  const bool changed = (new_best != row.best);
  const bool origin_changed = (best_slot != row.from_slot);
  row.best = new_best;
  row.from_slot = best_slot;
  if (changed && observer_) {
    observer_->on_best_change(id_, p, row.best, engine_.now());
  }
  if (!changed && !origin_changed) {
    // Even a no-op decision can be the last event for a prefix (a duplicate
    // withdrawal allocated an empty row above); reclaim before returning so
    // dead prefixes never accrete.
    maybe_reclaim(p, row, engine_.now());
    return false;
  }

  // Phase 3: recompute the desired RIB-OUT state for every peer. The
  // advertised route is the same for the whole fan-out, so the prepend is
  // hoisted out of the peer loop — each peer then only runs the cheap
  // per-peer filters against the shared interned path. The enqueue/flush
  // machinery suppresses no-ops and applies MRAI pacing.
  const std::optional<Route> exported =
      row.best ? std::optional<Route>(export_route(row)) : std::nullopt;
  for (int s = 0; s < static_cast<int>(peers_.size()); ++s) {
    OutEntry& oe = row.peers[s].out;
    if (!session_open_[s]) {
      // A closed session only drops its pending state: RIB-OUT keeps "the
      // peer has nothing from us" (session_down) for session_up to resend.
      clear_pending(oe);
      continue;
    }
    enqueue(oe, s, p,
            exported ? filter_export(s, row, *exported) : std::nullopt, rc);
  }
  // A withdrawal fan-out that flushed everywhere may have left the prefix
  // fully inert; `row` is dead after this call.
  maybe_reclaim(p, row, engine_.now());
  return changed;
}

void BgpRouter::maybe_reclaim(Prefix p, const Row& row, sim::SimTime now) {
  if (row.originated || row.best) return;
  sim::SimTime pacing_horizon = sim::SimTime::zero();
  for (const PeerEntry& e : row.peers) {
    const OutEntry& oe = e.out;
    if (e.route || oe.last_sent || oe.has_pending ||
        oe.mrai_event != sim::kInvalidEvent) {
      return;
    }
    if (pacing_horizon < oe.mrai_ready) pacing_horizon = oe.mrai_ready;
  }
  if (now < pacing_horizon) {
    // Everything about the prefix is inert except the MRAI rate limit, which
    // a re-announcement inside the window must still honor. Park the prefix
    // and let `sweep_reclaim` re-check it past the horizon; the guard set
    // keeps one parking slot per prefix no matter how often the decision
    // process runs meanwhile.
    if (reclaim_parked_.insert(p).second) {
      reclaim_queue_.emplace_back(pacing_horizon, p);
      std::push_heap(reclaim_queue_.begin(), reclaim_queue_.end(),
                     ReclaimLater{});
    }
    return;
  }
  rows_.erase(p);
}

void BgpRouter::sweep_reclaim() { sweep_reclaim(engine_.now()); }

void BgpRouter::sweep_reclaim(sim::SimTime now) {
  while (!reclaim_queue_.empty() && !(now < reclaim_queue_.front().first)) {
    const Prefix p = reclaim_queue_.front().second;
    std::pop_heap(reclaim_queue_.begin(), reclaim_queue_.end(),
                  ReclaimLater{});
    reclaim_queue_.pop_back();
    reclaim_parked_.erase(p);
    // Re-evaluates from scratch: the prefix may have come alive again since
    // parking (then this is a no-op) or picked up a later horizon (then it
    // re-parks itself, judged at `now`).
    if (const Row* row = rows_.find(p)) maybe_reclaim(p, *row, now);
  }
}

Route BgpRouter::export_route(const Row& row) const {
  // Learned routes get this AS prepended; a self-originated path already
  // starts (and ends) with it.
  AsPath exported = (row.from_slot == kSelfSlot)
                        ? row.best->path
                        : paths_.prepend(row.best->path, id_);
  return Route{std::move(exported), kWirePref};
}

std::optional<Route> BgpRouter::filter_export(int slot, const Row& row,
                                              const Route& exported) const {
  if (!cfg_.advertise_to_sender && slot == row.from_slot) return std::nullopt;
  const std::optional<net::Relationship> from_rel =
      (row.from_slot >= 0) ? std::optional(peers_[row.from_slot].rel)
                           : std::nullopt;
  if (!policy_.can_export(from_rel, peers_[slot].rel)) return std::nullopt;
  if (cfg_.sender_side_loop_check &&
      exported.path.contains(peers_[slot].id)) {
    return std::nullopt;  // the peer would deny it anyway
  }
  return exported;  // the copy shares the interned path
}

void BgpRouter::note_pending(int delta, sim::SimTime t) {
  pending_depth_ += delta;
  RFDNET_INVARIANT(pending_depth_ >= 0, "router: pending depth negative");
  // Logical bundles (bind_logical) leave the partition-dependent pending
  // gauge null.
  if (metrics_ && metrics_->pending) metrics_->pending->add(delta);
  if (observer_) observer_->on_pending_change(id_, delta, t);
}

void BgpRouter::clear_pending(OutEntry& oe) {
  // With nothing left to flush, a scheduled MRAI wakeup is a stale timer:
  // cancel it instead of letting it fire into a no-op (and survive session
  // churn after `mrai_ready` was reset).
  if (oe.mrai_event != sim::kInvalidEvent) {
    engine_.cancel(oe.mrai_event);
    oe.mrai_event = sim::kInvalidEvent;
  }
  if (spans_ && oe.mrai_span.valid()) {
    // The deferral ended without a send (converged back / session churn).
    spans_->close(oe.mrai_span, engine_.now().as_seconds());
  }
  oe.mrai_span = obs::SpanContext{};
  oe.pending_parent = obs::SpanContext{};
  if (oe.has_pending) {
    oe.has_pending = false;
    oe.pending.reset();
    oe.pending_rc.reset();
    note_pending(-1, engine_.now());
  }
}

void BgpRouter::enqueue(OutEntry& oe, int slot, Prefix p,
                        std::optional<Route> desired,
                        const std::optional<rcn::RootCause>& rc) {
  if (desired == oe.last_sent) {
    // Converged back to what the peer already has: drop any pending update.
    clear_pending(oe);
    return;
  }
  if (!oe.has_pending) {
    oe.has_pending = true;
    note_pending(+1, engine_.now());
  }
  oe.pending = std::move(desired);
  oe.pending_rc = rc;
  // The latest cause wins: a pending update overwritten by a newer decision
  // is attributed to the newer decision's span.
  if (spans_) oe.pending_parent = spans_->active();
  try_flush(oe, slot, p);
}

void BgpRouter::try_flush(OutEntry& oe, int slot, Prefix p) {
  if (!oe.has_pending) return;
  RFDNET_INVARIANT(session_open_.at(slot),
                   "router: pending update held for a closed session");
  const bool is_withdrawal = !oe.pending.has_value();
  const bool rate_limited =
      cfg_.mrai_s > 0 && (!is_withdrawal || cfg_.mrai_on_withdrawals);
  const sim::SimTime now = engine_.now();
  if (rate_limited && now < oe.mrai_ready) {
    if (oe.mrai_event == sim::kInvalidEvent) {
      if (metrics_) metrics_->mrai_deferrals->inc();
      if (spans_ && !oe.mrai_span.valid()) {
        oe.mrai_span =
            spans_->child(oe.pending_parent, "bgp.mrai_defer",
                          now.as_seconds(), id_, peers_[slot].id, p);
      }
      oe.mrai_event = engine_.schedule_at(
          oe.mrai_ready,
          [this, slot, p] {
            // No row is reclaimed while its MRAI wakeup is scheduled.
            Row& row = row_of(p);
            row.peers[slot].out.mrai_event = sim::kInvalidEvent;
            try_flush(row.peers[slot].out, slot, p);
            // A deferred withdrawal that just flushed may have been the
            // prefix's last live state.
            maybe_reclaim(p, row, engine_.now());
          },
          sim::EventKind::kMraiFlush);
    }
    return;
  }
  // Sending now (e.g. a withdrawal bypassing MRAI while an announcement was
  // deferred) satisfies whatever a scheduled wakeup would have flushed.
  if (oe.mrai_event != sim::kInvalidEvent) {
    engine_.cancel(oe.mrai_event);
    oe.mrai_event = sim::kInvalidEvent;
  }

  UpdateMessage msg =
      is_withdrawal ? UpdateMessage::withdraw(p, oe.pending_rc)
                    : UpdateMessage::announce(p, *oe.pending, oe.pending_rc);
  if (!is_withdrawal) {
    // Selective-damping attribute: rank against what this peer last heard
    // from us. With identical wire preferences the AS-path length is the
    // deciding attribute, so it is the comparison basis here too.
    if (!oe.last_sent) {
      msg.rel_pref = RelPref::kBetter;  // route appeared
    } else if (oe.pending->path.length() < oe.last_sent->path.length()) {
      msg.rel_pref = RelPref::kBetter;
    } else if (oe.pending->path.length() > oe.last_sent->path.length()) {
      msg.rel_pref = RelPref::kWorse;
    } else {
      msg.rel_pref = RelPref::kEqual;
    }
  }
  if (spans_) {
    if (oe.mrai_span.valid()) {
      // The deferral interval ends where the send begins.
      spans_->close(oe.mrai_span, now.as_seconds());
    }
    // The wire span: parent is the deferral when one happened, else the
    // causing update directly. Closed by the receiver at delivery (or by the
    // network on drop; the end-of-run sweep catches the rest).
    const obs::SpanContext parent =
        oe.mrai_span.valid() ? oe.mrai_span : oe.pending_parent;
    msg.span = spans_->child(parent, "bgp.send", now.as_seconds(), id_,
                             peers_[slot].id, p);
    oe.mrai_span = obs::SpanContext{};
    oe.pending_parent = obs::SpanContext{};
  }
  oe.last_sent = std::move(oe.pending);
  oe.pending.reset();
  oe.pending_rc.reset();
  oe.has_pending = false;
  note_pending(-1, now);

  if (rate_limited) {
    RFDNET_INVARIANT(!(now < oe.mrai_ready),
                     "router: mrai_ready would regress");
    const double jitter =
        rng_.uniform(cfg_.mrai_jitter_min, cfg_.mrai_jitter_max);
    oe.mrai_ready = now + sim::Duration::seconds(cfg_.mrai_s * jitter);
  }

  ++sent_;
  if (metrics_) {
    metrics_->sends->inc();
    if (is_withdrawal) metrics_->withdrawals->inc();
  }
  if (trace_) {
    trace_->bgp_send(now.as_seconds(), id_, peers_[slot].id, p, is_withdrawal);
  }
  if (observer_) observer_->on_send(id_, peers_[slot].id, msg, now);
  send_(slot, msg);
}

void BgpRouter::check_invariants() const {
  int held = 0;
  rows_.for_each([&](Prefix, const Row& row) {
    for (std::size_t s = 0; s < row.peers.size(); ++s) {
      const OutEntry& oe = row.peers[s].out;
      held += oe.has_pending ? 1 : 0;
      if (!session_open_.at(s)) {
        obs::check_always(!oe.has_pending,
                          "router: pending update held for a closed session");
        obs::check_always(oe.mrai_event == sim::kInvalidEvent,
                          "router: MRAI wakeup scheduled on a closed session");
      }
      if (oe.mrai_event != sim::kInvalidEvent) {
        obs::check_always(oe.has_pending,
                          "router: MRAI wakeup scheduled with nothing pending");
        obs::check_always(engine_.is_pending(oe.mrai_event),
                          "router: MRAI wakeup id is stale");
      }
    }
  });
  obs::check_always(held == pending_depth_,
                    "router: pending depth out of sync with RIB-OUT");
}

std::optional<Route> BgpRouter::best(Prefix p) const {
  const Row* row = rows_.find(p);
  return row == nullptr ? std::nullopt : row->best;
}

int BgpRouter::best_slot(Prefix p) const {
  const Row* row = rows_.find(p);
  return row == nullptr ? kNoneSlot : row->from_slot;
}

std::optional<Route> BgpRouter::rib_in_route(int slot, Prefix p) const {
  const Row* row = rows_.find(p);
  return row == nullptr ? std::nullopt : row->peers.at(slot).route;
}

}  // namespace rfdnet::bgp
