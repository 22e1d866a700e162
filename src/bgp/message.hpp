#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "bgp/prefix.hpp"
#include "bgp/route.hpp"
#include "net/types.hpp"
#include "obs/span.hpp"
#include "rcn/root_cause.hpp"

namespace rfdnet::bgp {

enum class UpdateKind : std::uint8_t {
  kAnnouncement,
  kWithdrawal,
};

std::string to_string(UpdateKind k);

/// Relative preference of an announcement versus the sender's previous
/// announcement to the same peer — the extra attribute of *selective route
/// flap damping* (Mao et al., SIGCOMM 2002; discussed in §6 of the paper).
/// A degrading (kWorse) sequence is the signature of path exploration.
enum class RelPref : std::uint8_t {
  kBetter,
  kEqual,
  kWorse,
};

std::string to_string(RelPref p);

/// One BGP UPDATE for one prefix. Announcements carry a route; withdrawals
/// do not. The optional root cause is the RCN attribute of paper §6; plain
/// BGP updates simply leave it empty.
struct UpdateMessage {
  Prefix prefix = 0;
  UpdateKind kind = UpdateKind::kAnnouncement;
  std::optional<Route> route;         ///< set iff kind == kAnnouncement
  std::optional<rcn::RootCause> rc;   ///< RCN attribute, if deployed
  /// Selective-damping attribute: how this announcement ranks against the
  /// sender's previous announcement on this session (routers always attach
  /// it; only selective damping consults it).
  std::optional<RelPref> rel_pref;
  /// Causal provenance (all-zero when tracing is off or the update is not
  /// derived from a traced root cause). Stamped by the sender's `bgp.send`
  /// span; the receiver closes it at delivery and parents its own activity
  /// on it. Not a BGP attribute — pure observability freight.
  obs::SpanContext span;

  static UpdateMessage announce(Prefix p, Route r,
                                std::optional<rcn::RootCause> rc = {}) {
    return UpdateMessage{p, UpdateKind::kAnnouncement, std::move(r),
                         std::move(rc), std::nullopt, {}};
  }
  static UpdateMessage withdraw(Prefix p,
                                std::optional<rcn::RootCause> rc = {}) {
    return UpdateMessage{p, UpdateKind::kWithdrawal, std::nullopt,
                         std::move(rc), std::nullopt, {}};
  }

  bool is_announcement() const { return kind == UpdateKind::kAnnouncement; }
  bool is_withdrawal() const { return kind == UpdateKind::kWithdrawal; }

  std::string to_string() const;
};

/// Freelist pool for in-flight `UpdateMessage`s (plus their transport
/// freight: the index of the directed wire they travel and its link epoch).
/// `bgp::BgpNetwork` parks every message it puts on the wire in a slot and
/// schedules a delivery closure that carries only the slot index — small
/// enough for `std::function`'s inline buffer, so the per-send closure
/// allocation disappears, and slots recycle instead of allocating per
/// message. The wire index names sender, receiver and the receiver's peer
/// slot for the sender, so delivery needs no lookup.
///
/// Slots live in a deque: addresses are stable across `acquire`, so a slot
/// reference held through a delivery survives the re-entrant sends that
/// delivery triggers. A released slot is scrubbed back to a pristine
/// default-constructed message *before* it re-enters the freelist, so a
/// recycled slot can never resurrect a previous message's span / root-cause
/// / rel-pref freight.
class UpdateMessagePool {
 public:
  static constexpr std::uint32_t kNoWire = UINT32_MAX;

  struct Slot {
    UpdateMessage msg;
    std::uint32_t wire = kNoWire;
    std::uint64_t epoch = 0;
  };

  /// Intern/alloc accounting (fed into `sim::EngineProfile::alloc`).
  struct Stats {
    std::uint64_t acquired = 0;     ///< total acquires
    std::uint64_t reused = 0;       ///< acquires served from the freelist
    std::size_t outstanding = 0;    ///< slots currently in flight
    std::size_t high_water = 0;     ///< max simultaneous in-flight slots
  };

  /// Takes a pristine slot, recycling a released one when available.
  std::uint32_t acquire();
  /// Scrubs the slot and returns it to the freelist.
  void release(std::uint32_t idx);

  Slot& at(std::uint32_t idx) { return slots_[idx]; }
  const Slot& at(std::uint32_t idx) const { return slots_[idx]; }

  const Stats& stats() const { return stats_; }

 private:
  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_;
  Stats stats_;
};

}  // namespace rfdnet::bgp
