#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace rfdnet::sim {

/// Coarse event taxonomy for the engine profiler. Call sites tag their
/// schedules (`schedule_at(t, fn, EventKind::kDelivery)`); untagged events
/// land in `kGeneric`. Kept here (below the engine) so every layer can name
/// its events without new dependencies.
enum class EventKind : std::uint8_t {
  kGeneric,     ///< untagged (tests, ad-hoc callbacks)
  kDelivery,    ///< message delivery scheduled by `bgp::BgpNetwork`
  kMraiFlush,   ///< MRAI-ready wakeups scheduled by `bgp::BgpRouter`
  kReuseTimer,  ///< reuse timers scheduled by `rfd::DampingModule`
  kFlap,        ///< origin flap events scheduled by the experiment driver
  kFault,       ///< fault injections scheduled by `fault::FaultInjector`
  kCount,       ///< sentinel: number of kinds
};

const char* to_string(EventKind k);

/// Per-event-kind dispatch profile of one (or several merged) engine runs.
///
/// Two kinds of data live side by side: *counts* (scheduled / fired /
/// cancelled), which are functions of the event sequence alone and therefore
/// byte-deterministic across runs and `--jobs` values, and *wall time*,
/// which is not. `write_json` excludes wall time by default so the
/// `--profile` artifact stays byte-identical run to run; pass
/// `include_wall = true` for human-facing summaries, and let benchmarks
/// measure wall time around the whole run instead.
struct EngineProfile {
  struct Row {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t wall_ns = 0;  ///< total handler wall time (fired events)
  };

  /// Allocation-avoidance counters of the BGP propagation hot path: AS-path
  /// interning (the run's `bgp::PathTable`) and in-flight message recycling
  /// (`bgp::UpdateMessagePool`). Each run interns into a fresh table, so
  /// every counter is a pure function of the run. `write_json` writes the
  /// block only with `include_volatile`, next to the wall times, so the
  /// default `--profile` artifact does not carry it.
  struct Alloc {
    std::uint64_t intern_requests = 0;  ///< origin/prepend/from_hops calls
    std::uint64_t node_builds = 0;      ///< path cells built
    std::uint64_t prepend_hits = 0;     ///< prepends whose cell existed
    std::uint64_t pool_acquired = 0;    ///< message-pool acquires
    std::uint64_t pool_reused = 0;      ///< acquires served by the freelist
    std::uint64_t pool_high_water = 0;  ///< max in-flight slots (merge: max)
  };

  std::array<Row, static_cast<std::size_t>(EventKind::kCount)> rows;
  Alloc alloc;

  Row& row(EventKind k) { return rows[static_cast<std::size_t>(k)]; }
  const Row& row(EventKind k) const {
    return rows[static_cast<std::size_t>(k)];
  }

  std::uint64_t total_fired() const;
  bool empty() const;

  /// Element-wise addition (sweep merge across trials).
  void merge(const EngineProfile& other);

  /// Single JSON object keyed by kind name, kinds in enum order:
  /// {"generic":{"scheduled":N,"fired":N,"cancelled":N},...}. With
  /// `include_volatile`, each row gains "wall_ns" and a trailing "alloc"
  /// object carries the interning/pool counters — off by default because
  /// wall time is not deterministic.
  void write_json(std::ostream& os, bool include_volatile = false) const;
  std::string json(bool include_volatile = false) const;
};

}  // namespace rfdnet::sim
