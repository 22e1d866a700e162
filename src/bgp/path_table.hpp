#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/as_path.hpp"
#include "net/types.hpp"

namespace rfdnet::bgp {

/// Hash-consed AS-path storage (the flyweight trick SSFNet-scale BGP
/// simulators use to reach thousand-node topologies). A path is a cell
/// (head AS, tail path); each distinct (tail, head) pair is built once, so
/// paths share their suffixes: [3 2 1] builds [1], [2 1] and [3 2 1]. One
/// map keyed by (tail id, head) is both the intern index and the prepend
/// memo, which makes the per-decision export prepend one lookup.
///
/// Ownership rules (see DESIGN.md §4):
///  * A network owns its table (a sharded network one per shard), and every
///    non-empty path its routers and messages hold was made by that table.
///    A run's paths therefore die with its network.
///  * Cells live in a deque and never move, so a handle stays valid as long
///    as its table.
///  * A table is not thread-safe. A shard's table is used only by the thread
///    running that shard; a cross-shard update carries hops, not a handle.
class PathTable {
 public:
  /// Interning counters, fed into `sim::EngineProfile::Alloc` by the serial
  /// driver. Each is a pure function of the calls made on this table:
  /// `intern_requests` counts every `origin` / `prepend` / `from_hops`
  /// call, `node_builds` the cells built, and `prepend_hits` the `origin` /
  /// `prepend` calls whose cell already existed.
  struct Stats {
    std::uint64_t intern_requests = 0;
    std::uint64_t node_builds = 0;
    std::uint64_t prepend_hits = 0;
  };

  PathTable() = default;
  PathTable(const PathTable&) = delete;
  PathTable& operator=(const PathTable&) = delete;

  /// The single-hop path [as].
  AsPath origin(net::NodeId as) { return prepend(AsPath(), as); }
  /// [as] + tail. `tail` must be empty or made by this table.
  AsPath prepend(const AsPath& tail, net::NodeId as);
  /// The path with these hops, front first, built by prepending from the
  /// back (a cross-shard update re-interns its hops this way).
  AsPath from_hops(const std::vector<net::NodeId>& hops);

  const Stats& stats() const { return stats_; }

 private:
  /// The cell for (tail, head), and whether this call built it.
  std::pair<const PathCell*, bool> cell(const PathCell* tail,
                                        net::NodeId head);

  std::deque<PathCell> cells_;
  /// (tail id << 32 | head) -> cell; tail id 0 is the empty path.
  std::unordered_map<std::uint64_t, const PathCell*> index_;
  Stats stats_;
};

}  // namespace rfdnet::bgp
