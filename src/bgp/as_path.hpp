#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/types.hpp"

namespace rfdnet::bgp {

class PathTable;

/// One hash-consed path of a `PathTable`: `head` followed by the path
/// `tail` (nullptr when `head` is the origin). Paths share suffixes, so a
/// cell stores no hop sequence. `bloom` is the tail's bloom plus the head's
/// bit: a clear bit proves an AS absent from the whole path.
struct PathCell {
  const PathCell* tail = nullptr;
  std::uint64_t bloom = 0;
  const PathTable* owner = nullptr;
  net::NodeId head = net::kInvalidNode;
  std::uint32_t length = 0;
  std::uint32_t id = 0;  ///< 1, 2, ... in build order; 0 is the empty path
};

/// BGP AS_PATH: the sequence of ASes an announcement has traversed.
/// `front()` is the most recent sender (the neighbor the route was learned
/// from after prepending); the last hop is the origin AS. Used for loop
/// detection and as the length tie-breaker in route selection.
///
/// An `AsPath` is a flyweight: one pointer to a cell of the `PathTable` that
/// made it, or null for the empty path, which needs no table. Copying a path
/// (per-peer export fan-out, RIB bookkeeping, messages in flight) copies the
/// handle. A handle is valid as long as its table; see `PathTable`.
class AsPath {
 public:
  /// The empty path.
  AsPath() = default;

  /// Bloom bit for one AS id (one of 64, hash-picked by splitmix64).
  static std::uint64_t bloom_bit(net::NodeId as) {
    std::uint64_t x = as + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return 1ULL << ((x ^ (x >> 31)) & 63u);
  }

  /// Loop detection: walks the cells while their bloom still holds the AS's
  /// bit, so a clear bit ends the walk (every suffix's bloom is a subset of
  /// its extension's).
  bool contains(net::NodeId as) const {
    const std::uint64_t bit = bloom_bit(as);
    for (const PathCell* c = cell_; c != nullptr && (c->bloom & bit) != 0;
         c = c->tail) {
      if (c->head == as) return true;
    }
    return false;
  }
  /// Reference walk without the bloom (property tests check it agrees with
  /// `contains`).
  bool contains_scan(net::NodeId as) const;

  std::size_t length() const { return cell_ ? cell_->length : 0; }
  bool empty() const { return cell_ == nullptr; }
  net::NodeId front() const { return cell_->head; }
  /// The hops, front to origin, built on each call.
  std::vector<net::NodeId> hops() const;

  /// The interned cell, null for the empty path (tests: identity checks).
  const PathCell* ref() const { return cell_; }

  /// Handles from one table compare by identity (hash-consing makes that
  /// exact); paths from different tables compare their hops.
  friend bool operator==(const AsPath& a, const AsPath& b) {
    if (a.cell_ == b.cell_) return true;
    if (a.length() != b.length() || a.cell_->owner == b.cell_->owner) {
      return false;
    }
    return same_hops(a.cell_, b.cell_);
  }

  std::string to_string() const;

 private:
  friend class PathTable;
  explicit AsPath(const PathCell* cell) : cell_(cell) {}
  /// Walks two equally long chains of different tables.
  static bool same_hops(const PathCell* a, const PathCell* b);

  const PathCell* cell_ = nullptr;
};

}  // namespace rfdnet::bgp
