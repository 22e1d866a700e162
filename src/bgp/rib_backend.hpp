#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/prefix.hpp"

namespace rfdnet::bgp {

/// How a `RibTable` keeps per-prefix state (the router's rows and the
/// damping module's entry store), fixed at construction:
///
///  - kHashMap: an `unordered_map<Prefix, T>`. The default, and the only
///    store that retains anything.
///  - kNull:    retains nothing. Reads miss, writes land in a scratch row
///    that the next access resets. A router on it originates and delivers
///    updates but never accumulates state, so it measures the engine and
///    transport cost of a workload: the floor the real store is compared
///    against.
///  - kRadix:   another name for kHashMap, so code and command lines that
///    ask for `radix` keep working.
enum class RibBackendKind : std::uint8_t {
  kHashMap,
  kNull,
  kRadix = kHashMap,
};

std::string to_string(RibBackendKind k);
/// Parses "hash" / "null" (the `--rib-backend` flag values); "radix" and
/// "trie" parse as `kRadix`, i.e. hash.
std::optional<RibBackendKind> parse_rib_backend(const std::string& name);
/// Both behaviours, in declaration order (test/bench sweeps).
inline constexpr std::array<RibBackendKind, 2> kAllRibBackends = {
    RibBackendKind::kHashMap, RibBackendKind::kNull};

/// Per-prefix table. `T` is the per-prefix value (one entry, or a
/// per-peer-slot vector of entries).
///
/// The contract:
///  - `find` never creates (the PR-1 "reads never allocate" guarantee);
///  - `find_or_create` returns a value-initialized `T` on first access —
///    except on the null backend, where it returns a reset scratch row and
///    the table stays empty;
///  - `for_each_ordered` visits in ascending prefix order, so observable
///    side effects (trace records, damping charges) do not depend on the
///    hash layout; plain `for_each` visits in the map's order.
///
/// A cursor remembers the last prefix `find` / `find_or_create` resolved to
/// a row, and that row, so the repeated lookups one update makes for the
/// same prefix cost one compare instead of a hash. It is safe because the
/// map's nodes keep a row's address until that row is erased, and `erase` /
/// `clear` forget the cursor. The const `find` reads the cursor but never
/// writes it, so const reads stay write-free when another thread owns the
/// table's writes. The null backend never remembers: its scratch row must
/// reset on every access.
template <typename T>
class RibTable {
 public:
  explicit RibTable(RibBackendKind kind = RibBackendKind::kHashMap)
      : scratch_(kind == RibBackendKind::kNull ? std::make_unique<T>()
                                               : nullptr) {}

  RibBackendKind kind() const {
    return retains() ? RibBackendKind::kHashMap : RibBackendKind::kNull;
  }
  /// False on the null backend: writes are not retained, so callers that
  /// would strand bookkeeping on a scratch row (timers, counted flags) must
  /// skip the write path entirely.
  bool retains() const { return scratch_ == nullptr; }

  T* find(Prefix p) {
    if (cursor_.holds(p)) return cursor_.row;
    const auto it = map_.find(p);
    if (it == map_.end()) return nullptr;
    cursor_.aim(p, &it->second);
    return &it->second;
  }
  const T* find(Prefix p) const {
    if (cursor_.holds(p)) return cursor_.row;
    const auto it = map_.find(p);
    return it == map_.end() ? nullptr : &it->second;
  }
  T& find_or_create(Prefix p) {
    if (cursor_.holds(p)) return *cursor_.row;
    if (scratch_) return *scratch_ = T{};
    T& row = map_[p];
    cursor_.aim(p, &row);
    return row;
  }
  bool erase(Prefix p) {
    cursor_.forget();
    return map_.erase(p) > 0;
  }
  /// Resident (retained) entries; always 0 on the null backend.
  std::size_t size() const { return map_.size(); }
  void clear() {
    cursor_.forget();
    map_.clear();
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& [p, v] : map_) fn(p, v);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [p, v] : map_) fn(p, v);
  }
  template <typename Fn>
  void for_each_ordered(Fn&& fn) {
    for (const Prefix p : sorted_keys()) fn(p, map_.find(p)->second);
  }
  template <typename Fn>
  void for_each_ordered(Fn&& fn) const {
    for (const Prefix p : sorted_keys()) fn(p, map_.find(p)->second);
  }

 private:
  std::vector<Prefix> sorted_keys() const {
    std::vector<Prefix> keys;
    keys.reserve(map_.size());
    for (const auto& [p, v] : map_) keys.push_back(p);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// The last prefix resolved to a row, and the row (none while `row` is
  /// null). A moved table starts without one, and so does the table it was
  /// moved from: the rows now belong to the other table.
  struct Cursor {
    Prefix key = 0;
    T* row = nullptr;

    Cursor() = default;
    Cursor(Cursor&& other) noexcept { other.forget(); }
    Cursor& operator=(Cursor&& other) noexcept {
      forget();
      other.forget();
      return *this;
    }
    bool holds(Prefix p) const { return row != nullptr && key == p; }
    void aim(Prefix p, T* r) {
      key = p;
      row = r;
    }
    void forget() { row = nullptr; }
  };

  std::unordered_map<Prefix, T> map_;
  std::unique_ptr<T> scratch_;  ///< the null backend's row; null otherwise
  Cursor cursor_;
};

}  // namespace rfdnet::bgp
