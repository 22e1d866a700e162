#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "bgp/prefix.hpp"

namespace rfdnet::bgp {

/// Storage strategy for per-prefix RIB state (the router's rows and the
/// damping module's entry store). Swappable at construction time, after
/// xripd's `rib-ll` / `rib-null` vtable backends:
///
///  - kHashMap: the classic `unordered_map<Prefix, T>` — O(1) lookups,
///    unordered iteration, per-node allocation. The default.
///  - kRadix:   a fixed-stride (8-bit, 4-level) radix trie over the 32-bit
///    prefix key. Lookups are four indexed loads, iteration is in ascending
///    prefix order (aggregation-friendly), and erasing the last entry of a
///    256-wide leaf returns the whole block — dense full-table workloads
///    reclaim memory in contiguous chunks.
///  - kNull:    retains nothing. Reads miss, writes land in a scratch slot
///    that the next access recycles. A router on this backend originates and
///    delivers updates but never accumulates state — it measures the pure
///    engine/transport overhead under a workload, the floor every real
///    backend is compared against.
enum class RibBackendKind : std::uint8_t {
  kHashMap,
  kRadix,
  kNull,
};

std::string to_string(RibBackendKind k);
/// Parses "hash" / "radix" / "null" (the `--rib-backend` flag values).
std::optional<RibBackendKind> parse_rib_backend(const std::string& name);
/// All kinds, in declaration order (test/bench sweeps).
inline constexpr std::array<RibBackendKind, 3> kAllRibBackends = {
    RibBackendKind::kHashMap, RibBackendKind::kRadix, RibBackendKind::kNull};

namespace detail {

template <typename T>
class HashStore {
 public:
  T* find(Prefix p) {
    const auto it = map_.find(p);
    return it == map_.end() ? nullptr : &it->second;
  }
  const T* find(Prefix p) const {
    const auto it = map_.find(p);
    return it == map_.end() ? nullptr : &it->second;
  }
  T& find_or_create(Prefix p) { return map_[p]; }
  bool erase(Prefix p) { return map_.erase(p) > 0; }
  std::size_t size() const { return map_.size(); }
  void clear() { map_.clear(); }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& [p, v] : map_) fn(p, v);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [p, v] : map_) fn(p, v);
  }
  /// Ascending-prefix visit: collects and sorts the keys first, so callers
  /// whose side effects are observable (trace records, damping charges) emit
  /// them in the same order on every backend.
  template <typename Fn>
  void for_each_ordered(Fn&& fn) {
    std::vector<Prefix> keys;
    keys.reserve(map_.size());
    for (const auto& [p, v] : map_) keys.push_back(p);
    std::sort(keys.begin(), keys.end());
    for (const Prefix p : keys) fn(p, map_.find(p)->second);
  }
  template <typename Fn>
  void for_each_ordered(Fn&& fn) const {
    std::vector<Prefix> keys;
    keys.reserve(map_.size());
    for (const auto& [p, v] : map_) keys.push_back(p);
    std::sort(keys.begin(), keys.end());
    for (const Prefix p : keys) fn(p, map_.find(p)->second);
  }

 private:
  std::unordered_map<Prefix, T> map_;
};

/// Fixed-stride radix trie node: `Level` counts the remaining 8-bit digits
/// below this node (level 0 = leaf holding 256 value slots).
template <typename T, int Level>
struct RadixNode {
  std::array<std::unique_ptr<RadixNode<T, Level - 1>>, 256> child;
  int occupied = 0;  ///< non-null children
};

template <typename T>
struct RadixNode<T, 0> {
  std::array<std::optional<T>, 256> slot;
  int occupied = 0;  ///< engaged slots
};

template <typename T>
class RadixStore {
 public:
  T* find(Prefix p) {
    RadixNode<T, 0>* leaf = walk(p);
    if (leaf == nullptr) return nullptr;
    auto& s = leaf->slot[p & 0xff];
    return s ? &*s : nullptr;
  }
  const T* find(Prefix p) const {
    return const_cast<RadixStore*>(this)->find(p);
  }

  T& find_or_create(Prefix p) {
    auto& n3 = root_.child[(p >> 24) & 0xff];
    if (!n3) {
      n3 = std::make_unique<RadixNode<T, 2>>();
      ++root_.occupied;
    }
    auto& n2 = n3->child[(p >> 16) & 0xff];
    if (!n2) {
      n2 = std::make_unique<RadixNode<T, 1>>();
      ++n3->occupied;
    }
    auto& leaf = n2->child[(p >> 8) & 0xff];
    if (!leaf) {
      leaf = std::make_unique<RadixNode<T, 0>>();
      ++n2->occupied;
    }
    auto& s = leaf->slot[p & 0xff];
    if (!s) {
      s.emplace();
      ++leaf->occupied;
      ++size_;
    }
    return *s;
  }

  bool erase(Prefix p) {
    auto& n3 = root_.child[(p >> 24) & 0xff];
    if (!n3) return false;
    auto& n2 = n3->child[(p >> 16) & 0xff];
    if (!n2) return false;
    auto& leaf = n2->child[(p >> 8) & 0xff];
    if (!leaf) return false;
    auto& s = leaf->slot[p & 0xff];
    if (!s) return false;
    s.reset();
    --size_;
    // Collapse emptied nodes bottom-up: a fully-withdrawn 256-prefix block
    // hands its whole leaf back at once.
    if (--leaf->occupied == 0) {
      leaf.reset();
      if (--n2->occupied == 0) {
        n2.reset();
        if (--n3->occupied == 0) {
          n3.reset();
          --root_.occupied;
        }
      }
    }
    return true;
  }

  std::size_t size() const { return size_; }
  void clear() {
    root_ = RadixNode<T, 3>{};
    size_ = 0;
  }

  // Trie iteration is inherently in ascending key order, so the ordered and
  // unordered visits are the same walk.
  template <typename Fn>
  void for_each(Fn&& fn) {
    walk_all(*this, fn);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    walk_all(*this, fn);
  }
  template <typename Fn>
  void for_each_ordered(Fn&& fn) {
    walk_all(*this, fn);
  }
  template <typename Fn>
  void for_each_ordered(Fn&& fn) const {
    walk_all(*this, fn);
  }

 private:
  RadixNode<T, 0>* walk(Prefix p) {
    auto& n3 = root_.child[(p >> 24) & 0xff];
    if (!n3) return nullptr;
    auto& n2 = n3->child[(p >> 16) & 0xff];
    if (!n2) return nullptr;
    auto& leaf = n2->child[(p >> 8) & 0xff];
    return leaf ? leaf.get() : nullptr;
  }

  template <typename Self, typename Fn>
  static void walk_all(Self& self, Fn& fn) {
    for (std::uint32_t a = 0; a < 256; ++a) {
      const auto& n3 = self.root_.child[a];
      if (!n3) continue;
      for (std::uint32_t b = 0; b < 256; ++b) {
        const auto& n2 = n3->child[b];
        if (!n2) continue;
        for (std::uint32_t c = 0; c < 256; ++c) {
          const auto& leaf = n2->child[c];
          if (!leaf) continue;
          for (std::uint32_t d = 0; d < 256; ++d) {
            auto& s = leaf->slot[d];
            if (!s) continue;
            fn(static_cast<Prefix>((a << 24) | (b << 16) | (c << 8) | d), *s);
          }
        }
      }
    }
  }

  RadixNode<T, 3> root_;
  std::size_t size_ = 0;
};

template <typename T>
class NullStore {
 public:
  T* find(Prefix) { return nullptr; }
  const T* find(Prefix) const { return nullptr; }
  /// Hands out a freshly-reset scratch slot; nothing is retained, so the
  /// next find (or find_or_create) sees none of what the caller wrote.
  T& find_or_create(Prefix) {
    scratch_ = T{};
    return scratch_;
  }
  bool erase(Prefix) { return false; }
  std::size_t size() const { return 0; }
  void clear() {}
  template <typename Fn>
  void for_each(Fn&&) {}
  template <typename Fn>
  void for_each(Fn&&) const {}
  template <typename Fn>
  void for_each_ordered(Fn&&) {}
  template <typename Fn>
  void for_each_ordered(Fn&&) const {}

 private:
  T scratch_;
};

}  // namespace detail

/// Per-prefix table with a construction-time storage backend. `T` is the
/// per-prefix value (one entry, or a per-peer-slot vector of entries).
///
/// The contract every backend honors:
///  - `find` never creates (the PR-1 "reads never allocate" guarantee);
///  - `find_or_create` returns a value-initialized `T` on first access —
///    except on the null backend, where it returns a scratch slot and the
///    table stays empty;
///  - `for_each_ordered` visits in ascending prefix order on *every* backend,
///    so observable side effects are backend-independent; plain `for_each`
///    may use whatever order the store is fastest at.
///
/// A cursor remembers the last prefix `find` / `find_or_create` resolved to
/// a row, and that row, so the repeated lookups one update makes for the
/// same prefix cost one compare instead of a hash or a trie walk. It is safe
/// because the stores keep a row's address stable until that row is erased,
/// and `erase` / `clear` forget the cursor. The const `find` reads the
/// cursor but never writes it, so const reads stay write-free when another
/// thread owns the table's writes. The null backend never remembers: its
/// scratch slot must reset on every access.
template <typename T>
class RibTable {
 public:
  explicit RibTable(RibBackendKind kind = RibBackendKind::kHashMap)
      : kind_(kind), store_(make_store(kind)) {}

  RibBackendKind kind() const { return kind_; }
  /// False on the null backend: writes are not retained, so callers that
  /// would strand bookkeeping on a scratch slot (timers, counted flags) must
  /// skip the write path entirely.
  bool retains() const { return kind_ != RibBackendKind::kNull; }

  T* find(Prefix p) {
    if (cursor_.holds(p)) return cursor_.row;
    T* row = std::visit([&](auto& s) { return s.find(p); }, store_);
    remember(p, row);
    return row;
  }
  const T* find(Prefix p) const {
    if (cursor_.holds(p)) return cursor_.row;
    return std::visit([&](const auto& s) { return s.find(p); }, store_);
  }
  T& find_or_create(Prefix p) {
    if (cursor_.holds(p)) return *cursor_.row;
    T& row = std::visit([&](auto& s) -> T& { return s.find_or_create(p); },
                        store_);
    remember(p, &row);
    return row;
  }
  bool erase(Prefix p) {
    cursor_.forget();
    return std::visit([&](auto& s) { return s.erase(p); }, store_);
  }
  /// Resident (retained) entries; always 0 on the null backend.
  std::size_t size() const {
    return std::visit([](const auto& s) { return s.size(); }, store_);
  }
  void clear() {
    cursor_.forget();
    std::visit([](auto& s) { s.clear(); }, store_);
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    std::visit([&](auto& s) { s.for_each(fn); }, store_);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::visit([&](const auto& s) { s.for_each(fn); }, store_);
  }
  template <typename Fn>
  void for_each_ordered(Fn&& fn) {
    std::visit([&](auto& s) { s.for_each_ordered(fn); }, store_);
  }
  template <typename Fn>
  void for_each_ordered(Fn&& fn) const {
    std::visit([&](const auto& s) { s.for_each_ordered(fn); }, store_);
  }

 private:
  using Store = std::variant<detail::HashStore<T>, detail::RadixStore<T>,
                             detail::NullStore<T>>;

  static Store make_store(RibBackendKind kind) {
    switch (kind) {
      case RibBackendKind::kRadix:
        return Store{std::in_place_type<detail::RadixStore<T>>};
      case RibBackendKind::kNull:
        return Store{std::in_place_type<detail::NullStore<T>>};
      case RibBackendKind::kHashMap:
        break;
    }
    return Store{std::in_place_type<detail::HashStore<T>>};
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
    void forget() { row = nullptr; }
  };

  void remember(Prefix p, T* row) {
    if (row == nullptr || kind_ == RibBackendKind::kNull) return;
    cursor_.key = p;
    cursor_.row = row;
  }

  RibBackendKind kind_;
  Store store_;
  Cursor cursor_;
};

}  // namespace rfdnet::bgp
