// Oracle property for the per-prefix table: seeded random sequences of
// `find` (mutable and const), `find_or_create`, `erase`, `clear` and moves
// drive a `RibTable` next to a `std::map`, which says what the table must
// hold. Keys are dense (0-255), spread across the address space
// (0x01020304-style) and extreme (0, 0xffffffff). After every step:
//  - a lookup hits exactly the keys the oracle holds, with its value;
//  - a row keeps the address it was created at until its own erase;
//  - a find right after an erase or a clear misses (the cursor forgot it).
// Every few steps, and at the end:
//  - `size()` equals the oracle's;
//  - `for_each_ordered` (mutable and const) visits every key once, in
//    ascending order, at its row's address;
//  - `for_each` visits every key exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bgp/rib_backend.hpp"
#include "sim/random.hpp"

namespace rfdnet::bgp {
namespace {

std::vector<Prefix> key_pool() {
  std::vector<Prefix> keys;
  for (Prefix p = 0; p < 256; ++p) keys.push_back(p);  // dense
  for (Prefix i = 0; i < 48; ++i) {                    // spread
    keys.push_back(0x01020304u + i * 0x01000000u);
    keys.push_back(0x01020305u + i * 0x01000000u);
  }
  for (const Prefix p : {0xffffffffu, 0xfffffffeu, 0xff000000u, 0x80000000u,
                         0x7fffffffu}) {
    keys.push_back(p);  // extreme
  }
  return keys;
}

// The value a write stores, and the check that a row holds it, per row type.
void store(int& row, int x) { row = x; }
void store(std::vector<int>& row, int x) {
  row.assign(1 + static_cast<std::size_t>(x % 3), x);
}
bool holds(const int& row, int x) { return row == x; }
bool holds(const std::vector<int>& row, int x) {
  return row == std::vector<int>(1 + static_cast<std::size_t>(x % 3), x);
}
bool is_fresh(const int& row) { return row == 0; }
bool is_fresh(const std::vector<int>& row) { return row.empty(); }

template <typename V>
class Driver {
 public:
  explicit Driver(std::uint64_t seed) : rng_(seed), keys_(key_pool()) {}

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      this->step();
      if (::testing::Test::HasFatalFailure()) return;
      if (step % 64 == 0) check_contents();
    }
    check_contents();
  }

 private:
  /// Half the time the key just used, so the cursor holds what the next
  /// call asks about; otherwise a fresh draw, weighted to the dense block.
  Prefix pick() {
    if (have_last_ && rng_.bernoulli(0.5)) return last_;
    have_last_ = true;
    last_ = rng_.bernoulli(0.6) ? keys_[rng_.uniform_index(256)]
                                : keys_[rng_.uniform_index(keys_.size())];
    return last_;
  }

  void step() {
    const double op = rng_.uniform01();
    const Prefix p = pick();
    if (op < 0.30) {
      check_find(p);
    } else if (op < 0.40) {
      check_const_find(p);
    } else if (op < 0.70) {
      create_and_write(p);
    } else if (op < 0.95) {
      erase(p);
    } else if (op < 0.97) {
      table_.clear();
      oracle_.clear();
      address_.clear();
      check_find(p);
      check_const_find(p);
    } else {
      move_round_trip(p);
    }
  }

  void check_find(Prefix p) {
    const V* row = table_.find(p);
    check_row(p, row);
  }
  void check_const_find(Prefix p) {
    const V* row = std::as_const(table_).find(p);
    check_row(p, row);
  }
  void check_row(Prefix p, const V* row) {
    const auto it = oracle_.find(p);
    if (it == oracle_.end()) {
      ASSERT_EQ(row, nullptr) << "hit on absent key " << p;
      return;
    }
    ASSERT_NE(row, nullptr) << "miss on present key " << p;
    ASSERT_EQ(row, address_.at(p)) << "row of key " << p << " moved";
    ASSERT_TRUE(holds(*row, it->second)) << "wrong value at key " << p;
  }

  void create_and_write(Prefix p) {
    V& row = table_.find_or_create(p);
    const auto it = oracle_.find(p);
    if (it == oracle_.end()) {
      ASSERT_TRUE(is_fresh(row)) << "new row at key " << p << " not fresh";
      address_[p] = &row;
    } else {
      ASSERT_EQ(&row, address_.at(p)) << "row of key " << p << " moved";
      ASSERT_TRUE(holds(row, it->second)) << "wrong value at key " << p;
    }
    const int x = static_cast<int>(rng_.uniform_index(1000)) + 1;
    store(row, x);
    oracle_[p] = x;
  }

  void erase(Prefix p) {
    const bool present = oracle_.erase(p) > 0;
    address_.erase(p);
    ASSERT_EQ(table_.erase(p), present) << "erase of key " << p;
    check_find(p);
    check_const_find(p);
  }

  /// Moves the table out (by construction or by assignment onto a table
  /// with rows and a cursor of its own) and back. Rows move with it, so
  /// their addresses hold; the moved-from table never hands one out.
  void move_round_trip(Prefix p) {
    RibTable<V> other;
    const V* const own = &other.find_or_create(p);
    ASSERT_EQ(other.find(p), own);  // `other`'s cursor now holds `p`
    if (rng_.bernoulli(0.5)) {
      RibTable<V> moved(std::move(table_));
      expect_never_hands_out(table_, p);
      other = std::move(moved);
    } else {
      other = std::move(table_);
      expect_never_hands_out(table_, p);
    }
    table_ = std::move(other);
    check_find(p);
  }
  void expect_never_hands_out(RibTable<V>& from, Prefix p) {
    const auto it = address_.find(p);
    if (it == address_.end()) return;
    EXPECT_NE(from.find(p), it->second);
    EXPECT_NE(std::as_const(from).find(p), it->second);
  }

  void check_contents() {
    ASSERT_EQ(table_.size(), oracle_.size());
    std::vector<Prefix> want;
    for (const auto& [p, x] : oracle_) want.push_back(p);  // ascending

    std::vector<Prefix> ordered;
    table_.for_each_ordered([&](Prefix p, V& row) {
      ordered.push_back(p);
      EXPECT_EQ(&row, address_.at(p));
      EXPECT_TRUE(holds(row, oracle_.at(p)));
    });
    EXPECT_EQ(ordered, want);

    ordered.clear();
    std::as_const(table_).for_each_ordered(
        [&](Prefix p, const V& row) {
          ordered.push_back(p);
          EXPECT_EQ(&row, address_.at(p));
        });
    EXPECT_EQ(ordered, want);

    std::vector<Prefix> unordered;
    table_.for_each([&](Prefix p, V& row) {
      unordered.push_back(p);
      EXPECT_TRUE(holds(row, oracle_.at(p)));
    });
    std::sort(unordered.begin(), unordered.end());
    EXPECT_EQ(unordered, want);  // a duplicate visit would lengthen it
  }

  sim::Rng rng_;
  std::vector<Prefix> keys_;
  Prefix last_ = 0;
  bool have_last_ = false;
  RibTable<V> table_;
  std::map<Prefix, int> oracle_;
  std::map<Prefix, const V*> address_;
};

class RibTableOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RibTableOracle, IntRowsMatchAStdMap) {
  Driver<int>(GetParam()).run(4000);
}

TEST_P(RibTableOracle, VectorRowsMatchAStdMap) {
  Driver<std::vector<int>>(GetParam()).run(4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RibTableOracle,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// One store and no inline storage: a table is a map, a scratch pointer and
// a cursor, so an empty router or damping module stays small.
TEST(RibTableSize, HoldsNoInlineStore) {
  EXPECT_LE(sizeof(RibTable<int>), 128u);
  EXPECT_LE(sizeof(RibTable<std::vector<int>>), 128u);
}

}  // namespace
}  // namespace rfdnet::bgp
