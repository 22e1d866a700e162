// Unit tests for the pluggable per-prefix storage backends. The hash and
// radix stores must be observably interchangeable (same contents, same
// `for_each_ordered` visit order); the null store must retain nothing.

#include "bgp/rib_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace rfdnet::bgp {
namespace {

// Keys spread across distinct top-level radix branches, same leaf, and
// adjacent slots — exercises node creation/collapse at every level.
const std::vector<Prefix> kKeys = {0u,          1u,          255u,
                                   256u,        0x01020304u, 0x01020305u,
                                   0xff000000u, 0xffffffffu, 42u};

class RetainingBackendTest : public ::testing::TestWithParam<RibBackendKind> {
};

TEST_P(RetainingBackendTest, FindNeverCreates) {
  RibTable<int> t(GetParam());
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_EQ(std::as_const(t).find(7), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST_P(RetainingBackendTest, CreateFindEraseRoundTrip) {
  RibTable<int> t(GetParam());
  EXPECT_TRUE(t.retains());
  for (std::size_t i = 0; i < kKeys.size(); ++i) {
    t.find_or_create(kKeys[i]) = static_cast<int>(i);
  }
  EXPECT_EQ(t.size(), kKeys.size());
  for (std::size_t i = 0; i < kKeys.size(); ++i) {
    ASSERT_NE(t.find(kKeys[i]), nullptr);
    EXPECT_EQ(*t.find(kKeys[i]), static_cast<int>(i));
  }
  // find_or_create on an existing key hands back the same value.
  EXPECT_EQ(t.find_or_create(kKeys[0]), 0);
  EXPECT_EQ(t.size(), kKeys.size());

  EXPECT_TRUE(t.erase(kKeys[3]));
  EXPECT_FALSE(t.erase(kKeys[3]));  // already gone
  EXPECT_EQ(t.find(kKeys[3]), nullptr);
  EXPECT_EQ(t.size(), kKeys.size() - 1);
  // Neighbors in the same leaf survive the erase.
  EXPECT_NE(t.find(kKeys[4]), nullptr);

  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(kKeys[0]), nullptr);
}

TEST_P(RetainingBackendTest, OrderedIterationIsAscending) {
  RibTable<int> t(GetParam());
  for (const Prefix p : kKeys) t.find_or_create(p) = 1;
  std::vector<Prefix> sorted = kKeys;
  std::sort(sorted.begin(), sorted.end());

  std::vector<Prefix> visited;
  t.for_each_ordered([&](Prefix p, int& v) {
    visited.push_back(p);
    EXPECT_EQ(v, 1);
  });
  EXPECT_EQ(visited, sorted);

  visited.clear();
  std::as_const(t).for_each_ordered(
      [&](Prefix p, const int&) { visited.push_back(p); });
  EXPECT_EQ(visited, sorted);
}

TEST_P(RetainingBackendTest, UnorderedIterationVisitsEverythingOnce) {
  RibTable<int> t(GetParam());
  for (const Prefix p : kKeys) t.find_or_create(p) = 1;
  std::vector<Prefix> visited;
  t.for_each([&](Prefix p, int&) { visited.push_back(p); });
  std::sort(visited.begin(), visited.end());
  std::vector<Prefix> sorted = kKeys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(visited, sorted);
}

TEST_P(RetainingBackendTest, EraseToEmptyAndRefill) {
  RibTable<int> t(GetParam());
  // Full 256-slot leaf: erasing all of it must hand the block back (radix
  // collapse path) and leave the table reusable.
  for (Prefix p = 512; p < 768; ++p) t.find_or_create(p) = 1;
  EXPECT_EQ(t.size(), 256u);
  for (Prefix p = 512; p < 768; ++p) EXPECT_TRUE(t.erase(p));
  EXPECT_EQ(t.size(), 0u);
  t.find_or_create(600) = 2;
  ASSERT_NE(t.find(600), nullptr);
  EXPECT_EQ(*t.find(600), 2);
}

// The cursor contract: repeated lookups of one prefix may skip the store,
// but never past an erase, a clear, a row's creation or a move.

TEST_P(RetainingBackendTest, CursorForgetsErasedRow) {
  RibTable<int> t(GetParam());
  t.find_or_create(kKeys[4]) = 3;
  ASSERT_NE(t.find(kKeys[4]), nullptr);
  EXPECT_TRUE(t.erase(kKeys[4]));
  EXPECT_EQ(t.find(kKeys[4]), nullptr);
  EXPECT_EQ(std::as_const(t).find(kKeys[4]), nullptr);
}

TEST_P(RetainingBackendTest, FindOrCreateAfterEraseIsFresh) {
  RibTable<std::vector<int>> t(GetParam());
  t.find_or_create(kKeys[5]).push_back(9);
  ASSERT_NE(t.find(kKeys[5]), nullptr);
  EXPECT_TRUE(t.erase(kKeys[5]));
  EXPECT_TRUE(t.find_or_create(kKeys[5]).empty());
  EXPECT_EQ(t.size(), 1u);
}

TEST_P(RetainingBackendTest, ClearForgetsCursor) {
  RibTable<std::vector<int>> t(GetParam());
  t.find_or_create(kKeys[6]).push_back(1);
  ASSERT_NE(t.find(kKeys[6]), nullptr);
  t.clear();
  EXPECT_EQ(t.find(kKeys[6]), nullptr);
  EXPECT_EQ(std::as_const(t).find(kKeys[6]), nullptr);
  EXPECT_TRUE(t.find_or_create(kKeys[6]).empty());
}

TEST_P(RetainingBackendTest, AlternatingPrefixesReturnTheirOwnRows) {
  RibTable<int> t(GetParam());
  const Prefix a = kKeys[4];
  const Prefix b = kKeys[5];  // same radix leaf as `a`
  int* row_a = &t.find_or_create(a);
  *row_a = 1;
  int* row_b = &t.find_or_create(b);
  *row_b = 2;
  EXPECT_NE(row_a, row_b);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(t.find(a), row_a);
    EXPECT_EQ(t.find(b), row_b);
    EXPECT_EQ(t.find(a), row_a);
    EXPECT_EQ(&t.find_or_create(b), row_b);
    EXPECT_EQ(&t.find_or_create(a), row_a);
    EXPECT_EQ(std::as_const(t).find(b), row_b);
  }
  EXPECT_EQ(*row_a, 1);
  EXPECT_EQ(*row_b, 2);
  EXPECT_EQ(t.size(), 2u);
}

TEST_P(RetainingBackendTest, ConstFindNeverChangesSize) {
  RibTable<int> t(GetParam());
  t.find_or_create(kKeys[0]) = 1;
  // Lookups that miss create nothing, and a later creation is seen.
  EXPECT_EQ(t.find(kKeys[1]), nullptr);
  EXPECT_EQ(std::as_const(t).find(kKeys[1]), nullptr);
  EXPECT_EQ(std::as_const(t).find(kKeys[2]), nullptr);
  EXPECT_EQ(t.size(), 1u);
  t.find_or_create(kKeys[1]) = 2;
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(std::as_const(t).find(kKeys[1]), nullptr);
  EXPECT_EQ(*std::as_const(t).find(kKeys[1]), 2);
  EXPECT_EQ(t.size(), 2u);
}

TEST_P(RetainingBackendTest, MovedTableCarriesNoCursor) {
  RibTable<int> a(GetParam());
  a.find_or_create(kKeys[4]) = 1;
  ASSERT_NE(a.find(kKeys[4]), nullptr);  // aims `a`'s cursor at the row

  // The rows move with the store; the moved-from table (valid, if
  // unspecified) must never hand out a row that now belongs to `b`.
  RibTable<int> b(std::move(a));
  const int* in_b = b.find(kKeys[4]);
  ASSERT_NE(in_b, nullptr);
  EXPECT_EQ(*in_b, 1);
  EXPECT_NE(a.find(kKeys[4]), in_b);

  // Move assignment: `c` drops its own rows (and its cursor into them), and
  // `b` keeps no cursor into what `c` now owns.
  RibTable<int> c(GetParam());
  c.find_or_create(kKeys[4]) = 5;
  ASSERT_NE(c.find(kKeys[4]), nullptr);
  c = std::move(b);
  const int* in_c = c.find(kKeys[4]);
  ASSERT_NE(in_c, nullptr);
  EXPECT_EQ(*in_c, 1);
  EXPECT_NE(b.find(kKeys[4]), in_c);
}

INSTANTIATE_TEST_SUITE_P(Backends, RetainingBackendTest,
                         ::testing::Values(RibBackendKind::kHashMap,
                                           RibBackendKind::kRadix),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(NullBackendTest, RetainsNothing) {
  RibTable<int> t(RibBackendKind::kNull);
  EXPECT_FALSE(t.retains());
  t.find_or_create(7) = 99;
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.erase(7));
  int visits = 0;
  t.for_each([&](Prefix, int&) { ++visits; });
  t.for_each_ordered([&](Prefix, int&) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(NullBackendTest, ScratchSlotIsResetPerAccess) {
  RibTable<std::vector<int>> t(RibBackendKind::kNull);
  t.find_or_create(1).push_back(5);
  // The next access must see a value-initialized T, not yesterday's scratch.
  EXPECT_TRUE(t.find_or_create(1).empty());
}

TEST(NullBackendTest, CursorNeverRemembersTheScratchSlot) {
  RibTable<std::vector<int>> t(RibBackendKind::kNull);
  t.find_or_create(1).push_back(5);
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(std::as_const(t).find(1), nullptr);
  // Two find_or_create calls on one prefix: each gets a reset slot.
  t.find_or_create(1).push_back(6);
  EXPECT_TRUE(t.find_or_create(1).empty());
  EXPECT_FALSE(t.erase(1));
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(RibBackendKindTest, ParseAndToStringRoundTrip) {
  for (const RibBackendKind k : kAllRibBackends) {
    const auto parsed = parse_rib_backend(to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_EQ(parse_rib_backend("hash-map"), RibBackendKind::kHashMap);
  EXPECT_EQ(parse_rib_backend("trie"), RibBackendKind::kRadix);
  EXPECT_EQ(parse_rib_backend("none"), RibBackendKind::kNull);
  EXPECT_FALSE(parse_rib_backend("btree").has_value());
  EXPECT_FALSE(parse_rib_backend("").has_value());
}

}  // namespace
}  // namespace rfdnet::bgp
