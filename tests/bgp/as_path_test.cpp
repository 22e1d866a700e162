#include "bgp/as_path.hpp"

#include <gtest/gtest.h>

#include "bgp/path_table.hpp"
#include "bgp/route.hpp"

namespace rfdnet::bgp {
namespace {

TEST(AsPath, DefaultIsEmpty) {
  AsPath p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.length(), 0u);
}

TEST(AsPath, OriginSingleHop) {
  PathTable paths;
  const AsPath p = paths.origin(7);
  EXPECT_EQ(p.length(), 1u);
  EXPECT_EQ(p.front(), 7u);
  EXPECT_EQ(p.hops(), (std::vector<net::NodeId>{7}));
}

TEST(AsPath, PrependBuildsPath) {
  PathTable paths;
  const AsPath p = paths.prepend(paths.prepend(paths.origin(1), 2), 3);
  EXPECT_EQ(p.length(), 3u);
  EXPECT_EQ(p.front(), 3u);
  EXPECT_EQ(p.hops(), (std::vector<net::NodeId>{3, 2, 1}));
  EXPECT_EQ(p, paths.from_hops({3, 2, 1}));
}

TEST(AsPath, PrependDoesNotMutate) {
  PathTable paths;
  const AsPath p = paths.origin(1);
  const AsPath q = paths.prepend(p, 2);
  EXPECT_EQ(p.length(), 1u);
  EXPECT_EQ(q.length(), 2u);
}

TEST(AsPath, Contains) {
  PathTable paths;
  const AsPath p = paths.from_hops({3, 2, 1});
  EXPECT_TRUE(p.contains(1));
  EXPECT_TRUE(p.contains(2));
  EXPECT_TRUE(p.contains(3));
  EXPECT_FALSE(p.contains(4));
  EXPECT_FALSE(AsPath().contains(1));
}

TEST(AsPath, Equality) {
  PathTable paths;
  const AsPath a = paths.from_hops({2, 1});
  const AsPath b = paths.from_hops({2, 1});
  const AsPath c = paths.from_hops({3, 1});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, paths.origin(1));
  EXPECT_NE(a, AsPath());
}

TEST(AsPath, ToString) {
  PathTable paths;
  EXPECT_EQ(paths.from_hops({2, 1}).to_string(), "[2 1]");
  EXPECT_EQ(AsPath().to_string(), "[]");
}

TEST(Route, EqualityIncludesPref) {
  PathTable paths;
  const Route a{paths.origin(1), 100};
  const Route b{paths.origin(1), 100};
  const Route c{paths.origin(1), 200};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace rfdnet::bgp
