#include "bgp/policy.hpp"

#include <gtest/gtest.h>

#include "bgp/message.hpp"
#include "bgp/path_table.hpp"

namespace rfdnet::bgp {
namespace {

Candidate cand(const Route& r, net::NodeId from, bool self = false) {
  return Candidate{&r, from, self};
}

TEST(ShortestPathPolicy, ConstantImportPref) {
  ShortestPathPolicy p;
  EXPECT_EQ(p.import_pref(net::Relationship::kPeer), 100);
  EXPECT_EQ(p.import_pref(net::Relationship::kCustomer), 100);
  EXPECT_EQ(p.import_pref(net::Relationship::kProvider), 100);
}

TEST(ShortestPathPolicy, ExportsEverything) {
  ShortestPathPolicy p;
  for (const auto from : {net::Relationship::kPeer, net::Relationship::kCustomer,
                          net::Relationship::kProvider}) {
    for (const auto to : {net::Relationship::kPeer, net::Relationship::kCustomer,
                          net::Relationship::kProvider}) {
      EXPECT_TRUE(p.can_export(from, to));
    }
    EXPECT_TRUE(p.can_export(std::nullopt, from));
  }
}

TEST(Policy, ShorterPathWins) {
  PathTable paths;
  ShortestPathPolicy p;
  const Route shorter{paths.from_hops({2, 1}), 100};
  const Route longer{paths.from_hops({4, 3, 1}), 100};
  EXPECT_TRUE(p.better(cand(shorter, 2), cand(longer, 4)));
  EXPECT_FALSE(p.better(cand(longer, 4), cand(shorter, 2)));
}

TEST(Policy, HigherLocalPrefBeatsShorterPath) {
  PathTable paths;
  ShortestPathPolicy p;
  const Route preferred{paths.from_hops({3, 2, 1}), 200};
  const Route shorter{paths.from_hops({2, 1}), 100};
  EXPECT_TRUE(p.better(cand(preferred, 3), cand(shorter, 2)));
}

TEST(Policy, LowerNeighborIdBreaksTies) {
  PathTable paths;
  ShortestPathPolicy p;
  const Route a{paths.from_hops({5, 1}), 100};
  const Route b{paths.from_hops({9, 1}), 100};
  EXPECT_TRUE(p.better(cand(a, 5), cand(b, 9)));
  EXPECT_FALSE(p.better(cand(b, 9), cand(a, 5)));
}

TEST(Policy, SelfOriginatedAlwaysWins) {
  PathTable paths;
  ShortestPathPolicy p;
  const Route self{paths.origin(7), 100};
  const Route learned{paths.origin(1), 500};
  EXPECT_TRUE(p.better(cand(self, 7, true), cand(learned, 1)));
  EXPECT_FALSE(p.better(cand(learned, 1), cand(self, 7, true)));
}

TEST(Policy, StrictOrderIsIrreflexive) {
  PathTable paths;
  ShortestPathPolicy p;
  const Route r{paths.from_hops({2, 1}), 100};
  EXPECT_FALSE(p.better(cand(r, 2), cand(r, 2)));
}

TEST(NoValleyPolicy, PrefersCustomerOverPeerOverProvider) {
  NoValleyPolicy p;
  EXPECT_GT(p.import_pref(net::Relationship::kCustomer),
            p.import_pref(net::Relationship::kPeer));
  EXPECT_GT(p.import_pref(net::Relationship::kPeer),
            p.import_pref(net::Relationship::kProvider));
}

TEST(NoValleyPolicy, CustomerRoutesExportEverywhere) {
  NoValleyPolicy p;
  for (const auto to : {net::Relationship::kPeer, net::Relationship::kCustomer,
                        net::Relationship::kProvider}) {
    EXPECT_TRUE(p.can_export(net::Relationship::kCustomer, to));
  }
}

TEST(NoValleyPolicy, SelfRoutesExportEverywhere) {
  NoValleyPolicy p;
  for (const auto to : {net::Relationship::kPeer, net::Relationship::kCustomer,
                        net::Relationship::kProvider}) {
    EXPECT_TRUE(p.can_export(std::nullopt, to));
  }
}

TEST(NoValleyPolicy, PeerAndProviderRoutesOnlyToCustomers) {
  NoValleyPolicy p;
  for (const auto from : {net::Relationship::kPeer,
                          net::Relationship::kProvider}) {
    EXPECT_TRUE(p.can_export(from, net::Relationship::kCustomer));
    EXPECT_FALSE(p.can_export(from, net::Relationship::kPeer));
    EXPECT_FALSE(p.can_export(from, net::Relationship::kProvider));
  }
}

TEST(NoValleyPolicy, CustomerRouteBeatsShorterProviderRoute) {
  PathTable paths;
  NoValleyPolicy p;
  Route via_customer{paths.from_hops({3, 2, 1}), 0};
  via_customer.local_pref = p.import_pref(net::Relationship::kCustomer);
  Route via_provider{paths.origin(1), 0};
  via_provider.local_pref = p.import_pref(net::Relationship::kProvider);
  EXPECT_TRUE(p.better(cand(via_customer, 3), cand(via_provider, 1)));
}

TEST(UpdateMessage, FactoriesAndPredicates) {
  PathTable paths;
  const auto a = UpdateMessage::announce(1, Route{paths.origin(2), 100});
  EXPECT_TRUE(a.is_announcement());
  EXPECT_FALSE(a.is_withdrawal());
  ASSERT_TRUE(a.route.has_value());
  const auto w = UpdateMessage::withdraw(1);
  EXPECT_TRUE(w.is_withdrawal());
  EXPECT_FALSE(w.route.has_value());
}

TEST(UpdateMessage, CarriesRootCause) {
  const rcn::RootCause rc{1, 2, false, 3};
  const auto w = UpdateMessage::withdraw(0, rc);
  ASSERT_TRUE(w.rc.has_value());
  EXPECT_EQ(*w.rc, rc);
}

TEST(UpdateMessage, ToStringMentionsKind) {
  const auto w = UpdateMessage::withdraw(5);
  EXPECT_NE(w.to_string().find("W"), std::string::npos);
}

}  // namespace
}  // namespace rfdnet::bgp
