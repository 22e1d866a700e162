// Sender-side relative-preference attribute (selective damping support).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/router.hpp"

namespace rfdnet::bgp {
namespace {

class RelPrefTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.mrai_s = 0.0;  // immediate sends keep the test linear
    router_ = std::make_unique<BgpRouter>(
        5,
        std::vector<BgpRouter::PeerInfo>{{1, net::Relationship::kPeer},
                                         {2, net::Relationship::kPeer}},
        cfg_, policy_, engine_, rng_,
        [this](int slot, const UpdateMessage& m) {
          if (router_->peer(slot).id == 2) sent_.push_back(m);
        });
  }

  TimingConfig cfg_;
  ShortestPathPolicy policy_;
  sim::Engine engine_;
  sim::Rng rng_{1};
  std::vector<UpdateMessage> sent_;
  std::unique_ptr<BgpRouter> router_;
};

TEST_F(RelPrefTest, FirstAnnouncementIsBetter) {
  router_->deliver(1, UpdateMessage::announce(0, Route{AsPath::origin(1), 0}));
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(sent_[0].rel_pref, RelPref::kBetter);
}

TEST_F(RelPrefTest, DegradingRouteMarkedWorse) {
  router_->deliver(1, UpdateMessage::announce(0, Route{AsPath::origin(1), 0}));
  router_->deliver(
      1, UpdateMessage::announce(0, Route{AsPath::origin(9).prepended(8).prepended(1), 0}));
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[1].rel_pref, RelPref::kWorse);
}

TEST_F(RelPrefTest, ImprovingRouteMarkedBetter) {
  router_->deliver(
      1, UpdateMessage::announce(0, Route{AsPath::origin(9).prepended(8).prepended(1), 0}));
  router_->deliver(1, UpdateMessage::announce(0, Route{AsPath::origin(1), 0}));
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[1].rel_pref, RelPref::kBetter);
}

TEST_F(RelPrefTest, EqualLengthMarkedEqual) {
  router_->deliver(1, UpdateMessage::announce(0, Route{AsPath::origin(9).prepended(1), 0}));
  router_->deliver(1, UpdateMessage::announce(0, Route{AsPath::origin(8).prepended(1), 0}));
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[1].rel_pref, RelPref::kEqual);
}

TEST_F(RelPrefTest, AnnouncementAfterWithdrawalIsBetter) {
  router_->deliver(1, UpdateMessage::announce(0, Route{AsPath::origin(1), 0}));
  router_->deliver(1, UpdateMessage::withdraw(0));
  router_->deliver(1, UpdateMessage::announce(0, Route{AsPath::origin(1), 0}));
  ASSERT_EQ(sent_.size(), 3u);
  EXPECT_TRUE(sent_[1].is_withdrawal());
  EXPECT_FALSE(sent_[1].rel_pref.has_value());
  EXPECT_EQ(sent_[2].rel_pref, RelPref::kBetter);
}

}  // namespace
}  // namespace rfdnet::bgp
