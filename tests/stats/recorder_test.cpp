#include "stats/recorder.hpp"

#include <gtest/gtest.h>

#include "stats/penalty_curve.hpp"

namespace rfdnet::stats {
namespace {

using bgp::Route;
using bgp::UpdateMessage;
using sim::SimTime;

UpdateMessage msg() {
  return UpdateMessage::announce(0, Route{});  // the recorder reads no path
}

TEST(Recorder, CountsSendsAndDeliveries) {
  Recorder r;
  r.on_send(0, 1, msg(), SimTime::from_seconds(1.0));
  r.on_send(0, 2, msg(), SimTime::from_seconds(1.5));
  r.on_deliver(0, 1, msg(), SimTime::from_seconds(2.0));
  EXPECT_EQ(r.sent_count(), 2u);
  EXPECT_EQ(r.delivered_count(), 1u);
  EXPECT_EQ(r.first_send_s(), 1.0);
  EXPECT_EQ(r.last_delivery_s(), 2.0);
}

TEST(Recorder, EmptyOptionalsWhenNothingHappened) {
  Recorder r;
  EXPECT_FALSE(r.first_send_s().has_value());
  EXPECT_FALSE(r.last_delivery_s().has_value());
}

TEST(Recorder, UpdateSeriesBinsDeliveries) {
  Recorder r(5.0);
  r.on_deliver(0, 1, msg(), SimTime::from_seconds(1.0));
  r.on_deliver(0, 1, msg(), SimTime::from_seconds(2.0));
  r.on_deliver(0, 1, msg(), SimTime::from_seconds(7.0));
  EXPECT_EQ(r.update_series().at(0), 2u);
  EXPECT_EQ(r.update_series().at(1), 1u);
  EXPECT_EQ(r.delivery_times().size(), 3u);
}

TEST(Recorder, BusyDeltasFromSendsDeliversAndPending) {
  Recorder r;
  r.on_send(0, 1, msg(), SimTime::from_seconds(1.0));
  r.on_pending_change(3, +1, SimTime::from_seconds(1.2));
  r.on_deliver(0, 1, msg(), SimTime::from_seconds(1.5));
  r.on_pending_change(3, -1, SimTime::from_seconds(2.0));
  const auto& b = r.busy_deltas();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0].second, +1);
  EXPECT_EQ(b[1].second, +1);
  EXPECT_EQ(b[2].second, -1);
  EXPECT_EQ(b[3].second, -1);
}

TEST(Recorder, DampedLinksStepOnSuppressAndReuse) {
  Recorder r;
  r.on_suppress(1, 2, 0, 2500, SimTime::from_seconds(10));
  r.on_suppress(3, 4, 0, 2100, SimTime::from_seconds(11));
  r.on_reuse(1, 2, 0, true, SimTime::from_seconds(20));
  EXPECT_EQ(r.damped_links().value_at(10.5), 1);
  EXPECT_EQ(r.damped_links().value_at(15.0), 2);
  EXPECT_EQ(r.damped_links().value_at(25.0), 1);
  EXPECT_EQ(r.suppress_count(), 2u);
  EXPECT_EQ(r.noisy_reuse_count(), 1u);
  EXPECT_EQ(r.silent_reuse_count(), 0u);
}

TEST(Recorder, PenaltyProbeFiltersNode) {
  Recorder r;
  r.probe_penalty(7);
  r.on_penalty(7, 1, 0, 1000, SimTime::from_seconds(1));
  r.on_penalty(8, 1, 0, 2000, SimTime::from_seconds(2));
  r.on_penalty(7, 2, 0, 1500, SimTime::from_seconds(3));
  ASSERT_EQ(r.penalty_trace().size(), 2u);
  EXPECT_DOUBLE_EQ(r.penalty_trace()[1].value, 1500.0);
  EXPECT_DOUBLE_EQ(r.max_penalty_seen(), 2000.0);
}

TEST(Recorder, PenaltyProbeFiltersPeerToo) {
  Recorder r;
  r.probe_penalty(7, 1);
  r.on_penalty(7, 1, 0, 1000, SimTime::from_seconds(1));
  r.on_penalty(7, 2, 0, 1500, SimTime::from_seconds(2));
  ASSERT_EQ(r.penalty_trace().size(), 1u);
}

TEST(Recorder, RecordAllPenaltiesKeepsEverything) {
  Recorder r;
  r.record_all_penalties(true);
  r.on_penalty(7, 1, 0, 1000, SimTime::from_seconds(1));
  r.on_penalty(8, 2, 0, 1500, SimTime::from_seconds(2));
  ASSERT_EQ(r.penalty_events().size(), 2u);
  EXPECT_EQ(r.penalty_events()[1].node, 8u);
}

TEST(Recorder, UpdateLogWhenEnabled) {
  Recorder r;
  r.record_update_log(true);
  r.on_deliver(3, 4, UpdateMessage::withdraw(0), SimTime::from_seconds(9));
  ASSERT_EQ(r.update_log().size(), 1u);
  EXPECT_EQ(r.update_log()[0].from, 3u);
  EXPECT_EQ(r.update_log()[0].kind, bgp::UpdateKind::kWithdrawal);
}

TEST(Recorder, ResetClearsEverything) {
  Recorder r;
  r.record_all_penalties(true);
  r.record_update_log(true);
  r.probe_penalty(0);
  r.on_send(0, 1, msg(), SimTime::from_seconds(1));
  r.on_deliver(0, 1, msg(), SimTime::from_seconds(2));
  r.on_suppress(0, 1, 0, 2500, SimTime::from_seconds(3));
  r.on_penalty(0, 1, 0, 2500, SimTime::from_seconds(3));
  r.on_reuse(0, 1, 0, false, SimTime::from_seconds(4));
  r.reset();
  EXPECT_EQ(r.sent_count(), 0u);
  EXPECT_EQ(r.delivered_count(), 0u);
  EXPECT_FALSE(r.last_delivery_s().has_value());
  EXPECT_EQ(r.update_series().total(), 0u);
  EXPECT_TRUE(r.busy_deltas().empty());
  EXPECT_TRUE(r.damped_links().empty());
  EXPECT_TRUE(r.penalty_trace().empty());
  EXPECT_TRUE(r.penalty_events().empty());
  EXPECT_TRUE(r.update_log().empty());
  EXPECT_EQ(r.suppress_count(), 0u);
  EXPECT_DOUBLE_EQ(r.max_penalty_seen(), 0.0);
}

TEST(Recorder, RecordsCleanlyAcrossReset) {
  // Warm-up phase, reset, measured phase: the recorder must behave as if it
  // were freshly constructed — nothing from the warm-up may leak into the
  // measured phase's series, logs, or extrema.
  Recorder r(5.0);
  r.record_all_penalties(true);
  r.record_update_log(true);
  r.probe_penalty(0);

  // Warm-up: deliberately larger values than the measured phase so leaks
  // would show up in totals and maxima, not just counts.
  r.on_send(0, 1, msg(), SimTime::from_seconds(1));
  r.on_deliver(0, 1, msg(), SimTime::from_seconds(2));
  r.on_deliver(0, 1, msg(), SimTime::from_seconds(3));
  r.on_penalty(0, 1, 0, 9000, SimTime::from_seconds(3));
  r.on_suppress(0, 1, 0, 9000, SimTime::from_seconds(3));
  r.on_reuse(0, 1, 0, true, SimTime::from_seconds(4));
  r.reset();

  // Measured phase.
  r.on_send(0, 1, msg(), SimTime::from_seconds(100));
  r.on_deliver(0, 1, msg(), SimTime::from_seconds(101));
  r.on_penalty(0, 1, 0, 2500, SimTime::from_seconds(102));
  r.on_suppress(0, 1, 0, 2500, SimTime::from_seconds(102));

  EXPECT_EQ(r.sent_count(), 1u);
  EXPECT_EQ(r.delivered_count(), 1u);
  EXPECT_EQ(r.first_send_s(), 100.0);
  EXPECT_EQ(r.last_delivery_s(), 101.0);
  EXPECT_EQ(r.update_series().total(), 1u);
  EXPECT_EQ(r.update_series().at_time(2.0), 0u);  // warm-up bin stays empty
  ASSERT_EQ(r.delivery_times().size(), 1u);
  EXPECT_DOUBLE_EQ(r.delivery_times()[0], 101.0);
  ASSERT_EQ(r.penalty_trace().size(), 1u);
  EXPECT_DOUBLE_EQ(r.penalty_trace()[0].value, 2500.0);
  ASSERT_EQ(r.penalty_events().size(), 1u);
  ASSERT_EQ(r.update_log().size(), 1u);
  EXPECT_DOUBLE_EQ(r.update_log()[0].t_s, 101.0);
  EXPECT_EQ(r.suppress_count(), 1u);
  EXPECT_EQ(r.noisy_reuse_count(), 0u);
  EXPECT_DOUBLE_EQ(r.max_penalty_seen(), 2500.0);
  EXPECT_EQ(r.damped_links().final_value(), 1);
}

TEST(PenaltyCurve, DecaysBetweenEvents) {
  // One event at t=0 with value 1000, lambda = ln2/100: value halves at 100.
  const double lam = std::log(2.0) / 100.0;
  const auto curve =
      sample_penalty_curve({{0.0, 1000.0}}, lam, 50.0, 1000.0, 100.0);
  ASSERT_GE(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].second, 1000.0);
  EXPECT_NEAR(curve[2].second, 500.0, 1e-6);  // t = 100
}

TEST(PenaltyCurve, JumpsAtEvents) {
  const double lam = std::log(2.0) / 100.0;
  const auto curve = sample_penalty_curve({{0.0, 1000.0}, {100.0, 2000.0}},
                                          lam, 100.0, 300.0, 1.0);
  EXPECT_DOUBLE_EQ(curve[1].second, 2000.0);  // the new anchor at t = 100
}

TEST(PenaltyCurve, StopsAtFloorAfterLastEvent) {
  const double lam = std::log(2.0) / 10.0;
  const auto curve =
      sample_penalty_curve({{0.0, 1000.0}}, lam, 10.0, 1e9, 400.0);
  // 1000 -> 500 -> 250 (below 400: emitted, then stop).
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_NEAR(curve.back().second, 250.0, 1e-6);
}

TEST(PenaltyCurve, EmptyEventsEmptyCurve) {
  EXPECT_TRUE(sample_penalty_curve({}, 0.01, 1.0, 10.0).empty());
}

TEST(PenaltyCurve, RejectsBadStep) {
  EXPECT_THROW(sample_penalty_curve({{0.0, 1.0}}, 0.01, 0.0, 10.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace rfdnet::stats
