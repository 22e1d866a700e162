// Damping tour: the RFC 2439 mechanics on a single session, driven through
// the `rfd` API directly (no network) — penalty classes, exponential decay,
// suppression, reuse timers, the max-hold-down ceiling, and the Cisco vs
// Juniper parameterizations of Table 1.
//
//   $ ./damping_tour

#include <cstdio>
#include <iostream>

#include "bgp/message.hpp"
#include "bgp/path_table.hpp"
#include "rfd/damping.hpp"
#include "sim/engine.hpp"
#include "stats/penalty_curve.hpp"

namespace {

using namespace rfdnet;

constexpr bgp::Prefix kPrefix = 0;

/// Drives one damping entry through a scripted update sequence and narrates
/// what happens.
void tour(const char* title, const rfd::DampingParams& params) {
  std::cout << "==== " << title << " " << params.to_string() << " ====\n";

  bgp::PathTable paths;
  sim::Engine engine;
  int reuses = 0;
  rfd::DampingModule damping(
      /*self=*/0, {/*peer*/ 1}, params, engine,
      [&reuses](int, bgp::Prefix) {
        ++reuses;
        return true;
      });

  std::optional<bgp::Route> previous;
  const auto step = [&](double t_s, const bgp::UpdateMessage& msg,
                        const char* what) {
    engine.schedule_at(sim::SimTime::from_seconds(t_s), [&, msg, what] {
      damping.on_update(0, msg, previous, false);
      previous = msg.route;
      std::printf("  t=%6.0f  %-22s penalty=%7.1f  %s\n",
                  engine.now().as_seconds(), what, damping.penalty(0, kPrefix),
                  damping.suppressed(0, kPrefix) ? "SUPPRESSED" : "ok");
    });
  };

  const bgp::Route via_a{paths.from_hops({1, 9}), 100};
  const bgp::Route via_b{paths.from_hops({1, 2, 9}), 100};

  step(0, bgp::UpdateMessage::announce(kPrefix, via_a), "initial announcement");
  step(60, bgp::UpdateMessage::withdraw(kPrefix), "withdrawal");
  step(120, bgp::UpdateMessage::announce(kPrefix, via_a), "re-announcement");
  step(180, bgp::UpdateMessage::announce(kPrefix, via_b), "attributes change");
  step(240, bgp::UpdateMessage::withdraw(kPrefix), "withdrawal");
  step(300, bgp::UpdateMessage::announce(kPrefix, via_a), "re-announcement");
  step(360, bgp::UpdateMessage::withdraw(kPrefix), "withdrawal");
  step(420, bgp::UpdateMessage::announce(kPrefix, via_a), "re-announcement");

  engine.run(sim::SimTime::from_seconds(500));
  const auto reuse_at = damping.reuse_time(0, kPrefix);
  if (reuse_at) {
    std::printf("  reuse timer armed for t=%.0f (r=%.0f s after the last "
                "flap)\n",
                reuse_at->as_seconds(), reuse_at->as_seconds() - 420.0);
  }
  engine.run();
  std::printf("  reuse fired: %d time(s); penalty now %.1f\n\n", reuses,
              damping.penalty(0, kPrefix));
}

}  // namespace

int main() {
  std::cout << "rfdnet damping tour: one RIB-IN entry under a scripted flap "
               "sequence\n\n";
  tour("Cisco defaults", rfd::DampingParams::cisco());
  tour("Juniper defaults", rfd::DampingParams::juniper());

  // The ceiling in action: hammering the entry cannot push the reuse timer
  // past the max hold-down time.
  std::cout << "==== ceiling / max hold-down ====\n";
  bgp::PathTable paths;
  sim::Engine engine;
  const rfd::DampingParams params = rfd::DampingParams::cisco();
  rfd::DampingModule damping(0, {1}, params, engine,
                             [](int, bgp::Prefix) { return false; });
  std::optional<bgp::Route> prev;
  const bgp::Route r{paths.from_hops({1, 9}), 100};
  for (int i = 0; i < 200; ++i) {
    const double t = i * 2.0;
    engine.schedule_at(sim::SimTime::from_seconds(t), [&, t, i] {
      const auto msg = (i % 2 == 0)
                           ? bgp::UpdateMessage::announce(kPrefix, r)
                           : bgp::UpdateMessage::withdraw(kPrefix);
      damping.on_update(0, msg, prev, false);
      prev = msg.route;
    });
  }
  engine.run(sim::SimTime::from_seconds(400));
  std::printf("  after 100 W/A pairs: penalty=%.0f (ceiling %.0f)\n",
              damping.penalty(0, kPrefix), params.ceiling());
  const auto reuse_at = damping.reuse_time(0, kPrefix);
  if (reuse_at) {
    std::printf("  reuse at t=%.0f -> suppression bounded by max hold-down "
                "(%.0f s)\n",
                reuse_at->as_seconds(), params.max_suppress_s);
  }
  return 0;
}
