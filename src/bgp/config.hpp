#pragma once

#include <stdexcept>

#include "sim/time.hpp"

namespace rfdnet::bgp {

/// Timing knobs of the protocol engine. The defaults are tuned to the
/// SSFNet-style setup the paper simulates: millisecond-scale propagation,
/// sub-second processing, and the classic 30 s jittered MRAI that paces the
/// waves of path exploration.
struct TimingConfig {
  /// Per-message processing delay at the receiver, drawn uniformly from
  /// [proc_delay_min_s, proc_delay_max_s]. This is the asynchrony source
  /// that makes different routers explore different alternate paths.
  double proc_delay_min_s = 0.01;
  double proc_delay_max_s = 0.25;

  /// Min Route Advertisement Interval per (peer, prefix), jittered by a
  /// uniform factor in [mrai_jitter_min, mrai_jitter_max] per expiry as RFC
  /// 4271 suggests. Zero disables MRAI.
  double mrai_s = 30.0;
  double mrai_jitter_min = 0.75;
  double mrai_jitter_max = 1.0;

  /// Classic BGP applies MRAI to announcements only; withdrawals go out
  /// immediately. Set true to rate-limit withdrawals as well (WRATE).
  bool mrai_on_withdrawals = false;

  /// Whether a router advertises its best path back to the peer it learned
  /// it from (receiver-side AS-path loop detection denies it). This is the
  /// classic eBGP behavior and the default. When off, switching the best
  /// path to a new upstream emits an explicit withdrawal toward it instead —
  /// which route flap damping then charges at full withdrawal penalty, a
  /// significant distortion (see the ablation bench).
  bool advertise_to_sender = true;

  /// Sender-side AS-path loop filtering (RFC 4271 permits omitting routes
  /// the peer would reject): a path containing the peer's AS is not
  /// announced to it, and a withdrawal is sent instead if something was
  /// previously advertised. Off by default — the receiver-side check plus
  /// penalty-free loop-denied updates model the same outcome with fewer
  /// state transitions on the wire.
  bool sender_side_loop_check = false;

  void validate() const {
    if (proc_delay_min_s < 0 || proc_delay_max_s < proc_delay_min_s) {
      throw std::invalid_argument("TimingConfig: bad processing delay range");
    }
    if (mrai_s < 0) throw std::invalid_argument("TimingConfig: negative MRAI");
    if (mrai_jitter_min <= 0 || mrai_jitter_max < mrai_jitter_min) {
      throw std::invalid_argument("TimingConfig: bad MRAI jitter range");
    }
    if (!sim::span_fits_clock(proc_delay_min_s) ||
        !sim::span_fits_clock(proc_delay_max_s)) {
      throw std::invalid_argument(
          "TimingConfig: processing delay must be finite and at most 1e9 s");
    }
    if (!sim::span_fits_clock(mrai_s * mrai_jitter_max)) {
      throw std::invalid_argument(
          "TimingConfig: mrai_s x mrai_jitter_max must be finite and at most "
          "1e9 s");
    }
  }
};

}  // namespace rfdnet::bgp
