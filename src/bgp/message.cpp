#include "bgp/message.hpp"

#include <algorithm>

namespace rfdnet::bgp {

std::string to_string(UpdateKind k) {
  return k == UpdateKind::kAnnouncement ? "A" : "W";
}

std::string to_string(RelPref p) {
  switch (p) {
    case RelPref::kBetter:
      return "better";
    case RelPref::kEqual:
      return "equal";
    case RelPref::kWorse:
      return "worse";
  }
  return "?";
}

std::string UpdateMessage::to_string() const {
  std::string s = bgp::to_string(kind) + " p" + std::to_string(prefix);
  if (route) s += " " + route->to_string();
  if (rc) s += " rc=" + rc->to_string();
  return s;
}

std::uint32_t UpdateMessagePool::acquire() {
  ++stats_.acquired;
  ++stats_.outstanding;
  stats_.high_water = std::max(stats_.high_water, stats_.outstanding);
  if (!free_.empty()) {
    ++stats_.reused;
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void UpdateMessagePool::release(std::uint32_t idx) {
  Slot& s = slots_[idx];
  // Scrub before recycling: stale span / rc / rel_pref fields must not leak
  // into the next message parked here.
  s.msg = UpdateMessage{};
  s.wire = kNoWire;
  s.epoch = 0;
  free_.push_back(idx);
  --stats_.outstanding;
}

}  // namespace rfdnet::bgp
