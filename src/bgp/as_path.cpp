#include "bgp/as_path.hpp"

namespace rfdnet::bgp {

bool AsPath::contains_scan(net::NodeId as) const {
  for (const PathCell* c = cell_; c != nullptr; c = c->tail) {
    if (c->head == as) return true;
  }
  return false;
}

std::vector<net::NodeId> AsPath::hops() const {
  std::vector<net::NodeId> out;
  out.reserve(length());
  for (const PathCell* c = cell_; c != nullptr; c = c->tail) {
    out.push_back(c->head);
  }
  return out;
}

bool AsPath::same_hops(const PathCell* a, const PathCell* b) {
  for (; a != nullptr; a = a->tail, b = b->tail) {
    if (a->head != b->head) return false;
  }
  return true;
}

std::string AsPath::to_string() const {
  std::string s = "[";
  for (const PathCell* c = cell_; c != nullptr; c = c->tail) {
    if (c != cell_) s += ' ';
    s += std::to_string(c->head);
  }
  s += ']';
  return s;
}

}  // namespace rfdnet::bgp
