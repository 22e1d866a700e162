#include "bgp/path_table.hpp"

#include <stdexcept>

namespace rfdnet::bgp {

AsPath PathTable::prepend(const AsPath& tail, net::NodeId as) {
  if (tail.cell_ != nullptr && tail.cell_->owner != this) {
    throw std::invalid_argument("PathTable: tail made by another table");
  }
  ++stats_.intern_requests;
  const auto [c, built] = cell(tail.cell_, as);
  if (!built) ++stats_.prepend_hits;
  return AsPath(c);
}

AsPath PathTable::from_hops(const std::vector<net::NodeId>& hops) {
  ++stats_.intern_requests;
  const PathCell* c = nullptr;
  for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
    c = cell(c, *it).first;
  }
  return AsPath(c);
}

std::pair<const PathCell*, bool> PathTable::cell(const PathCell* tail,
                                                 net::NodeId head) {
  const std::uint64_t tail_id = tail != nullptr ? tail->id : 0;
  const auto [it, inserted] = index_.try_emplace((tail_id << 32) | head);
  if (inserted) {
    ++stats_.node_builds;
    PathCell& c = cells_.emplace_back();
    c.tail = tail;
    c.bloom = (tail != nullptr ? tail->bloom : 0) | AsPath::bloom_bit(head);
    c.owner = this;
    c.head = head;
    c.length = (tail != nullptr ? tail->length : 0) + 1;
    c.id = static_cast<std::uint32_t>(cells_.size());
    it->second = &c;
  }
  return {it->second, inserted};
}

}  // namespace rfdnet::bgp
