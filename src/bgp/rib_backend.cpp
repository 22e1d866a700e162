#include "bgp/rib_backend.hpp"

namespace rfdnet::bgp {

std::string to_string(RibBackendKind k) {
  switch (k) {
    case RibBackendKind::kHashMap:
      return "hash";
    case RibBackendKind::kNull:
      return "null";
  }
  return "?";
}

std::optional<RibBackendKind> parse_rib_backend(const std::string& name) {
  if (name == "hash" || name == "hashmap" || name == "hash-map") {
    return RibBackendKind::kHashMap;
  }
  if (name == "radix" || name == "trie") return RibBackendKind::kRadix;
  if (name == "null" || name == "none") return RibBackendKind::kNull;
  return std::nullopt;
}

}  // namespace rfdnet::bgp
