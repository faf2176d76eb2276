#include "cluster/vlsu.hpp"

namespace araxl {

bool elementwise_mem_op(Op op) {
  return op == Op::kVlse || op == Op::kVsse || op == Op::kVluxei ||
         op == Op::kVsuxei;
}

std::uint64_t vlsu_lane_byte_share(const VrfMapping& map, std::uint64_t vl,
                                   unsigned ew, unsigned cluster, unsigned lane) {
  std::uint64_t elems = 0;
  for (std::uint64_t i = lane; i < vl; i += map.topology().lanes) {
    if (map.cluster_of(i) == cluster) ++elems;
  }
  return elems * ew;
}

}  // namespace araxl
