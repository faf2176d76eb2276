#include "vrf/layout.hpp"

namespace araxl {

double mask_locality_fraction(const VrfMapping& map, MaskLayout layout,
                              std::uint64_t vl) {
  if (vl == 0) return 1.0;
  std::uint64_t local = 0;
  for (std::uint64_t i = 0; i < vl; ++i) {
    const MaskBitLoc m = mask_bit_loc(map, layout, i);
    if (m.cluster == map.cluster_of(i) && m.lane == map.lane_of(i)) ++local;
  }
  return static_cast<double>(local) / static_cast<double>(vl);
}

}  // namespace araxl
