// Mask byte layouts (paper §III-B.5).
//
// Ara2 keeps masks in the standard RVV layout — bit i of the logical
// register — whose bytes land in lanes according to the 64-bit-word
// mapping, so using a mask requires distributing single bits across all
// lanes through an all-to-all MASKU. AraXL introduces a dedicated layout
// that stores the mask bit of element i inside the lane that owns element
// i, making mask consumption entirely lane-local; converting a register
// between layouts is the explicit "reshuffle" operation routed through
// SLDU + RINGI.
#ifndef ARAXL_VRF_LAYOUT_HPP
#define ARAXL_VRF_LAYOUT_HPP

#include <cstdint>

#include "vrf/mapping.hpp"

namespace araxl {

enum class MaskLayout : std::uint8_t {
  kStandard,   ///< RVV bitstring order (Ara2): bit i at logical byte i/8
  kLaneLocal,  ///< AraXL encoding: bit of element i inside element i's lane
};

/// Physical home (cluster, lane, byte offset within the lane's slice of the
/// mask register, plus bit position) of mask bit `i` under `layout`.
struct MaskBitLoc {
  unsigned cluster = 0;
  unsigned lane = 0;
  std::uint64_t byte_offset = 0;
  unsigned bit = 0;
};

/// Inline: the functional engine unpacks a mask register bit by bit.
inline MaskBitLoc mask_bit_loc(const VrfMapping& map, MaskLayout layout,
                               std::uint64_t i) {
  MaskBitLoc loc;
  if (layout == MaskLayout::kStandard) {
    // Logical byte i/8; logical 64-bit word w = i/64 is mapped like an
    // 8-byte element, and the byte keeps its offset within the word.
    const std::uint64_t word = i / 64;
    loc.cluster = map.cluster_of(word);
    loc.lane = map.lane_of(word);
    loc.byte_offset = map.row_of(word) * 8 + (i / 8) % 8;
    loc.bit = static_cast<unsigned>(i % 8);
  } else {
    // The bit for element i lives with element i: same cluster/lane, bit
    // position = the element's row within the lane.
    const std::uint64_t row = map.row_of(i);
    loc.cluster = map.cluster_of(i);
    loc.lane = map.lane_of(i);
    loc.byte_offset = row / 8;
    loc.bit = static_cast<unsigned>(row % 8);
  }
  return loc;
}

/// Fraction of the first `vl` mask bits that live in the same lane as the
/// element they guard. 1.0 for kLaneLocal by construction; ~1/total_lanes
/// for kStandard — the quantity behind Ara2's A2A MASKU traffic.
double mask_locality_fraction(const VrfMapping& map, MaskLayout layout,
                              std::uint64_t vl);

}  // namespace araxl

#endif  // ARAXL_VRF_LAYOUT_HPP
