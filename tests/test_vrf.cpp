// Unit tests: VRF element mapping (paper §III-B.2), mask layouts
// (§III-B.5), physical storage, and the reshuffle operation.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <vector>

#include "vrf/vrf.hpp"

namespace araxl {
namespace {

TEST(Mapping, PaperExampleElementToClusterLane) {
  // Paper: element i -> cluster (i/L) mod C, lane i mod L. With L=4, C=4:
  // elements 0..3 in cluster 0 lanes 0..3, 4..7 in cluster 1, etc.
  const VrfMapping map(Topology{4, 4}, 16384);
  EXPECT_EQ(map.cluster_of(0), 0u);
  EXPECT_EQ(map.lane_of(3), 3u);
  EXPECT_EQ(map.cluster_of(4), 1u);
  EXPECT_EQ(map.cluster_of(15), 3u);
  EXPECT_EQ(map.cluster_of(16), 0u);  // wraps to cluster 0, row 1
  EXPECT_EQ(map.row_of(16), 1u);
}

TEST(Mapping, EwIndependentLaneAssignment) {
  // The Ara2/AraXL property: the cluster/lane of element i does not depend
  // on the element width (no cross-lane reshuffles on width changes).
  const VrfMapping map(Topology{8, 4}, 32768);
  for (std::uint64_t i = 0; i < 512; ++i) {
    const VregLoc l8 = map.element_loc(0, i, 8);
    const VregLoc l4 = map.element_loc(0, i, 4);
    const VregLoc l2 = map.element_loc(0, i, 2);
    EXPECT_EQ(l8.cluster, l4.cluster);
    EXPECT_EQ(l8.lane, l4.lane);
    EXPECT_EQ(l4.cluster, l2.cluster);
    EXPECT_EQ(l4.lane, l2.lane);
  }
}

TEST(Mapping, SliceBytes) {
  // 64-lane AraXL: VLEN = 64 Kibit => 65536/8/64 = 128 B per lane per vreg.
  const VrfMapping map(Topology{16, 4}, 65536);
  EXPECT_EQ(map.slice_bytes(), 128u);
  EXPECT_EQ(map.elems_per_reg(8), 1024u);
}

TEST(Mapping, LmulSpillsToNextRegister) {
  const VrfMapping map(Topology{2, 4}, 8192);
  const std::uint64_t epr = map.elems_per_reg(8);  // 128
  const VregLoc loc = map.element_loc(8, epr + 5, 8);
  EXPECT_EQ(loc.vreg, 9u);
  const VregLoc loc2 = map.element_loc(8, 5, 8);
  EXPECT_EQ(loc2.cluster, loc.cluster);  // same offset within register
  EXPECT_EQ(loc2.lane, loc.lane);
  EXPECT_EQ(loc2.byte_offset, loc.byte_offset);
}

TEST(Mapping, SpillPastV31Throws) {
  const VrfMapping map(Topology{2, 4}, 8192);
  EXPECT_THROW(static_cast<void>(map.element_loc(31, map.elems_per_reg(8), 8)),
               ContractViolation);
}

TEST(Mapping, RejectsBadGeometry) {
  EXPECT_THROW(VrfMapping(Topology{3, 4}, 16384), ContractViolation);  // non-pow2
  EXPECT_THROW(VrfMapping(Topology{4, 4}, 12345), ContractViolation);
  // each lane must hold whole 64-bit words: 64 lanes x 64 bits = 4096 min
  EXPECT_THROW(VrfMapping(Topology{16, 4}, 2048), ContractViolation);
}

TEST(MaskLayout, LaneLocalKeepsBitsWithElements) {
  const VrfMapping map(Topology{4, 4}, 16384);
  for (std::uint64_t i = 0; i < 256; ++i) {
    const MaskBitLoc loc = mask_bit_loc(map, MaskLayout::kLaneLocal, i);
    EXPECT_EQ(loc.cluster, map.cluster_of(i));
    EXPECT_EQ(loc.lane, map.lane_of(i));
  }
  EXPECT_DOUBLE_EQ(mask_locality_fraction(map, MaskLayout::kLaneLocal, 256), 1.0);
}

TEST(MaskLayout, StandardLayoutScattersBits) {
  // Under the RVV bitstring layout almost all mask bits live in a different
  // lane than the element they guard — the Ara2 A2A MASKU problem.
  const VrfMapping map(Topology{4, 4}, 16384);
  const double frac = mask_locality_fraction(map, MaskLayout::kStandard, 256);
  EXPECT_LT(frac, 0.2);
}

TEST(MaskLayout, StandardPacksSixtyFourBitsPerWord) {
  const VrfMapping map(Topology{4, 4}, 16384);
  // Bits 0..63 share the first logical 64-bit word (cluster 0, lane 0).
  for (std::uint64_t i = 0; i < 64; ++i) {
    const MaskBitLoc loc = mask_bit_loc(map, MaskLayout::kStandard, i);
    EXPECT_EQ(loc.cluster, 0u);
    EXPECT_EQ(loc.lane, 0u);
  }
  const MaskBitLoc loc64 = mask_bit_loc(map, MaskLayout::kStandard, 64);
  EXPECT_EQ(loc64.cluster, 0u);
  EXPECT_EQ(loc64.lane, 1u);
}

TEST(Vrf, ElementRoundTrip) {
  Vrf vrf(Topology{4, 4}, 16384, MaskLayout::kLaneLocal);
  for (std::uint64_t i = 0; i < 256; ++i) {
    vrf.write_f64(8, i, 1.5 * static_cast<double>(i));
  }
  for (std::uint64_t i = 0; i < 256; ++i) {
    EXPECT_DOUBLE_EQ(vrf.read_f64(8, i), 1.5 * static_cast<double>(i));
  }
}

TEST(Vrf, NarrowElements) {
  Vrf vrf(Topology{2, 4}, 8192, MaskLayout::kLaneLocal);
  vrf.write_f32(4, 7, 2.5f);
  EXPECT_FLOAT_EQ(vrf.read_f32(4, 7), 2.5f);
  vrf.write_elem(6, 3, 2, 0xBEEF);
  EXPECT_EQ(vrf.read_elem(6, 3, 2), 0xBEEFu);
  vrf.write_elem(6, 9, 1, 0x7F);
  EXPECT_EQ(vrf.read_elem(6, 9, 1), 0x7Fu);
}

TEST(Vrf, RegistersAreIndependent) {
  Vrf vrf(Topology{2, 4}, 8192, MaskLayout::kLaneLocal);
  vrf.write_i64(3, 0, 111);
  vrf.write_i64(4, 0, 222);
  EXPECT_EQ(vrf.read_i64(3, 0), 111);
  EXPECT_EQ(vrf.read_i64(4, 0), 222);
}

TEST(Vrf, PhysicalPlacementMatchesMapping) {
  Vrf vrf(Topology{4, 4}, 16384, MaskLayout::kLaneLocal);
  const VrfMapping& map = vrf.mapping();
  const std::uint64_t idx = 37;
  vrf.write_elem(5, idx, 8, 0x4142434445464748ull);
  const VregLoc loc = map.element_loc(5, idx, 8);
  // The first byte of the value must be at the mapped physical location.
  EXPECT_EQ(vrf.lane_byte(loc.cluster, loc.lane, loc.vreg, loc.byte_offset), 0x48);
}

TEST(Vrf, MaskBitsRoundTrip) {
  Vrf vrf(Topology{4, 4}, 16384, MaskLayout::kLaneLocal);
  for (std::uint64_t i = 0; i < 128; ++i) {
    vrf.set_mask_bit(0, i, i % 3 == 0);
  }
  for (std::uint64_t i = 0; i < 128; ++i) {
    EXPECT_EQ(vrf.mask_bit(0, i), i % 3 == 0) << i;
  }
}

TEST(Vrf, ReshuffleConvertsLayouts) {
  // Write a pattern in the standard layout, reshuffle to lane-local, and
  // expect identical logical content plus a positive moved-bit count
  // (the SLDU+RINGI traffic of paper §III-B.5).
  Vrf vrf(Topology{4, 4}, 16384, MaskLayout::kStandard);
  const std::uint64_t bits = 256;
  for (std::uint64_t i = 0; i < bits; ++i) {
    vrf.set_mask_bit(7, i, (i * 7) % 5 < 2);
  }
  const std::uint64_t moved =
      vrf.reshuffle_mask(7, MaskLayout::kStandard, MaskLayout::kLaneLocal, bits);
  EXPECT_GT(moved, bits / 2);  // most bits cross lanes
  Vrf check(Topology{4, 4}, 16384, MaskLayout::kLaneLocal);
  for (std::uint64_t i = 0; i < bits; ++i) {
    const MaskBitLoc loc = mask_bit_loc(vrf.mapping(), MaskLayout::kLaneLocal, i);
    const bool bit =
        (vrf.lane_byte(loc.cluster, loc.lane, 7, loc.byte_offset) >> loc.bit) & 1;
    EXPECT_EQ(bit, (i * 7) % 5 < 2) << i;
  }
}

// A 4-lane register of 1024 bits: each lane holds a 32-byte slice, and
// element j at width w sits in lane j mod 4 at byte offset (j div 4) * w.
constexpr unsigned kLanes4 = 4;
constexpr std::uint64_t kSlice4 = 32;

/// Byte b of the double written as element j below.
std::uint8_t pattern_byte(std::uint64_t j, unsigned b) {
  return static_cast<std::uint8_t>(j * 8 + b + 1);
}

TEST(Vrf, CrossWidthReadsFollowTheLaneMapping) {
  // Doubles written at width 8 and read back at widths 4 and 1 return the
  // lane bytes the mapping puts at each narrower element, not the
  // doubles' element-order bytes.
  Vrf vrf(Topology{1, kLanes4}, 1024, MaskLayout::kLaneLocal);
  std::vector<std::uint8_t> lanes(kLanes4 * kSlice4);
  for (std::uint64_t j = 0; j < 16; ++j) {
    std::uint64_t bits = 0;
    for (unsigned b = 0; b < 8; ++b) {
      bits |= std::uint64_t{pattern_byte(j, b)} << (8 * b);
      lanes[(j % kLanes4) * kSlice4 + (j / kLanes4) * 8 + b] = pattern_byte(j, b);
    }
    vrf.write_f64(5, j, std::bit_cast<double>(bits));
  }
  for (const unsigned w : {4u, 1u}) {
    for (std::uint64_t j = 0; j < 128 / w; ++j) {
      std::uint64_t want = 0;
      for (unsigned b = 0; b < w; ++b) {
        want |= std::uint64_t{lanes[(j % kLanes4) * kSlice4 + (j / kLanes4) * w + b]}
                << (8 * b);
      }
      EXPECT_EQ(vrf.read_elem(5, j, w), want) << "w=" << w << " j=" << j;
    }
  }
  for (std::uint64_t j = 0; j < 16; ++j) {  // and back at width 8
    EXPECT_EQ(vrf.read_elem(5, j, 8) & 0xFF, pattern_byte(j, 0)) << j;
  }
}

TEST(Vrf, GroupWrittenThroughSpanLandsInMappedLanes) {
  // An LMUL=2 group written through one span lands, register by register,
  // at the lane bytes the mapping names.
  Vrf vrf(Topology{1, kLanes4}, 1024, MaskLayout::kLaneLocal);
  const std::uint64_t per_reg = 32;  // 4-byte elements per 128-byte register
  std::uint8_t* img = vrf.span(8, 2 * per_reg, 4);
  for (std::uint64_t j = 0; j < 2 * per_reg; ++j) {
    const std::uint32_t v = 0xA0B0C000u + static_cast<std::uint32_t>(j);
    std::memcpy(img + j * 4, &v, 4);
  }
  for (std::uint64_t j = 0; j < 2 * per_reg; ++j) {
    const std::uint32_t v = 0xA0B0C000u + static_cast<std::uint32_t>(j);
    const auto reg = static_cast<unsigned>(8 + j / per_reg);
    const std::uint64_t jj = j % per_reg;
    for (unsigned b = 0; b < 4; ++b) {
      EXPECT_EQ(vrf.lane_byte(0, static_cast<unsigned>(jj % kLanes4), reg,
                              (jj / kLanes4) * 4 + b),
                static_cast<std::uint8_t>(v >> (8 * b)))
          << "j=" << j << " b=" << b;
    }
  }
}

TEST(Vrf, MaskBitsSurviveAWidthChange) {
  // Reading a mask register as data at another width changes how it is
  // stored, never its lane bytes, so every mask bit reads back unchanged.
  for (const MaskLayout layout : {MaskLayout::kLaneLocal, MaskLayout::kStandard}) {
    Vrf vrf(Topology{2, 4}, 8192, layout);
    for (std::uint64_t i = 0; i < 8192; ++i) vrf.set_mask_bit(3, i, (i * 7) % 5 < 2);
    static_cast<void>(vrf.span(3, 512, 2));
    for (std::uint64_t i = 0; i < 8192; ++i) {
      EXPECT_EQ(vrf.mask_bit(3, i), (i * 7) % 5 < 2) << i;
    }
  }
}

TEST(Vrf, TotalBytesMatchGeometry) {
  // 64-lane, VLEN 64 Kibit: 4 KiB per lane x 64 lanes = 256 KiB of VRF.
  Vrf vrf(Topology{16, 4}, 65536, MaskLayout::kLaneLocal);
  EXPECT_EQ(vrf.total_bytes(), 256u * 1024);
}

}  // namespace
}  // namespace araxl
