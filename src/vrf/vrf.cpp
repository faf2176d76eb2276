#include "vrf/vrf.hpp"

#include <bit>

namespace araxl {

Vrf::Vrf(Topology topo, std::uint64_t vlen_bits, MaskLayout mask_layout)
    : map_(topo, vlen_bits), mask_layout_(mask_layout) {
  reg_shift_ = static_cast<unsigned>(std::countr_zero(vlen_bits / 8));
  lanes_shift_ = static_cast<unsigned>(std::countr_zero(topo.total_lanes()));
  image_.assign(std::size_t{kNumVregs} << reg_shift_, 0);
  tag_.fill(8);  // all-zero registers read the same at every width
}

std::uint8_t* Vrf::group(unsigned base_vreg, std::uint64_t vl,
                         unsigned ew_bytes) const {
  const std::uint64_t reg_bytes = std::uint64_t{1} << reg_shift_;
  const std::uint64_t nregs = (vl * ew_bytes + reg_bytes - 1) >> reg_shift_;
  check(base_vreg + nregs <= kNumVregs, "element index spills past v31");
  for (unsigned v = base_vreg; v < base_vreg + nregs; ++v) {
    if (tag_[v] != ew_bytes) retag(v, ew_bytes);
  }
  return image_.data() + (std::size_t{base_vreg} << reg_shift_);
}

void Vrf::retag(unsigned vreg, unsigned ew_bytes) const {
  // Every lane byte keeps its value: read it at the old width's image
  // position, write it at the new one.
  std::uint8_t* img = image_.data() + (std::size_t{vreg} << reg_shift_);
  const std::vector<std::uint8_t> old(img, img + (std::size_t{1} << reg_shift_));
  const unsigned old_ew = tag_[vreg];
  const unsigned total_lanes = map_.topology().total_lanes();
  for (unsigned lane = 0; lane < total_lanes; ++lane) {
    for (std::uint64_t off = 0; off < map_.slice_bytes(); ++off) {
      image_[lane_index(vreg, lane, off, ew_bytes)] =
          old[lane_index(0, lane, off, old_ew)];
    }
  }
  tag_[vreg] = static_cast<std::uint8_t>(ew_bytes);
}

void Vrf::set_mask_bit_in(unsigned vreg, std::uint64_t i, MaskLayout layout,
                          bool value) {
  const MaskPos p = mask_pos(vreg, i, layout);
  std::uint8_t& byte = image_[p.byte];
  if (value) {
    byte = static_cast<std::uint8_t>(byte | (1u << p.bit));
  } else {
    byte = static_cast<std::uint8_t>(byte & ~(1u << p.bit));
  }
}

std::uint64_t Vrf::reshuffle_mask(unsigned vreg, MaskLayout from, MaskLayout to,
                                  std::uint64_t bits) {
  std::vector<bool> values(bits);
  std::uint64_t moved = 0;
  for (std::uint64_t i = 0; i < bits; ++i) {
    values[i] = mask_bit_in(vreg, i, from);
    const MaskBitLoc a = mask_bit_loc(map_, from, i);
    const MaskBitLoc b = mask_bit_loc(map_, to, i);
    if (a.cluster != b.cluster || a.lane != b.lane) ++moved;
  }
  // Clear both encodings' footprints before rewriting to avoid stale bits.
  for (std::uint64_t i = 0; i < bits; ++i) {
    set_mask_bit_in(vreg, i, from, false);
  }
  for (std::uint64_t i = 0; i < bits; ++i) {
    set_mask_bit_in(vreg, i, to, values[i]);
  }
  return moved;
}

std::uint8_t Vrf::lane_byte(unsigned cluster, unsigned lane, unsigned vreg,
                            std::uint64_t offset) const {
  check(cluster < map_.topology().total_clusters() &&
            lane < map_.topology().lanes && vreg < kNumVregs &&
            offset < map_.slice_bytes(),
        "VRF index out of range");
  return image_[lane_index(vreg, cluster * map_.topology().lanes + lane, offset,
                           tag_[vreg])];
}

}  // namespace araxl
