// Physical Vector Register File.
//
// The store is one element-order image per architectural register: its
// elements packed in index order at the width the register was last
// accessed with (its element-width tag). Consecutive registers are
// consecutive in storage, so an LMUL group is a single contiguous span.
//
// The hardware stripes each register across the lanes, element i in lane
// i mod L at every element width (paper §III-B.2), so a register's values
// never depend on that layout and the lane bytes are derived on demand: a
// lane position (cluster, lane, byte offset) names one image byte under the
// register's tag, found with the mapping's shifts. Mask bits, whose layouts
// (§III-B.5) are defined in lane terms, and the layout introspection reach
// the image that way. Accessing a register at a width other than its tag
// retags it first: the image at the old width goes to lane order and back
// to an image at the new width, which leaves every lane byte unchanged.
#ifndef ARAXL_VRF_VRF_HPP
#define ARAXL_VRF_VRF_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "vrf/layout.hpp"
#include "vrf/mapping.hpp"

namespace araxl {

class Vrf {
 public:
  Vrf(Topology topo, std::uint64_t vlen_bits, MaskLayout mask_layout);

  [[nodiscard]] const VrfMapping& mapping() const noexcept { return map_; }
  [[nodiscard]] MaskLayout mask_layout() const noexcept { return mask_layout_; }

  // ---- element-order spans -------------------------------------------------
  /// The contiguous image of `vl` elements of width `ew_bytes` starting at
  /// `base_vreg` (an LMUL group continues into the following registers).
  /// Covered registers tagged with another width are retagged first. Valid
  /// until a covered register is next accessed at another width.
  [[nodiscard]] const std::uint8_t* span(unsigned base_vreg, std::uint64_t vl,
                                         unsigned ew_bytes) const {
    return group(base_vreg, vl, ew_bytes);
  }
  [[nodiscard]] std::uint8_t* span(unsigned base_vreg, std::uint64_t vl,
                                   unsigned ew_bytes) {
    return group(base_vreg, vl, ew_bytes);
  }

  // ---- single elements (idx counts from base_vreg across LMUL) ------------
  [[nodiscard]] std::uint64_t read_elem(unsigned base_vreg, std::uint64_t idx,
                                        unsigned ew_bytes) const {
    const std::uint8_t* p = elem(base_vreg, idx, ew_bytes);
    std::uint64_t bits = 0;
    switch (ew_bytes) {
      case 1: std::memcpy(&bits, p, 1); break;
      case 2: std::memcpy(&bits, p, 2); break;
      case 4: std::memcpy(&bits, p, 4); break;
      default: std::memcpy(&bits, p, 8); break;
    }
    return bits;
  }
  void write_elem(unsigned base_vreg, std::uint64_t idx, unsigned ew_bytes,
                  std::uint64_t bits) {
    std::uint8_t* p = elem(base_vreg, idx, ew_bytes);
    switch (ew_bytes) {
      case 1: std::memcpy(p, &bits, 1); break;
      case 2: std::memcpy(p, &bits, 2); break;
      case 4: std::memcpy(p, &bits, 4); break;
      default: std::memcpy(p, &bits, 8); break;
    }
  }

  // ---- typed convenience (inline so the width constant-folds) -------------
  [[nodiscard]] double read_f64(unsigned base_vreg, std::uint64_t idx) const {
    return std::bit_cast<double>(read_elem(base_vreg, idx, 8));
  }
  void write_f64(unsigned base_vreg, std::uint64_t idx, double v) {
    write_elem(base_vreg, idx, 8, std::bit_cast<std::uint64_t>(v));
  }
  [[nodiscard]] float read_f32(unsigned base_vreg, std::uint64_t idx) const {
    return std::bit_cast<float>(
        static_cast<std::uint32_t>(read_elem(base_vreg, idx, 4)));
  }
  void write_f32(unsigned base_vreg, std::uint64_t idx, float v) {
    write_elem(base_vreg, idx, 4, std::bit_cast<std::uint32_t>(v));
  }
  [[nodiscard]] std::int64_t read_i64(unsigned base_vreg,
                                      std::uint64_t idx) const {
    return static_cast<std::int64_t>(read_elem(base_vreg, idx, 8));
  }
  void write_i64(unsigned base_vreg, std::uint64_t idx, std::int64_t v) {
    write_elem(base_vreg, idx, 8, static_cast<std::uint64_t>(v));
  }

  // ---- mask registers ------------------------------------------------------
  [[nodiscard]] bool mask_bit(unsigned vreg, std::uint64_t i) const {
    return mask_bit_in(vreg, i, mask_layout_);
  }
  void set_mask_bit(unsigned vreg, std::uint64_t i, bool value) {
    set_mask_bit_in(vreg, i, mask_layout_, value);
  }

  /// Converts mask register `vreg` (first `bits` bits) between layouts —
  /// the reshuffle operation of paper §III-B.5. Returns the number of bits
  /// that had to move to a different lane (the ring traffic the timing
  /// model charges for).
  std::uint64_t reshuffle_mask(unsigned vreg, MaskLayout from, MaskLayout to,
                               std::uint64_t bits);

  // ---- introspection (layout tests) ---------------------------------------
  /// Raw byte inside one lane's slice of a register.
  [[nodiscard]] std::uint8_t lane_byte(unsigned cluster, unsigned lane,
                                       unsigned vreg, std::uint64_t offset) const;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return image_.size(); }

 private:
  [[nodiscard]] std::uint8_t* group(unsigned base_vreg, std::uint64_t vl,
                                    unsigned ew_bytes) const;
  [[nodiscard]] std::uint8_t* elem(unsigned base_vreg, std::uint64_t idx,
                                   unsigned ew_bytes) const {
    const std::uint64_t at =
        (std::uint64_t{base_vreg} << reg_shift_) + idx * ew_bytes;
    check(at + ew_bytes <= image_.size(), "element index spills past v31");
    const auto vreg = static_cast<unsigned>(at >> reg_shift_);
    if (tag_[vreg] != ew_bytes) retag(vreg, ew_bytes);
    return image_.data() + at;
  }
  /// Image index of byte `offset` of flat lane `lane`'s slice of `vreg`,
  /// when the register's image has element width `ew_bytes`.
  [[nodiscard]] std::size_t lane_index(unsigned vreg, std::uint64_t lane,
                                       std::uint64_t offset,
                                       unsigned ew_bytes) const {
    const unsigned s = VrfMapping::ew_shift(ew_bytes);
    const std::uint64_t elem = ((offset >> s) << lanes_shift_) + lane;
    return (std::size_t{vreg} << reg_shift_) + (elem << s) +
           (offset & (ew_bytes - 1));
  }
  /// Image byte and bit position of mask bit `i` of `vreg` under `layout`.
  struct MaskPos {
    std::size_t byte = 0;
    unsigned bit = 0;
  };
  [[nodiscard]] MaskPos mask_pos(unsigned vreg, std::uint64_t i,
                                 MaskLayout layout) const {
    const MaskBitLoc loc = mask_bit_loc(map_, layout, i);
    return {lane_index(vreg, loc.cluster * map_.topology().lanes + loc.lane,
                       loc.byte_offset, tag_[vreg]),
            loc.bit};
  }
  [[nodiscard]] bool mask_bit_in(unsigned vreg, std::uint64_t i,
                                 MaskLayout layout) const {
    const MaskPos p = mask_pos(vreg, i, layout);
    return ((image_[p.byte] >> p.bit) & 1u) != 0;
  }
  void set_mask_bit_in(unsigned vreg, std::uint64_t i, MaskLayout layout,
                       bool value);
  void retag(unsigned vreg, unsigned ew_bytes) const;

  VrfMapping map_;
  MaskLayout mask_layout_;
  unsigned reg_shift_ = 0;    ///< log2(bytes per architectural register)
  unsigned lanes_shift_ = 0;  ///< log2(total lanes)
  // Mutable: a retag changes the representation, never a value, so const
  // readers may trigger one.
  mutable std::vector<std::uint8_t> image_;
  mutable std::array<std::uint8_t, kNumVregs> tag_{};
};

}  // namespace araxl

#endif  // ARAXL_VRF_VRF_HPP
