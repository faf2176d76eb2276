// Functional (architectural) execution of the RVV subset.
//
// The machine model separates *what* an instruction computes from *when*
// its results appear: this engine updates the VRF, memory, and the scalar
// accumulators with exact IEEE-754 semantics in program order, while
// machine/timing.cpp models when each element becomes visible. The split is
// sound because the timing model enforces the same program-order dataflow
// the functional engine assumes (hazards + chaining).
//
// Each op class runs one loop over element-order VRF spans (vrf/vrf.hpp)
// at the SEW's raw element type, and each opcode's arithmetic is written
// once. A masked instruction unpacks v0 once and tests it inside that loop.
// FP arithmetic runs in double and rounds once on the write, so SEW 16/32
// results are a double computation rounded to the element width.
// tests/test_functional_ref.cpp checks every opcode and shape against a
// deliberately naive per-element interpreter.
#ifndef ARAXL_MACHINE_FUNCTIONAL_HPP
#define ARAXL_MACHINE_FUNCTIONAL_HPP

#include <cstdint>
#include <vector>

#include "isa/program.hpp"
#include "machine/config.hpp"
#include "mem/main_memory.hpp"
#include "vrf/vrf.hpp"

namespace araxl {

class FunctionalEngine {
 public:
  FunctionalEngine(const MachineConfig& cfg, Vrf& vrf, MainMemory& mem);

  /// Executes one vector instruction (including vsetvli) architecturally.
  void exec(const VInstr& in);

  [[nodiscard]] std::uint64_t vl() const noexcept { return vl_; }
  [[nodiscard]] Vtype vtype() const noexcept { return vtype_; }
  /// Value captured by the last vfmv.f.s (the scalar FP accumulator).
  [[nodiscard]] double scalar_acc() const noexcept { return scalar_acc_; }
  /// Value captured by the last vcpop.m / vfirst.m (integer accumulator).
  [[nodiscard]] std::int64_t scalar_iacc() const noexcept { return scalar_iacc_; }

 private:
  [[nodiscard]] double scalar_of(const VInstr& in) const {
    return in.fs_from_acc ? scalar_acc_ : in.fs;
  }
  /// v0's first vl mask bits, one byte per element.
  [[nodiscard]] const std::uint8_t* unpack_v0();

  // One executor per op class, at T = the SEW's unsigned element type.
  // `m` is the unpacked v0 of a masked instruction, nullptr when every
  // element is active.
  template <typename T>
  void exec_sew(const VInstr& in);
  template <typename T>
  void exec_memory(const VInstr& in, const std::uint8_t* m);
  template <typename T>
  void exec_elementwise(const VInstr& in, const std::uint8_t* m);
  template <typename T>
  void exec_reduction(const VInstr& in, const std::uint8_t* m);
  template <typename T>
  void exec_slide(const VInstr& in, const std::uint8_t* m);
  template <typename T>
  void exec_mask(const VInstr& in, const std::uint8_t* m);
  template <typename T>
  void exec_gather(const VInstr& in, const std::uint8_t* m);
  template <typename T>
  void exec_mask_population(const VInstr& in, const std::uint8_t* m);
  void exec_widening(const VInstr& in, const std::uint8_t* m);

  const MachineConfig& cfg_;
  Vrf& vrf_;
  MainMemory& mem_;
  Vtype vtype_{};
  std::uint64_t vl_ = 0;
  double scalar_acc_ = 0.0;
  std::int64_t scalar_iacc_ = 0;
  std::vector<std::uint8_t> v0_;  ///< unpack_v0's storage
};

}  // namespace araxl

#endif  // ARAXL_MACHINE_FUNCTIONAL_HPP
