// Program representation executed by the machine model, and the
// ProgramBuilder — the public API kernels (and library users) use to write
// vector programs. A Program is a sequence of scalar bookkeeping operations
// (consuming CVA6 cycles) and vector instructions (broadcast to the
// clusters over the REQI). Kernels declare their strip-mined loops
// (ProgramBuilder::loop): a loop is stored once, as its first iteration
// plus per-iteration address/AVL steps and scalar columns, and the timing
// engine batches it by that declaration.
#ifndef ARAXL_ISA_PROGRAM_HPP
#define ARAXL_ISA_PROGRAM_HPP

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "isa/instr.hpp"
#include "isa/vtype.hpp"

namespace araxl {

/// Scalar-core work between vector instructions. The timing model charges
/// CVA6 cycles for it; it carries no functional payload (kernel builders
/// compute all addresses and scalar values at build time).
struct ScalarOp {
  enum class Kind : std::uint8_t {
    kCycles,  ///< `count` cycles of ALU/branch work
    kLoad,    ///< one d-cache load (latency set by machine config)
    kStore,   ///< one d-cache store
  };
  Kind kind = Kind::kCycles;
  std::uint32_t count = 1;
};

using ProgOp = std::variant<ScalarOp, VInstr>;

/// A declared loop: `count` iterations of one body, stored as iteration
/// 0's ops plus, per body op, what changes from one iteration to the next.
/// The builder has checked every other iteration against that description,
/// so op(it, pos) is exactly the op the iteration emitted.
struct ProgramLoop {
  static constexpr std::uint32_t kConstFs = ~std::uint32_t{0};

  struct BodyOp {
    ProgOp op;                        ///< iteration 0's op
    std::int64_t addr_step = 0;       ///< addr increment per iteration
    std::int64_t avl_step = 0;        ///< avl increment per iteration (vsetvli)
    std::uint32_t fs_col = kConstFs;  ///< start of its column in `fs`
  };

  std::size_t start = 0;     ///< program index of iteration 0's first op
  std::uint64_t count = 0;   ///< iterations
  std::vector<BodyOp> body;
  /// Per-iteration scalar operands of the body ops whose fs varies, one
  /// column of `count` values each.
  std::vector<double> fs;
  std::size_t straight_before = 0;  ///< straight-line ops before `start`

  [[nodiscard]] std::size_t size() const { return count * body.size(); }
  [[nodiscard]] std::size_t end() const { return start + size(); }
  /// Body op `pos` of iteration `it`.
  [[nodiscard]] ProgOp op(std::uint64_t it, std::size_t pos) const;
};

/// A compiled vector program: straight-line ops and declared loops.
class Program {
 public:
  std::string name;

  /// Number of ops the program executes (every loop iteration counted).
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The i-th executed op, i < size().
  [[nodiscard]] ProgOp op(std::size_t i) const;
  /// Declared loops, in program order.
  [[nodiscard]] const std::vector<ProgramLoop>& loops() const { return loops_; }

  [[nodiscard]] std::size_t vinstr_count() const;
  [[nodiscard]] std::size_t scalar_op_count() const;

 private:
  friend class ProgramBuilder;

  std::vector<ProgOp> straight_;  ///< ops outside loops, in program order
  std::vector<ProgramLoop> loops_;
  std::size_t size_ = 0;
};

// ---- loop-body signatures --------------------------------------------------
//
// The event-driven timing engine batches whole iterations of a declared
// loop once the machine reaches steady state. The *signature* of an
// operation is everything that can influence timing: opcode, register
// operands, masking, stride, the scalar immediate, and — for vsetvli — the
// granted vl and vtype (two vsetvlis with different AVLs but the same grant
// are timing- and architecture-equivalent; that is exactly how strip-mined
// loops count down their remaining AVL). Memory addresses and FP scalar
// operands are deliberately excluded: addresses are handled separately by
// the batcher's per-op barrier analysis, and fs never reaches the timing
// model. A declared loop's iterations share every body op's signature by
// construction; the batcher compares signatures only to classify what ends
// a loop (a vl tail or a grant change).
struct OpKey {
  std::uint32_t tag = 0;     ///< 0 scalar op, 1 vector instruction
  std::uint32_t op = 0;      ///< Op, or ScalarOp::Kind
  std::uint32_t regs = 0;    ///< vd | vs1<<8 | vs2<<16 | masked<<24
  std::uint32_t vtype = 0;   ///< sew bits | (lmul.log2+8)<<16 (vsetvli only)
  std::uint64_t value = 0;   ///< granted vl (vsetvli) / count (scalar)
  std::uint64_t xs = 0;      ///< integer scalar operand (slides, shifts)
  std::uint64_t stride = 0;  ///< strided-access byte stride

  friend bool operator==(const OpKey&, const OpKey&) = default;
};

/// Timing signature of `op` on a machine with `vlen_bits` of register.
[[nodiscard]] OpKey op_key(const ProgOp& op, std::uint64_t vlen_bits);

/// A declared loop of at least three iterations as the batcher sees it:
/// ops [start, end) of loop `loop`, batched in whole periods of `period`
/// ops — the body length, times the bus-phase super-period when the loop
/// is long enough for three of those.
struct LoopRegion {
  std::size_t start = 0;
  std::size_t end = 0;
  std::size_t period = 0;
  std::size_t loop = 0;  ///< index into Program::loops()
};

/// Bus-phase super-period of `loop`, in iterations: the lcm, over its
/// unit-stride memory ops, of bus_bytes / gcd(d mod bus_bytes, bus_bytes)
/// for the op's address step d. After that many iterations every such
/// op's bus phase (addr % bus_bytes) is back where it started, even when
/// it drifts from one iteration to the next (a row pitch that is not a bus
/// multiple). Stops early and returns a value whose span exceeds the loop
/// once the lcm does.
[[nodiscard]] std::size_t phase_super_period(const ProgramLoop& loop,
                                             std::uint64_t bus_bytes);

/// Fluent, validating builder for Programs.
///
/// The builder tracks the current vtype/vl the way the hardware would, so
/// kernels can strip-mine with the granted vl, and checks the RVV
/// register-group alignment rules at build time (catching kernel bugs long
/// before simulation).
class ProgramBuilder {
 public:
  ProgramBuilder(std::uint64_t vlen_bits, std::string name);

  // ---- loops -------------------------------------------------------------
  /// Declares a loop: runs `body(it)` for it = 0 .. count-1 and stores
  /// iteration 0's ops once. Every later iteration must emit the same ops
  /// with the same signature (op_key, the granted vl of a vsetvli
  /// included) and the same fields, except that addr and avl may advance
  /// by a fixed step per iteration (iteration 1 sets it) and fs may vary
  /// (kept per iteration). Any other difference, and a loop inside a loop,
  /// throws ContractViolation: a declaration never describes ops that the
  /// iterations did not emit. Later iterations are only compared with
  /// iteration 0, never stored.
  template <class Body>
  void loop(std::uint64_t count, Body&& body) {
    begin_loop(count);
    for (std::uint64_t it = 0; it < count; ++it) {
      next_iteration(it);
      body(it);
    }
    end_loop();
  }

  // ---- scalar side -------------------------------------------------------
  void scalar_cycles(std::uint32_t n);
  void scalar_load();
  void scalar_store();

  // ---- configuration -----------------------------------------------------
  /// Emits vsetvli and returns the granted vl = min(avl, VLMAX).
  std::uint64_t vsetvli(std::uint64_t avl, Sew sew, Lmul lmul);

  [[nodiscard]] std::uint64_t vl() const { return vl_; }
  [[nodiscard]] Vtype vtype() const { return vtype_; }
  [[nodiscard]] std::uint64_t vlen_bits() const { return vlen_bits_; }
  [[nodiscard]] std::uint64_t vlmax(Sew sew, Lmul lmul) const;

  // ---- memory ------------------------------------------------------------
  void vle(unsigned vd, std::uint64_t addr, bool masked = false);
  void vse(unsigned vs3, std::uint64_t addr, bool masked = false);
  void vlse(unsigned vd, std::uint64_t addr, std::int64_t stride_bytes);
  void vsse(unsigned vs3, std::uint64_t addr, std::int64_t stride_bytes);
  void vluxei(unsigned vd, std::uint64_t base, unsigned index_vreg);
  void vsuxei(unsigned vs3, std::uint64_t base, unsigned index_vreg);

  // ---- floating point ----------------------------------------------------
  void vfadd_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked = false);
  void vfadd_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfsub_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked = false);
  void vfsub_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfrsub_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfmul_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked = false);
  void vfmul_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfdiv_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked = false);
  void vfdiv_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfrdiv_vf(unsigned vd, unsigned vs2, double fs, bool masked = false);
  void vfmacc_vv(unsigned vd, unsigned vs1, unsigned vs2, bool masked = false);
  void vfmacc_vf(unsigned vd, double fs, unsigned vs2, bool masked = false);
  void vfnmsac_vv(unsigned vd, unsigned vs1, unsigned vs2, bool masked = false);
  void vfnmsac_vf(unsigned vd, double fs, unsigned vs2, bool masked = false);
  void vfmadd_vf(unsigned vd, double fs, unsigned vs2, bool masked = false);
  void vfmadd_vv(unsigned vd, unsigned vs1, unsigned vs2, bool masked = false);
  void vfmsac_vf(unsigned vd, double fs, unsigned vs2, bool masked = false);
  void vfmin_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfmin_vf(unsigned vd, unsigned vs2, double fs);
  void vfmax_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfmax_vf(unsigned vd, unsigned vs2, double fs);
  void vfsgnj_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfsgnjn_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfabs(unsigned vd, unsigned vs);   // pseudo: vd = max(vs, -vs)
  void vfneg(unsigned vd, unsigned vs);   // pseudo: vfsgnjn vd, vs, vs
  void vfcvt_x_f(unsigned vd, unsigned vs2);
  void vfcvt_f_x(unsigned vd, unsigned vs2);

  // ---- integer / moves ---------------------------------------------------
  void vadd_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vadd_vx(unsigned vd, unsigned vs2, std::int64_t xs);
  void vsub_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vsll_vx(unsigned vd, unsigned vs2, std::int64_t shamt);
  void vsrl_vx(unsigned vd, unsigned vs2, std::int64_t shamt);
  void vand_vx(unsigned vd, unsigned vs2, std::int64_t xs);
  void vmv_v_x(unsigned vd, std::int64_t xs);
  void vmv_v_v(unsigned vd, unsigned vs1);
  void vfmv_v_f(unsigned vd, double fs);
  /// Reads element 0 of vs2 into the scalar FP accumulator; CVA6 blocks.
  void vfmv_f_s(unsigned vs2);
  void vfmv_s_f(unsigned vd, double fs);
  void vid_v(unsigned vd);

  /// .vf-style ops whose scalar operand is the accumulator captured by the
  /// last vfmv_f_s (data-dependent scalars, e.g. softmax normalization).
  void vfmul_vf_acc(unsigned vd, unsigned vs2);
  void vfadd_vf_acc(unsigned vd, unsigned vs2);
  void vfsub_vf_acc(unsigned vd, unsigned vs2, bool masked = false);
  void vfrdiv_vf_acc(unsigned vd, unsigned vs2);
  void vfmv_v_f_acc(unsigned vd);

  // ---- reductions --------------------------------------------------------
  void vfredusum(unsigned vd, unsigned vs2, unsigned vs1);
  void vfredmax(unsigned vd, unsigned vs2, unsigned vs1);
  void vfredmin(unsigned vd, unsigned vs2, unsigned vs1);

  // ---- permutation -------------------------------------------------------
  void vfslide1up(unsigned vd, unsigned vs2, double fs);
  void vfslide1down(unsigned vd, unsigned vs2, double fs);
  void vslideup_vx(unsigned vd, unsigned vs2, std::uint64_t amount);
  void vslidedown_vx(unsigned vd, unsigned vs2, std::uint64_t amount);

  // ---- mask --------------------------------------------------------------
  void vmfeq_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vmflt_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vmfle_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vmflt_vf(unsigned vd, unsigned vs2, double fs);
  void vmfle_vf(unsigned vd, unsigned vs2, double fs);
  void vmfgt_vf(unsigned vd, unsigned vs2, double fs);
  void vmfge_vf(unsigned vd, unsigned vs2, double fs);
  void vmand_mm(unsigned vd, unsigned vs2, unsigned vs1);
  void vmor_mm(unsigned vd, unsigned vs2, unsigned vs1);
  void vmxor_mm(unsigned vd, unsigned vs2, unsigned vs1);
  void vmandn_mm(unsigned vd, unsigned vs2, unsigned vs1);
  void vmerge_vvm(unsigned vd, unsigned vs2, unsigned vs1);
  void vfmerge_vfm(unsigned vd, unsigned vs2, double fs);

  // ---- widening FP (SEW=32 sources, 64-bit destination group) -------------
  void vfwadd_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfwsub_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfwmul_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vfwmacc_vv(unsigned vd, unsigned vs1, unsigned vs2);
  void vfsqrt_v(unsigned vd, unsigned vs2);

  // ---- gather / compress ---------------------------------------------------
  void vrgather_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vcompress_vm(unsigned vd, unsigned vs2, unsigned vs1);

  // ---- mask population ------------------------------------------------------
  void vcpop_m(unsigned vs2);    ///< population count -> scalar (CVA6 blocks)
  void vfirst_m(unsigned vs2);   ///< first set index (-1 if none) -> scalar
  void viota_m(unsigned vd, unsigned vs2);
  void vmsbf_m(unsigned vd, unsigned vs2);
  void vmsif_m(unsigned vd, unsigned vs2);
  void vmsof_m(unsigned vd, unsigned vs2);

  // ---- additional integer ---------------------------------------------------
  void vmul_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vmul_vx(unsigned vd, unsigned vs2, std::int64_t xs);
  void vmacc_vv(unsigned vd, unsigned vs1, unsigned vs2);
  void vrsub_vx(unsigned vd, unsigned vs2, std::int64_t xs);
  void vmax_vv(unsigned vd, unsigned vs2, unsigned vs1);
  void vmin_vv(unsigned vd, unsigned vs2, unsigned vs1);

  /// Appends `in` as is, without validation (tests of encodings the
  /// emitters above never produce).
  void raw(const VInstr& in);

  /// Finalizes and returns the program (builder becomes empty).
  [[nodiscard]] Program take();

 private:
  void begin_loop(std::uint64_t count);
  void next_iteration(std::uint64_t it);
  void end_loop();
  /// Stores `op`, or checks it against the loop body when replaying.
  void emit(const ProgOp& op);
  void match(ProgramLoop::BodyOp& b, const ProgOp& op);
  void push(VInstr in);
  void check_vreg(unsigned v, bool grouped = true) const;
  VInstr make(Op op, unsigned vd, unsigned vs1, unsigned vs2, bool masked) const;
  VInstr make_widening(Op op, unsigned vd, unsigned vs1, unsigned vs2);

  Program prog_;
  std::uint64_t vlen_bits_;
  Vtype vtype_{};
  std::uint64_t vl_ = 0;
  bool vtype_set_ = false;

  // Declared-loop state: iteration and body position being emitted.
  bool in_loop_ = false;
  std::uint64_t loop_it_ = 0;
  std::size_t loop_pos_ = 0;
  /// Register-group checks run for iterations 0 and 1 only: every later
  /// iteration starts in iteration 1's vtype state and emits the same
  /// registers (match() proves it), so it passes them too.
  bool validate_ = true;
};

}  // namespace araxl

#endif  // ARAXL_ISA_PROGRAM_HPP
