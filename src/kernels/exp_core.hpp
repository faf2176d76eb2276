// Vectorized double-precision exponential: the code sequence shared by the
// exp and softmax kernels (paper Table I).
//
// Cody-Waite range reduction (x = k*ln2 + r, |r| <= ln2/2) followed by a
// degree-11 Taylor polynomial in Horner form and an exponent-field
// reconstruction of 2^k, with overflow/underflow handled by compare masks
// and merges — the "basic mask operations" the paper attributes to exp.
// Instruction mix per element: 20 FPU-busy slots carrying 30 DP-FLOP
// (the paper's own exp kernel reports 21 slots / 28 FLOP; see
// EXPERIMENTS.md for the accounting difference).
#ifndef ARAXL_KERNELS_EXP_CORE_HPP
#define ARAXL_KERNELS_EXP_CORE_HPP

#include "isa/program.hpp"

namespace araxl {

/// Register map used by the exp sequence (all LMUL=1 single registers;
/// v0 is clobbered as the clamp mask).
struct ExpRegs {
  unsigned x = 4;       ///< input (read only)
  unsigned k0 = 8;      ///< x * log2(e)
  unsigned ki = 9;      ///< round-to-int of k0
  unsigned kf = 10;     ///< ki back to double
  unsigned t = 11;      ///< kf * ln2_hi
  unsigned r = 12;      ///< reduced argument
  unsigned p = 13;      ///< polynomial accumulator
  unsigned coeff = 14;  ///< broadcast coefficient
  unsigned scale = 15;  ///< 2^k via exponent-field construction
  unsigned out = 16;    ///< result
};

/// Emits the exp sequence computing out = exp(x) elementwise under the
/// builder's current vtype (must be e64). The Horner steps are declared as
/// a loop when `horner_loop` is set; a caller that is itself inside a
/// declared loop passes false (loops do not nest).
void emit_exp_core(ProgramBuilder& pb, const ExpRegs& regs, bool horner_loop);

/// FPU-busy instruction slots per element of the sequence (for the
/// Table-I instruction-mix accounting).
constexpr unsigned kExpFpuSlots = 20;
/// DP-FLOP per element of the sequence.
constexpr unsigned kExpFlops = 30;

}  // namespace araxl

#endif  // ARAXL_KERNELS_EXP_CORE_HPP
