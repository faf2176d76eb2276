// vtype CSR semantics: SEW, LMUL (including fractional), and the derived
// VLMAX used by vsetvli. RISC-V V 1.0 caps VLEN at 64 Kibit per register —
// the limit AraXL is the first implementation to reach.
#ifndef ARAXL_ISA_VTYPE_HPP
#define ARAXL_ISA_VTYPE_HPP

#include <cstdint>
#include <string>

#include "isa/ew.hpp"

namespace araxl {

/// Maximum VLEN permitted by the RVV 1.0 specification (64 Kibit).
inline constexpr std::uint64_t kMaxVlenBits = 65536;

/// Number of architectural vector registers.
inline constexpr unsigned kNumVregs = 32;

/// Register-group multiplier as a signed power of two: log2(LMUL) in
/// [-3, 3] covering mf8 .. m8.
struct Lmul {
  std::int8_t log2 = 0;

  [[nodiscard]] constexpr bool fractional() const noexcept { return log2 < 0; }
  /// Number of architectural registers in a group (>= 1).
  [[nodiscard]] constexpr unsigned group_regs() const noexcept {
    return log2 <= 0 ? 1u : 1u << log2;
  }

  friend bool operator==(const Lmul&, const Lmul&) = default;
};

constexpr Lmul kLmul1{0};
constexpr Lmul kLmul2{1};
constexpr Lmul kLmul4{2};
constexpr Lmul kLmul8{3};
constexpr Lmul kLmulF2{-1};
constexpr Lmul kLmulF4{-2};
constexpr Lmul kLmulF8{-3};

/// Decoded vtype: SEW + LMUL (tail/mask agnosticism is accepted but has no
/// behavioural effect in this model: tails are always left undisturbed).
struct Vtype {
  Sew sew = Sew::k64;
  Lmul lmul = kLmul1;

  friend bool operator==(const Vtype&, const Vtype&) = default;
};

/// VLMAX = LMUL * VLEN / SEW for a given register length.
std::uint64_t vlmax(std::uint64_t vlen_bits, Vtype vt);

/// vsetvli result: min(avl, vlmax).
std::uint64_t vsetvl_result(std::uint64_t vlen_bits, std::uint64_t avl, Vtype vt);

/// "e64,m4"-style rendering.
std::string vtype_name(Vtype vt);

}  // namespace araxl

#endif  // ARAXL_ISA_VTYPE_HPP
