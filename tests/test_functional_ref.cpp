// Differential check of the functional engine against a deliberately naive
// reference interpreter.
//
// The reference keeps each vector register as a flat array of elements at
// the width it was last written through, and a mask register as a separate
// array of bits. It has no lane mapping and no spans: every instruction is
// a per-element loop over the semantics the engine implements (FP computed
// in double and rounded once to SEW, a NaN result written as the SEW's
// canonical quiet NaN, sign injection on raw bits; inactive and tail
// elements left undisturbed; memory elements applied in order up to the
// first active element that leaves memory).
//
// A generated matrix drives FunctionalEngine directly, without timing:
// every opcode x SEW x LMUL (1/2 to 8) x masked/unmasked x vl in
// {1, VLMAX-1, VLMAX} x in-place/disjoint destination, plus memory strides
// (positive, negative, 0, |stride| < SEW, faulting) and indexed offsets
// (in range and faulting), on a lane-local-mask AraXL and a standard-mask
// Ara2. After every case it compares every data register, every mask bit,
// the scalar results and, for memory ops, every memory byte.
//
// Cases never read a register through another view (element width, or
// data vs mask) than the one it was last written through. That is the one
// behaviour that depends on the lane layout; the reference rejects it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "machine/functional.hpp"

namespace araxl {
namespace {

constexpr std::uint64_t kMemBytes = 64 << 10;

/// The reference's verdict on an access that leaves memory.
struct RefFault {};

// ---- FP element encodings ---------------------------------------------------

double fp_value(std::uint64_t bits, unsigned ew) {
  switch (ew) {
    case 8: return std::bit_cast<double>(bits);
    case 4: return std::bit_cast<float>(static_cast<std::uint32_t>(bits));
    case 2: {
      const auto h = static_cast<std::uint16_t>(bits);
      // A binary16 NaN operand reads as the quiet NaN with its sign.
      if ((h & 0x7C00) == 0x7C00 && (h & 0x03FF) != 0) {
        return std::copysign(std::numeric_limits<double>::quiet_NaN(),
                             (h & 0x8000) != 0 ? -1.0 : 1.0);
      }
      return static_cast<double>(std::bit_cast<_Float16>(h));
    }
    default: throw std::logic_error("FP element at SEW 8");
  }
}

std::uint64_t fp_bits(double v, unsigned ew) {
  switch (ew) {
    case 8: return std::bit_cast<std::uint64_t>(v);
    case 4: return std::bit_cast<std::uint32_t>(static_cast<float>(v));
    case 2:
      // A binary16 NaN result is the quiet NaN with the result's sign.
      if (std::isnan(v)) return std::signbit(v) ? 0xFE00 : 0x7E00;
      return std::bit_cast<std::uint16_t>(static_cast<_Float16>(v));
    default: throw std::logic_error("FP element at SEW 8");
  }
}

std::uint64_t ones(unsigned ew) {
  return ew == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * ew)) - 1;
}

/// An FP arithmetic result: the SEW's canonical quiet NaN for any NaN.
std::uint64_t fp_result(double v, unsigned ew) {
  if (!std::isnan(v)) return fp_bits(v, ew);
  return ew == 8 ? 0x7FF8000000000000 : ew == 4 ? 0x7FC00000 : 0x7E00;
}

/// IEEE 754-2019 minimumNumber and maximumNumber (RVV vfmin/vfmax and
/// their reductions), spelled out case by case: a NaN operand yields the
/// other operand, and -0 is less than +0.
double minimum_number(double a, double b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b)) return a;
  if (a == 0.0 && b == 0.0) return std::signbit(a) ? a : b;
  return a < b ? a : b;
}

double maximum_number(double a, double b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b)) return a;
  if (a == 0.0 && b == 0.0) return std::signbit(a) ? b : a;
  return a > b ? a : b;
}

// ---- the reference machine ---------------------------------------------------

class RefMachine {
 public:
  /// One register: elements at width `ew`, or (ew == 0) VLEN mask bits.
  struct Reg {
    unsigned ew = 8;
    std::vector<std::uint64_t> v;
  };

  explicit RefMachine(std::uint64_t vlen_bits)
      : vlen_(vlen_bits), regs_(kNumVregs), mem_(kMemBytes) {
    for (Reg& r : regs_) r = Reg{8, std::vector<std::uint64_t>(vlen_ / 64)};
  }

  [[nodiscard]] std::uint64_t vlen() const { return vlen_; }
  [[nodiscard]] Reg& reg(unsigned r) { return regs_[r]; }
  void set_reg(unsigned r, Reg value) { regs_[r] = std::move(value); }
  std::vector<std::uint8_t>& mem() { return mem_; }
  double acc = 0.0;
  std::int64_t iacc = 0;

  void exec(const VInstr& in);

 private:
  std::uint64_t& elem(unsigned base, std::uint64_t i, unsigned ew) {
    const std::uint64_t per_reg = vlen_ / 8 / ew;
    const std::uint64_t r = base + i / per_reg;
    if (r >= kNumVregs || regs_[r].ew != ew) {
      throw std::logic_error("reference: register read through another view");
    }
    return regs_[r].v[i % per_reg];
  }
  std::uint64_t& bit(unsigned r, std::uint64_t i) {
    if (regs_[r].ew != 0) throw std::logic_error("reference: data register used as a mask");
    return regs_[r].v[i];
  }
  std::uint64_t element(const VInstr& in, std::uint64_t i, unsigned ew, double fs);
  void memory(const VInstr& in, unsigned ew);

  std::uint64_t vlen_;
  std::vector<Reg> regs_;
  std::vector<std::uint8_t> mem_;
  Vtype vt_{};
  std::uint64_t vl_ = 0;
};

std::uint64_t RefMachine::element(const VInstr& in, std::uint64_t i, unsigned ew,
                                  double fs) {
  const auto x = [&] { return elem(in.vs2, i, ew); };
  const auto y = [&] { return elem(in.vs1, i, ew); };
  const auto z = [&] { return elem(in.vd, i, ew); };
  const auto fx = [&] { return fp_value(x(), ew); };
  const auto fy = [&] { return fp_value(y(), ew); };
  const auto fz = [&] { return fp_value(z(), ew); };
  const auto f = [&](double r) { return fp_result(r, ew); };
  const auto sext = [&](std::uint64_t v) {
    const unsigned shift = 64 - 8 * ew;
    return static_cast<std::int64_t>(v << shift) >> shift;
  };
  const auto xs = static_cast<std::uint64_t>(in.xs);
  const unsigned bits = 8 * ew;
  const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
  switch (in.op) {
    case Op::kVfaddVV: return f(fx() + fy());
    case Op::kVfaddVF: return f(fx() + fs);
    case Op::kVfsubVV: return f(fx() - fy());
    case Op::kVfsubVF: return f(fx() - fs);
    case Op::kVfrsubVF: return f(fs - fx());
    case Op::kVfmulVV: return f(fx() * fy());
    case Op::kVfmulVF: return f(fx() * fs);
    case Op::kVfdivVV: return f(fx() / fy());
    case Op::kVfdivVF: return f(fx() / fs);
    case Op::kVfrdivVF: return f(fs / fx());
    case Op::kVfmaccVV: return f(std::fma(fy(), fx(), fz()));
    case Op::kVfmaccVF: return f(std::fma(fs, fx(), fz()));
    case Op::kVfnmsacVV: return f(std::fma(-fy(), fx(), fz()));
    case Op::kVfnmsacVF: return f(std::fma(-fs, fx(), fz()));
    case Op::kVfmaddVF: return f(std::fma(fz(), fs, fx()));
    case Op::kVfmaddVV: return f(std::fma(fz(), fy(), fx()));
    case Op::kVfmsacVF: return f(std::fma(fs, fx(), -fz()));
    case Op::kVfminVV: return f(minimum_number(fx(), fy()));
    case Op::kVfminVF: return f(minimum_number(fx(), fs));
    case Op::kVfmaxVV: return f(maximum_number(fx(), fy()));
    case Op::kVfmaxVF: return f(maximum_number(fx(), fs));
    case Op::kVfsgnjVV: return (x() & ~sign) | (y() & sign);
    case Op::kVfsgnjnVV: return (x() & ~sign) | (~y() & sign);
    case Op::kVfsqrtV: return f(std::sqrt(fx()));
    case Op::kVfcvtXF:
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(std::nearbyint(fx())));
    case Op::kVfcvtFX: return f(static_cast<double>(sext(x())));
    case Op::kVfmvVF: return fp_bits(fs, ew);
    case Op::kVfmergeVFM: return bit(0, i) != 0 ? fp_bits(fs, ew) : x();
    case Op::kVmergeVVM: return bit(0, i) != 0 ? y() : x();
    case Op::kVaddVV: return x() + y();
    case Op::kVaddVX: return x() + xs;
    case Op::kVsubVV: return x() - y();
    case Op::kVsllVX: return x() << (xs % bits);
    case Op::kVsrlVX: return x() >> (xs % bits);
    case Op::kVandVX: return x() & xs;
    case Op::kVmvVX: return xs;
    case Op::kVmvVV: return y();
    case Op::kVidV: return i;
    case Op::kVmulVV: return x() * y();
    case Op::kVmulVX: return x() * xs;
    case Op::kVmaccVV: return z() + y() * x();
    case Op::kVrsubVX: return xs - x();
    case Op::kVmaxVV: return static_cast<std::uint64_t>(std::max(sext(x()), sext(y())));
    case Op::kVminVV: return static_cast<std::uint64_t>(std::min(sext(x()), sext(y())));
    default: throw std::logic_error("reference: not an element-wise op");
  }
}

void RefMachine::memory(const VInstr& in, unsigned ew) {
  const bool load = op_spec(in.op).reads_mem;
  for (std::uint64_t i = 0; i < vl_; ++i) {
    if (in.masked && bit(0, i) == 0) continue;
    std::uint64_t a = in.addr;
    switch (in.op) {
      case Op::kVle:
      case Op::kVse: a += i * ew; break;
      case Op::kVlse:
      case Op::kVsse: a += i * static_cast<std::uint64_t>(in.stride); break;
      default: a += elem(in.vs2, i, ew); break;
    }
    if (a + ew > mem_.size() || a + ew < a) throw RefFault{};
    if (load) {
      std::uint64_t v = 0;
      std::memcpy(&v, &mem_[a], ew);
      elem(in.vd, i, ew) = v;
    } else {
      const std::uint64_t v = elem(in.vd, i, ew);
      std::memcpy(&mem_[a], &v, ew);
    }
  }
}

void RefMachine::exec(const VInstr& in) {
  if (in.op == Op::kVsetvli) {
    vt_ = in.vtype;
    vl_ = std::min(in.avl, vlmax(vlen_, vt_));
    return;
  }
  const unsigned ew = sew_bytes(vt_.sew);
  const double fs = in.fs_from_acc ? acc : in.fs;
  const auto active = [&](std::uint64_t i) { return !in.masked || bit(0, i) != 0; };
  const OpSpec& spec = op_spec(in.op);
  switch (in.op) {
    case Op::kVfmvFS: acc = fp_value(elem(in.vs2, 0, ew), ew); return;
    case Op::kVcpopM:
    case Op::kVfirstM: {
      std::int64_t count = 0;
      std::int64_t first = -1;
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (!active(i) || bit(in.vs2, i) == 0) continue;
        ++count;
        if (first < 0) first = static_cast<std::int64_t>(i);
      }
      iacc = in.op == Op::kVcpopM ? count : first;
      acc = static_cast<double>(iacc);
      return;
    }
    default: break;
  }
  if (vl_ == 0) return;
  if (spec.reads_mem || spec.writes_mem) return memory(in, ew);

  const std::uint64_t vlmax_now = vlmax(vlen_, vt_);
  const auto k = static_cast<std::uint64_t>(in.xs);
  switch (in.op) {
    case Op::kVfmvSF:
      if (active(0)) elem(in.vd, 0, ew) = fp_bits(fs, ew);
      return;
    case Op::kVfwaddVV:
    case Op::kVfwsubVV:
    case Op::kVfwmulVV:
    case Op::kVfwmaccVV:
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (!active(i)) continue;
        const double a = fp_value(elem(in.vs2, i, 4), 4);
        const double b = fp_value(elem(in.vs1, i, 4), 4);
        double r = 0.0;
        switch (in.op) {
          case Op::kVfwaddVV: r = a + b; break;
          case Op::kVfwsubVV: r = a - b; break;
          case Op::kVfwmulVV: r = a * b; break;
          default: r = std::fma(b, a, fp_value(elem(in.vd, i, 8), 8)); break;
        }
        elem(in.vd, i, 8) = fp_result(r, 8);
      }
      return;
    case Op::kVfredusum:
    case Op::kVfredmax:
    case Op::kVfredmin: {
      double sum = fp_value(elem(in.vs1, 0, ew), ew);
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (!active(i)) continue;
        const double v = fp_value(elem(in.vs2, i, ew), ew);
        sum = in.op == Op::kVfredusum ? sum + v
              : in.op == Op::kVfredmax ? maximum_number(sum, v)
                                       : minimum_number(sum, v);
      }
      elem(in.vd, 0, ew) = fp_result(sum, ew);
      return;
    }
    case Op::kVfslide1up:
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (active(i)) elem(in.vd, i, ew) = i == 0 ? fp_bits(fs, ew) : elem(in.vs2, i - 1, ew);
      }
      return;
    case Op::kVfslide1down:
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (active(i)) {
          elem(in.vd, i, ew) = i + 1 < vl_ ? elem(in.vs2, i + 1, ew) : fp_bits(fs, ew);
        }
      }
      return;
    case Op::kVslideupVX:
      for (std::uint64_t i = k; i < vl_; ++i) {
        if (active(i)) elem(in.vd, i, ew) = elem(in.vs2, i - k, ew);
      }
      return;
    case Op::kVslidedownVX:
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (active(i)) elem(in.vd, i, ew) = i + k < vlmax_now ? elem(in.vs2, i + k, ew) : 0;
      }
      return;
    case Op::kVrgatherVV:
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (!active(i)) continue;
        const std::uint64_t idx = elem(in.vs1, i, ew);
        elem(in.vd, i, ew) = idx < vlmax_now ? elem(in.vs2, idx, ew) : 0;
      }
      return;
    case Op::kVcompressVM: {
      std::uint64_t out = 0;
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (bit(in.vs1, i) != 0) elem(in.vd, out++, ew) = elem(in.vs2, i, ew);
      }
      return;
    }
    case Op::kViotaM: {
      std::uint64_t count = 0;
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (active(i)) elem(in.vd, i, ew) = count & ones(ew);
        count += bit(in.vs2, i);
      }
      return;
    }
    case Op::kVmsbfM:
    case Op::kVmsifM:
    case Op::kVmsofM: {
      std::uint64_t first = vl_;
      for (std::uint64_t i = 0; i < vl_ && first == vl_; ++i) {
        if (bit(in.vs2, i) != 0) first = i;
      }
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (!active(i)) continue;
        const bool out = in.op == Op::kVmsbfM   ? i < first
                         : in.op == Op::kVmsifM ? i <= first
                                                : i == first;
        bit(in.vd, i) = out ? 1 : 0;
      }
      return;
    }
    case Op::kVmandMM:
    case Op::kVmorMM:
    case Op::kVmxorMM:
    case Op::kVmandnMM:
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (!active(i)) continue;
        const bool a = bit(in.vs2, i) != 0;
        const bool b = bit(in.vs1, i) != 0;
        bit(in.vd, i) = in.op == Op::kVmandMM   ? a && b
                        : in.op == Op::kVmorMM  ? a || b
                        : in.op == Op::kVmxorMM ? a != b
                                                : a && !b;
      }
      return;
    case Op::kVmfeqVV:
    case Op::kVmfltVV:
    case Op::kVmfleVV:
    case Op::kVmfltVF:
    case Op::kVmfleVF:
    case Op::kVmfgtVF:
    case Op::kVmfgeVF:
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (!active(i)) continue;
        const double a = fp_value(elem(in.vs2, i, ew), ew);
        const double b = spec.reads_vs1 ? fp_value(elem(in.vs1, i, ew), ew) : fs;
        bool out = false;
        switch (in.op) {
          case Op::kVmfeqVV: out = a == b; break;
          case Op::kVmfltVV:
          case Op::kVmfltVF: out = a < b; break;
          case Op::kVmfleVV:
          case Op::kVmfleVF: out = a <= b; break;
          case Op::kVmfgtVF: out = a > b; break;
          default: out = a >= b; break;
        }
        bit(in.vd, i) = out ? 1 : 0;
      }
      return;
    default: {
      const bool merge = in.op == Op::kVmergeVVM || in.op == Op::kVfmergeVFM;
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (merge || active(i)) elem(in.vd, i, ew) = element(in, i, ew, fs) & ones(ew);
      }
      return;
    }
  }
}

// ---- the case generator --------------------------------------------------------

enum class View : std::uint8_t { kNone, kData, kWide, kMask };
enum class Fill : std::uint8_t { kBits, kFp, kSmallFp, kSpecialFp, kIndex };

struct Roles {
  View vd = View::kNone;
  View vs2 = View::kNone;
  View vs1 = View::kNone;
};

Roles roles_of(Op op) {
  const OpSpec& s = op_spec(op);
  const bool mask_logic = s.unit == Unit::kMasku && s.writes_mask && !s.reads_mask_src;
  Roles r;
  if (s.writes_mask) {
    r.vd = View::kMask;
  } else if (s.widens) {
    r.vd = View::kWide;
  } else if (s.writes_vd || s.reads_vd) {
    r.vd = View::kData;
  }
  if (s.reads_vs2) {
    const bool mask = mask_logic || (s.reads_mask_src && op != Op::kVcompressVM);
    r.vs2 = mask ? View::kMask : View::kData;
  }
  if (s.reads_vs1) {
    r.vs1 = mask_logic || op == Op::kVcompressVM ? View::kMask : View::kData;
  }
  return r;
}

/// Ops whose elements are FP values (SEW 16, 32 or 64 only).
bool fp_op(Op op) {
  const OpSpec& s = op_spec(op);
  return s.unit == Unit::kFpu || (s.mnemonic.starts_with("vf") && op != Op::kVfirstM);
}

/// Destination may coincide with a same-view source group.
bool in_place_ok(Op op) {
  const OpSpec& s = op_spec(op);
  return op != Op::kVfslide1up && op != Op::kVslideupVX && !s.is_gather &&
         !s.widens && !s.reads_mask_src;
}

struct Case {
  Op op{};
  Sew sew{};
  Lmul lmul{};
  bool masked = false;
  std::uint64_t vl = 0;
  bool in_place = false;
  std::uint64_t addr = 0;
  std::int64_t stride = 0;
  /// FP operands drawn from Fill::kSpecialFp, and a -0.0 scalar operand,
  /// so signed-zero ties and NaN/infinity operands actually occur.
  bool specials = false;

  [[nodiscard]] std::string describe(const char* machine) const {
    std::ostringstream os;
    os << machine << " " << op_spec(op).mnemonic << " " << vtype_name({sew, lmul})
       << " vl=" << vl << (masked ? " masked" : "") << (in_place ? " in-place" : "")
       << " addr=" << addr << " stride=" << stride << (specials ? " specials" : "");
    return os.str();
  }
};

class Harness {
 public:
  explicit Harness(MachineConfig cfg)
      : cfg_(cfg),
        vrf_(cfg.topo, cfg.effective_vlen(), cfg.mask_layout()),
        mem_(kMemBytes),
        ref_(cfg.effective_vlen()),
        rng_(0x5eed) {
    pattern_.resize(kMemBytes);
    for (auto& b : pattern_) b = static_cast<std::uint8_t>(rng_.next_u64());
  }

  /// Runs one case; returns false (after reporting) on a mismatch.
  bool run(const Case& c, const char* machine);
  [[nodiscard]] std::uint64_t cases() const { return cases_; }

 private:
  void fill_data(unsigned reg, unsigned nregs, unsigned ew, Fill fill);
  void fill_mask(unsigned reg);
  [[nodiscard]] std::string diff(const Case& c);
  void resync();

  MachineConfig cfg_;
  Vrf vrf_;
  MainMemory mem_;
  RefMachine ref_;
  Rng rng_;
  std::vector<std::uint8_t> pattern_;
  std::uint64_t cases_ = 0;
};

void Harness::fill_data(unsigned reg, unsigned nregs, unsigned ew, Fill fill) {
  const std::uint64_t per_reg = ref_.vlen() / 8 / ew;
  for (unsigned r = reg; r < reg + nregs; ++r) {
    RefMachine::Reg value{ew, std::vector<std::uint64_t>(per_reg)};
    std::uint8_t* img = vrf_.span(r, per_reg, ew);
    for (std::uint64_t j = 0; j < per_reg; ++j) {
      std::uint64_t bits = rng_.next_u64();
      switch (fill) {
        case Fill::kBits: break;
        case Fill::kFp:  // half plain values, half arbitrary encodings
          if ((bits & 1) != 0) bits = fp_bits(rng_.next_double(-4.0, 4.0), ew);
          break;
        case Fill::kSmallFp: bits = fp_bits(rng_.next_double(-3e4, 3e4), ew); break;
        case Fill::kSpecialFp: {  // half signed zeros, infinities and NaNs
          constexpr double kInf = std::numeric_limits<double>::infinity();
          constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
          constexpr double kSpecial[] = {0.0, -0.0, kInf, -kInf, kNaN, -kNaN, 1.0, -1.0};
          bits = (bits & 1) != 0 ? fp_bits(kSpecial[(bits >> 1) % 8], ew)
                                 : fp_bits(rng_.next_double(-4.0, 4.0), ew);
          break;
        }
        case Fill::kIndex: bits %= 0x4000; break;
      }
      bits &= ones(ew);
      value.v[j] = bits;
      std::memcpy(img + j * ew, &bits, ew);
    }
    ref_.set_reg(r, std::move(value));
  }
}

void Harness::fill_mask(unsigned reg) {
  RefMachine::Reg value{0, std::vector<std::uint64_t>(ref_.vlen())};
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  for (std::uint64_t i = 0; i < ref_.vlen(); ++i) {
    if (i % 64 == 0) {
      a = rng_.next_u64();
      b = rng_.next_u64();
    }
    value.v[i] = ((a | b) >> (i % 64)) & 1;  // 3 in 4 bits set
    vrf_.set_mask_bit(reg, i, value.v[i] != 0);
  }
  ref_.set_reg(reg, std::move(value));
}

std::string Harness::diff(const Case& c) {
  std::ostringstream os;
  for (unsigned r = 0; r < kNumVregs; ++r) {
    const RefMachine::Reg& want = ref_.reg(r);
    if (want.ew == 0) {
      for (std::uint64_t i = 0; i < want.v.size(); ++i) {
        if (vrf_.mask_bit(r, i) != (want.v[i] != 0)) {
          os << " v" << r << " mask bit " << i << " differs;";
          break;
        }
      }
      continue;
    }
    const std::uint8_t* img = vrf_.span(r, want.v.size(), want.ew);
    for (std::uint64_t j = 0; j < want.v.size(); ++j) {
      std::uint64_t got = 0;
      std::memcpy(&got, img + j * want.ew, want.ew);
      if (got == want.v[j]) continue;
      os << " v" << r << "[" << j << "] e" << 8 * want.ew << ": engine " << std::hex
         << got << " reference " << want.v[j] << std::dec << ";";
      break;
    }
  }
  const OpSpec& spec = op_spec(c.op);
  if ((spec.reads_mem || spec.writes_mem) &&
      std::memcmp(mem_.raw(0, kMemBytes), ref_.mem().data(), kMemBytes) != 0) {
    os << " memory differs;";
  }
  return os.str();
}

void Harness::resync() {
  for (unsigned r = 0; r < kNumVregs; ++r) fill_data(r, 1, 8, Fill::kBits);
}

bool Harness::run(const Case& c, const char* machine) {
  ++cases_;
  const unsigned ew = sew_bytes(c.sew);
  const unsigned g = c.lmul.group_regs();
  const Roles roles = roles_of(c.op);
  const OpSpec& spec = op_spec(c.op);
  const bool mem_op = spec.reads_mem || spec.writes_mem;

  VInstr in;
  in.op = c.op;
  in.masked = c.masked;
  in.fs = c.specials ? -0.0 : -1.375;
  in.xs = c.op == Op::kVslideupVX || c.op == Op::kVslidedownVX ? 3
          : c.op == Op::kVsllVX || c.op == Op::kVsrlVX       ? 67
                                                             : 0x9E3779B97F4A7C15LL;
  in.addr = c.addr;
  in.stride = c.stride;
  in.vd = spec.widens ? 16 : 8;
  in.vs2 = spec.widens ? 8 : 16;
  in.vs1 = 24;
  if (c.in_place) (roles.vs2 == roles.vd ? in.vs2 : in.vs1) = in.vd;

  // Initialise every register the case touches at the view it is used with.
  const auto fill = [&](unsigned reg, View view, Fill kind) {
    switch (view) {
      case View::kNone: break;
      case View::kData: fill_data(reg, g, ew, kind); break;
      case View::kWide: fill_data(reg, 2 * g, 2 * ew, Fill::kFp); break;
      case View::kMask: fill_mask(reg); break;
    }
  };
  const Fill values = c.op == Op::kVfcvtXF ? Fill::kSmallFp
                      : c.specials         ? Fill::kSpecialFp
                      : fp_op(c.op)        ? Fill::kFp
                                           : Fill::kBits;
  const bool index_src = c.op == Op::kVluxei || c.op == Op::kVsuxei;
  fill(in.vd, roles.vd, values);  // an in-place source refills it at the same view
  fill(in.vs2, roles.vs2, index_src ? Fill::kIndex : values);
  fill(in.vs1, roles.vs1, c.op == Op::kVrgatherVV ? Fill::kIndex : values);
  // No case writes v0, so one random mask serves every masked case. Its
  // bit 0 is clear, so a masked vl=1 case has no active element.
  if (ref_.reg(0).ew != 0) {
    fill_mask(0);
    ref_.reg(0).v[0] = 0;
    vrf_.set_mask_bit(0, 0, false);
  }
  if (mem_op) {
    std::memcpy(mem_.raw(0, kMemBytes), pattern_.data(), kMemBytes);
    ref_.mem() = pattern_;
  }
  ref_.acc = 0.0;
  ref_.iacc = 0;

  VInstr set;
  set.op = Op::kVsetvli;
  set.avl = c.vl;
  set.vtype = Vtype{c.sew, c.lmul};
  FunctionalEngine engine(cfg_, vrf_, mem_);
  engine.exec(set);
  ref_.exec(set);
  bool engine_threw = false;
  bool ref_threw = false;
  try {
    engine.exec(in);
  } catch (const ContractViolation&) {
    engine_threw = true;
  }
  try {
    ref_.exec(in);
  } catch (const RefFault&) {
    ref_threw = true;
  }

  std::string why = diff(c);
  if (engine_threw != ref_threw) {
    why += engine_threw ? " only the engine faulted;" : " only the reference faulted;";
  }
  if (std::bit_cast<std::uint64_t>(engine.scalar_acc()) !=
          std::bit_cast<std::uint64_t>(ref_.acc) ||
      engine.scalar_iacc() != ref_.iacc) {
    why += " scalar result differs;";
  }
  if (why.empty()) return true;
  ADD_FAILURE() << c.describe(machine) << ":" << why;
  resync();
  return false;
}

/// Every case of the matrix for `op` on one machine.
std::vector<Case> cases_for(Op op, std::uint64_t vlen) {
  const OpSpec& spec = op_spec(op);
  const Roles roles = roles_of(op);
  std::vector<Sew> sews = {Sew::k8, Sew::k16, Sew::k32, Sew::k64};
  if (spec.widens) {
    sews = {Sew::k32};
  } else if (fp_op(op)) {
    sews = {Sew::k16, Sew::k32, Sew::k64};
  }
  const bool same_view_src = (roles.vs2 != View::kNone && roles.vs2 == roles.vd) ||
                             (roles.vs1 != View::kNone && roles.vs1 == roles.vd);
  const bool can_in_place = same_view_src && in_place_ok(op);
  // FP ops run every shape a second time on special operands (vfcvt.x.f
  // excepted: converting an infinity or NaN to an integer is out of range).
  std::vector<bool> specials = {false};
  if (fp_op(op) && op != Op::kVfcvtXF) specials.push_back(true);
  std::vector<Case> out;
  for (const Sew sew : sews) {
    const auto ew = static_cast<std::int64_t>(sew_bytes(sew));
    for (std::int8_t l = -1; l <= (spec.widens ? 2 : 3); ++l) {
      const Lmul lmul{l};
      const std::uint64_t vlmax_now = vlmax(vlen, Vtype{sew, lmul});
      for (const std::uint64_t vl : {std::uint64_t{1}, vlmax_now - 1, vlmax_now}) {
        // Memory variants (addr, stride); the last of each runs off the end
        // of memory.
        std::vector<std::pair<std::uint64_t, std::int64_t>> mem = {{0, 0}};
        if (op == Op::kVle || op == Op::kVse) {
          const std::uint64_t tail = kMemBytes - vl * static_cast<std::uint64_t>(ew) / 2 - 1;
          mem = {{0x1000, 0}, {0x1003, 0}, {tail, 0}};
        } else if (op == Op::kVlse || op == Op::kVsse) {
          mem = {{0x1000, 2 * ew + 1}, {0x8000, -3 * ew}, {0x1000, 0},
                 {0x1001, ew / 2}, {0x1000, kMemBytes / 8}};
        } else if (op == Op::kVluxei || op == Op::kVsuxei) {
          mem = {{0x1000, 0}, {kMemBytes - 128, 0}};
        }
        for (const bool masked : {false, true}) {
          for (const bool in_place : {false, true}) {
            if (in_place && !can_in_place) continue;
            for (const auto& [addr, stride] : mem) {
              for (const bool special : specials) {
                out.push_back(
                    Case{op, sew, lmul, masked, vl, in_place, addr, stride, special});
              }
            }
          }
        }
      }
    }
  }
  return out;
}

void run_matrix(MachineConfig cfg, const char* machine) {
  // 256 bits per lane instead of the paper's 1024 keep the matrix fast; the
  // mapping is the same shift arithmetic at every power-of-two VLEN, and
  // each lane still holds 4 (SEW 64) to 32 (SEW 8) rows of a register.
  cfg.vlen_bits = 256 * cfg.total_lanes();
  Harness h(cfg);
  int failures = 0;
  for (std::size_t o = 1; o < kNumOps && failures < 20; ++o) {
    const auto op = static_cast<Op>(o);
    const std::vector<Case> cases = cases_for(op, cfg.effective_vlen());
    EXPECT_FALSE(cases.empty()) << op_spec(op).mnemonic;
    for (const Case& c : cases) {
      if (!h.run(c, machine) && ++failures >= 20) break;
    }
  }
  testing::Test::RecordProperty("cases", static_cast<int>(h.cases()));
}

TEST(FunctionalRef, EveryOpcodeAndShapeMatchesOnLaneLocalMasks) {
  run_matrix(MachineConfig::araxl(8), "araxl:8");
}

TEST(FunctionalRef, EveryOpcodeAndShapeMatchesOnStandardMasks) {
  run_matrix(MachineConfig::ara2(8), "ara2:8");
}

}  // namespace
}  // namespace araxl
