#include "machine/functional.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/contracts.hpp"

namespace araxl {

namespace {

// binary16 <-> binary64. All FP arithmetic in this engine runs in double;
// like the SEW=32 float cast, the narrowing conversion rounds exactly once
// on writeback (round-to-nearest-even).
double f16_to_f64(std::uint16_t h) {
  const int exp = (h >> 10) & 0x1F;
  const std::uint32_t frac = h & 0x3FF;
  double v;
  if (exp == 0x1F) {
    v = frac != 0 ? std::numeric_limits<double>::quiet_NaN()
                  : std::numeric_limits<double>::infinity();
  } else if (exp == 0) {
    v = std::ldexp(static_cast<double>(frac), -24);  // subnormal or zero
  } else {
    v = std::ldexp(static_cast<double>(frac + 1024), exp - 25);
  }
  return (h & 0x8000) != 0 ? -v : v;
}

std::uint16_t f64_to_f16(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  const auto sign = static_cast<std::uint16_t>((bits >> 48) & 0x8000);
  const int e = static_cast<int>((bits >> 52) & 0x7FF);
  const std::uint64_t mant = bits & 0xFFFFFFFFFFFFFULL;
  if (e == 0x7FF) {  // inf / NaN (NaN payloads canonicalised to quiet)
    return static_cast<std::uint16_t>(sign | 0x7C00 | (mant != 0 ? 0x200 : 0));
  }
  int he = e - 1023 + 15;
  if (he >= 31) return static_cast<std::uint16_t>(sign | 0x7C00);  // -> inf
  std::uint64_t sig = mant | (e != 0 ? (1ULL << 52) : 0);
  int shift = 42;  // 52-bit significand -> 10-bit fraction
  if (he <= 0) {   // subnormal target: shift the hidden bit into the fraction
    shift += 1 - he;
    he = 0;
  }
  if (shift >= 64) return sign;  // below half the smallest subnormal
  const std::uint64_t keep = sig >> shift;
  const std::uint64_t rem = sig & ((1ULL << shift) - 1);
  const std::uint64_t half = 1ULL << (shift - 1);
  std::uint64_t rounded = keep;
  if (rem > half || (rem == half && (keep & 1) != 0)) ++rounded;
  if (he == 0) {
    // A carry out of the fraction lands on the exponent-1 bit, which is
    // already the correct smallest-normal encoding.
    return static_cast<std::uint16_t>(sign | rounded);
  }
  // `keep` includes the hidden bit (1024). The plain addition lets a carry
  // to 2048 bump the exponent, and he==30 overflowing to 31 produces the
  // infinity encoding — both intentional.
  return static_cast<std::uint16_t>(
      sign + (static_cast<std::uint64_t>(he) << 10) + rounded - 1024);
}

/// An FP element's value; T is the SEW's raw element type.
template <typename T>
double fp_in(T bits) {
  if constexpr (sizeof(T) == 8) {
    return std::bit_cast<double>(bits);
  } else if constexpr (sizeof(T) == 4) {
    return static_cast<double>(std::bit_cast<float>(bits));
  } else if constexpr (sizeof(T) == 2) {
    return f16_to_f64(bits);
  } else {
    fail("FP operations require SEW of 16, 32 or 64");
  }
}

/// The element encoding of `v`, rounded once to the element width.
template <typename T>
T fp_out(double v) {
  if constexpr (sizeof(T) == 8) {
    return std::bit_cast<T>(v);
  } else if constexpr (sizeof(T) == 4) {
    return std::bit_cast<T>(static_cast<float>(v));
  } else if constexpr (sizeof(T) == 2) {
    return f64_to_f16(v);
  } else {
    fail("FP operations require SEW of 16, 32 or 64");
  }
}

/// The element encoding of an FP arithmetic result: like fp_out, except
/// that any NaN becomes the SEW's canonical quiet NaN, as RVV specifies,
/// whichever NaN operands produced it.
template <typename T>
T fp_result(double v) {
  if (std::isnan(v)) {
    return static_cast<T>(sizeof(T) == 8   ? 0x7FF8000000000000
                          : sizeof(T) == 4 ? 0x7FC00000
                                           : 0x7E00);
  }
  return fp_out<T>(v);
}

/// IEEE 754-2019 minimumNumber / maximumNumber, which RVV specifies for
/// vfmin/vfmax and their reductions: a NaN operand, quiet or signaling,
/// yields the other one, and -0 orders below +0. std::fmin/std::fmax
/// leave the signed-zero tie open and turn a signaling NaN into a NaN.
double min_number(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) ? b : a;
  return a < b || (a == b && std::signbit(a)) ? a : b;
}
double max_number(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) ? b : a;
  return a > b || (a == b && !std::signbit(a)) ? a : b;
}

/// `n` elements of type T from `vreg` on, as one element-order span.
template <typename T>
T* elems(Vrf& vrf, unsigned vreg, std::uint64_t n) {
  return reinterpret_cast<T*>(vrf.span(vreg, n, sizeof(T)));
}

/// Calls f(i) for every active element i in [begin, end) (m == nullptr:
/// all active).
template <typename F>
void for_active(const std::uint8_t* m, std::uint64_t begin, std::uint64_t end, F f) {
  for (std::uint64_t i = begin; i < end; ++i) {
    if (m == nullptr || m[i] != 0) f(i);
  }
}

using W = std::uint64_t;

}  // namespace

FunctionalEngine::FunctionalEngine(const MachineConfig& cfg, Vrf& vrf,
                                   MainMemory& mem)
    : cfg_(cfg), vrf_(vrf), mem_(mem) {}

const std::uint8_t* FunctionalEngine::unpack_v0() {
  v0_.resize(vl_);
  for (std::uint64_t i = 0; i < vl_; ++i) v0_[i] = vrf_.mask_bit(0, i) ? 1 : 0;
  return v0_.data();
}

void FunctionalEngine::exec(const VInstr& in) {
  if (in.op == Op::kVsetvli) {
    vtype_ = in.vtype;
    vl_ = vsetvl_result(cfg_.effective_vlen(), in.avl, in.vtype);
    return;
  }
  switch (sew_bytes(vtype_.sew)) {
    case 1: exec_sew<std::uint8_t>(in); break;
    case 2: exec_sew<std::uint16_t>(in); break;
    case 4: exec_sew<std::uint32_t>(in); break;
    default: exec_sew<std::uint64_t>(in); break;
  }
}

template <typename T>
void FunctionalEngine::exec_sew(const VInstr& in) {
  if (in.op == Op::kVfmvFS) {  // reads element 0 regardless of vl
    scalar_acc_ = fp_in(static_cast<T>(vrf_.read_elem(in.vs2, 0, sizeof(T))));
    return;
  }
  // Merges select through v0 on every element, masked or not.
  const bool merge = in.op == Op::kVmergeVVM || in.op == Op::kVfmergeVFM;
  const std::uint8_t* m = in.masked || merge ? unpack_v0() : nullptr;
  if (in.op == Op::kVcpopM || in.op == Op::kVfirstM) {
    exec_mask_population<T>(in, m);  // vl == 0 yields count 0 / index -1
    return;
  }
  if (vl_ == 0) return;
  if (in.op == Op::kVfmvSF) {
    if (m == nullptr || m[0] != 0) {
      vrf_.write_elem(in.vd, 0, sizeof(T), fp_out<T>(scalar_of(in)));
    }
    return;
  }
  const OpSpec& spec = op_spec(in.op);
  if (spec.reads_mem || spec.writes_mem) {
    exec_memory<T>(in, m);
  } else if (spec.widens) {
    exec_widening(in, m);
  } else if (spec.is_gather) {
    exec_gather<T>(in, m);
  } else if (spec.reads_mask_src) {  // viota, vmsbf, vmsif, vmsof
    exec_mask_population<T>(in, m);
  } else if (spec.is_reduction) {
    exec_reduction<T>(in, m);
  } else if (spec.is_slide) {
    exec_slide<T>(in, m);
  } else if (spec.writes_mask || spec.unit == Unit::kMasku) {
    exec_mask<T>(in, m);
  } else {
    exec_elementwise<T>(in, m);
  }
}

template <typename T>
void FunctionalEngine::exec_memory(const VInstr& in, const std::uint8_t* m) {
  constexpr W ew = sizeof(T);
  const W n = vl_;
  const bool load = op_spec(in.op).reads_mem;
  const bool strided = in.op == Op::kVlse || in.op == Op::kVsse;
  const auto stride = static_cast<W>(strided ? in.stride : std::int64_t{ew});
  const T* index = in.op == Op::kVluxei || in.op == Op::kVsuxei
                       ? elems<T>(vrf_, in.vs2, n)
                       : nullptr;
  T* v = elems<T>(vrf_, in.vd, n);
  // Addresses wrap like the hardware's 64-bit adder.
  const auto addr = [&](W i) {
    return index != nullptr ? in.addr + index[i] : in.addr + i * stride;
  };

  // Validation: the first active element whose access leaves memory. When
  // the hull of a (strided) address walk fits, no element can.
  W valid = n;
  bool fits = false;
  if (index == nullptr) {
    const __int128 first = in.addr;
    const __int128 last =
        first + static_cast<__int128>(n - 1) * static_cast<std::int64_t>(stride);
    fits = std::min(first, last) >= 0 &&
           std::max(first, last) + ew <= static_cast<__int128>(mem_.size());
  }
  if (!fits) {
    for (W i = 0; i < n; ++i) {
      if ((m == nullptr || m[i] != 0) && !mem_.in_bounds(addr(i), ew)) {
        valid = i;
        break;
      }
    }
  }

  // Elements before the fault are applied, in ascending order, so that an
  // overlapping store (stride 0 or |stride| < ew) ends with the last one.
  std::uint8_t* ram = mem_.raw(0, mem_.size());
  if (m == nullptr && index == nullptr && stride == ew) {
    if (valid > 0) {
      std::uint8_t* p = ram + in.addr;
      load ? std::memcpy(v, p, valid * ew) : std::memcpy(p, v, valid * ew);
    }
  } else {
    for_active(m, 0, valid, [&](W i) {
      std::uint8_t* p = ram + addr(i);
      load ? std::memcpy(v + i, p, ew) : std::memcpy(p, v + i, ew);
    });
  }
  if (valid < n) {
    static_cast<void>(mem_.raw(addr(valid), ew));  // raises the bounds error
  }
}

template <typename T>
void FunctionalEngine::exec_elementwise(const VInstr& in, const std::uint8_t* m) {
  using S = std::make_signed_t<T>;
  const OpSpec& spec = op_spec(in.op);
  const W n = vl_;
  T* d = elems<T>(vrf_, in.vd, n);
  const T* a = spec.reads_vs2 ? elems<T>(vrf_, in.vs2, n) : d;
  const T* b = spec.reads_vs1 ? elems<T>(vrf_, in.vs1, n) : d;
  // ProgramBuilder aligns same-width groups to LMUL, so a source group and
  // the destination coincide or are disjoint: the in-place loop is exact.
  debug_check((a == d || a + n <= d || d + n <= a) &&
                  (b == d || b + n <= d || d + n <= b),
              "source group partially overlaps the destination");
  const double fs = scalar_of(in);
  const auto xs = static_cast<T>(in.xs);
  const auto sh = static_cast<unsigned>(static_cast<W>(in.xs) % (8 * sizeof(T)));

  // vd[i] = f(vs2[i], vs1[i], vd[i], i) for each element `active` selects.
  const auto run = [&](const std::uint8_t* active, auto f) {
    for_active(active, 0, n, [=](W i) { d[i] = f(a[i], b[i], d[i], i); });
  };
  // FP arithmetic on decoded operands, rounded once on the write.
  const auto fp = [&](auto f) {
    run(m, [f](T x, T y, T z, W) {
      return fp_result<T>(f(fp_in(x), fp_in(y), fp_in(z)));
    });
  };
  // Sign injection works on the raw encodings and never canonicalizes.
  constexpr T kSign = T(T{1} << (8 * sizeof(T) - 1));
  switch (in.op) {
    case Op::kVfaddVV: return fp([](double x, double y, double) { return x + y; });
    case Op::kVfaddVF: return fp([fs](double x, double, double) { return x + fs; });
    case Op::kVfsubVV: return fp([](double x, double y, double) { return x - y; });
    case Op::kVfsubVF: return fp([fs](double x, double, double) { return x - fs; });
    case Op::kVfrsubVF: return fp([fs](double x, double, double) { return fs - x; });
    case Op::kVfmulVV: return fp([](double x, double y, double) { return x * y; });
    case Op::kVfmulVF: return fp([fs](double x, double, double) { return x * fs; });
    case Op::kVfdivVV: return fp([](double x, double y, double) { return x / y; });
    case Op::kVfdivVF: return fp([fs](double x, double, double) { return x / fs; });
    case Op::kVfrdivVF: return fp([fs](double x, double, double) { return fs / x; });
    case Op::kVfmaccVV:
      return fp([](double x, double y, double z) { return std::fma(y, x, z); });
    case Op::kVfmaccVF:
      return fp([fs](double x, double, double z) { return std::fma(fs, x, z); });
    case Op::kVfnmsacVV:
      return fp([](double x, double y, double z) { return std::fma(-y, x, z); });
    case Op::kVfnmsacVF:
      return fp([fs](double x, double, double z) { return std::fma(-fs, x, z); });
    case Op::kVfmaddVF:
      return fp([fs](double x, double, double z) { return std::fma(z, fs, x); });
    case Op::kVfmaddVV:
      return fp([](double x, double y, double z) { return std::fma(z, y, x); });
    case Op::kVfmsacVF:
      return fp([fs](double x, double, double z) { return std::fma(fs, x, -z); });
    case Op::kVfminVV:
      return fp([](double x, double y, double) { return min_number(x, y); });
    case Op::kVfminVF:
      return fp([fs](double x, double, double) { return min_number(x, fs); });
    case Op::kVfmaxVV:
      return fp([](double x, double y, double) { return max_number(x, y); });
    case Op::kVfmaxVF:
      return fp([fs](double x, double, double) { return max_number(x, fs); });
    case Op::kVfsgnjVV:
      return run(m, [](T x, T y, T, W) { return T((x & ~kSign) | (y & kSign)); });
    case Op::kVfsgnjnVV:
      return run(m, [](T x, T y, T, W) { return T((x & ~kSign) | (~y & kSign)); });
    case Op::kVfsqrtV: return fp([](double x, double, double) { return std::sqrt(x); });
    case Op::kVfcvtXF:  // round to nearest even, integer result
      return run(m, [](T x, T, T, W) {
        return static_cast<T>(
            static_cast<W>(static_cast<std::int64_t>(std::nearbyint(fp_in(x)))));
      });
    case Op::kVfcvtFX:  // the element is a signed SEW-bit integer
      return run(m, [](T x, T, T, W) { return fp_out<T>(static_cast<double>(S(x))); });
    case Op::kVfmvVF: return run(m, [fs](T, T, T, W) { return fp_out<T>(fs); });
    case Op::kVfmergeVFM:
      return run(nullptr, [m, fs](T x, T, T, W i) {
        return m[i] != 0 ? fp_out<T>(fs) : x;
      });
    case Op::kVmergeVVM:
      return run(nullptr, [m](T x, T y, T, W i) { return m[i] != 0 ? y : x; });
    case Op::kVaddVV: return run(m, [](T x, T y, T, W) { return T(W{x} + y); });
    case Op::kVaddVX: return run(m, [xs](T x, T, T, W) { return T(W{x} + xs); });
    case Op::kVsubVV: return run(m, [](T x, T y, T, W) { return T(W{x} - y); });
    case Op::kVsllVX: return run(m, [sh](T x, T, T, W) { return T(W{x} << sh); });
    case Op::kVsrlVX: return run(m, [sh](T x, T, T, W) { return T(x >> sh); });
    case Op::kVandVX: return run(m, [xs](T x, T, T, W) { return T(x & xs); });
    case Op::kVmvVX: return run(m, [xs](T, T, T, W) { return xs; });
    case Op::kVmvVV: return run(m, [](T, T y, T, W) { return y; });
    case Op::kVidV: return run(m, [](T, T, T, W i) { return T(i); });
    case Op::kVmulVV: return run(m, [](T x, T y, T, W) { return T(W{x} * y); });
    case Op::kVmulVX: return run(m, [xs](T x, T, T, W) { return T(W{x} * xs); });
    case Op::kVmaccVV:
      return run(m, [](T x, T y, T z, W) { return T(z + W{y} * x); });
    case Op::kVrsubVX: return run(m, [xs](T x, T, T, W) { return T(W{xs} - x); });
    case Op::kVmaxVV:
      return run(m, [](T x, T y, T, W) { return T(std::max(S(x), S(y))); });
    case Op::kVminVV:
      return run(m, [](T x, T y, T, W) { return T(std::min(S(x), S(y))); });
    default: fail("unhandled element-wise op");
  }
}

void FunctionalEngine::exec_widening(const VInstr& in, const std::uint8_t* m) {
  check(vtype_.sew == Sew::k32, "widening requires SEW=32");
  const W n = vl_;
  const unsigned g = vtype_.lmul.group_regs();
  // ProgramBuilder keeps the 2*LMUL destination group disjoint from both
  // sources, so the two widths' spans never share a register.
  debug_check((in.vd + 2 * g <= in.vs2 || in.vs2 + g <= in.vd) &&
                  (in.vd + 2 * g <= in.vs1 || in.vs1 + g <= in.vd),
              "widening destination overlaps a source group");
  W* d = elems<W>(vrf_, in.vd, n);
  const auto* a = elems<std::uint32_t>(vrf_, in.vs2, n);
  const auto* b = elems<std::uint32_t>(vrf_, in.vs1, n);
  const auto run = [&](auto f) {
    for_active(m, 0, n, [&](W i) {
      d[i] = fp_result<W>(f(fp_in(a[i]), fp_in(b[i]), fp_in(d[i])));
    });
  };
  switch (in.op) {
    case Op::kVfwaddVV: return run([](double x, double y, double) { return x + y; });
    case Op::kVfwsubVV: return run([](double x, double y, double) { return x - y; });
    case Op::kVfwmulVV: return run([](double x, double y, double) { return x * y; });
    case Op::kVfwmaccVV:
      return run([](double x, double y, double z) { return std::fma(y, x, z); });
    default: fail("unhandled widening op");
  }
}

template <typename T>
void FunctionalEngine::exec_reduction(const VInstr& in, const std::uint8_t* m) {
  double acc = fp_in(static_cast<T>(vrf_.read_elem(in.vs1, 0, sizeof(T))));
  const T* v = elems<T>(vrf_, in.vs2, vl_);
  const auto reduce = [&](auto f) {
    for_active(m, 0, vl_, [&](W i) { acc = f(acc, fp_in(v[i])); });
  };
  switch (in.op) {
    case Op::kVfredusum: reduce([](double s, double x) { return s + x; }); break;
    case Op::kVfredmax: reduce(max_number); break;
    case Op::kVfredmin: reduce(min_number); break;
    default: fail("unhandled reduction");
  }
  vrf_.write_elem(in.vd, 0, sizeof(T), fp_result<T>(acc));
}

template <typename T>
void FunctionalEngine::exec_slide(const VInstr& in, const std::uint8_t* m) {
  const W n = vl_;
  const W vlmax_now = vlmax(cfg_.effective_vlen(), vtype_);
  const auto k = static_cast<W>(in.xs);
  T* d = elems<T>(vrf_, in.vd, n);
  const T* s = elems<T>(vrf_, in.vs2, in.op == Op::kVslidedownVX ? vlmax_now : n);
  // Slides move raw element bits. ProgramBuilder keeps an up-slide's
  // destination disjoint from its source, and a down-slide reads ahead of
  // its writes, so ascending order is exact in place.
  debug_check((in.op != Op::kVfslide1up && in.op != Op::kVslideupVX) ||
                  d + n <= s || s + n <= d,
              "up-slide destination overlaps its source");
  switch (in.op) {
    case Op::kVfslide1up:  // element 0 takes the scalar
      if (m == nullptr || m[0] != 0) d[0] = fp_out<T>(scalar_of(in));
      return for_active(m, 1, n, [&](W i) { d[i] = s[i - 1]; });
    case Op::kVfslide1down:  // element vl-1 takes the scalar
      for_active(m, 0, n - 1, [&](W i) { d[i] = s[i + 1]; });
      if (m == nullptr || m[n - 1] != 0) d[n - 1] = fp_out<T>(scalar_of(in));
      return;
    case Op::kVslideupVX:  // elements below k stay undisturbed
      return for_active(m, std::min(k, n), n, [&](W i) { d[i] = s[i - k]; });
    case Op::kVslidedownVX:  // zero past VLMAX
      return for_active(m, 0, n, [&](W i) { d[i] = i + k < vlmax_now ? s[i + k] : 0; });
    default: fail("unhandled slide");
  }
}

template <typename T>
void FunctionalEngine::exec_mask(const VInstr& in, const std::uint8_t* m) {
  const auto set = [&](auto bit) {
    for_active(m, 0, vl_, [&](W i) { vrf_.set_mask_bit(in.vd, i, bit(i)); });
  };
  const auto mm = [&](auto f) {
    set([&](W i) { return f(vrf_.mask_bit(in.vs2, i), vrf_.mask_bit(in.vs1, i)); });
  };
  switch (in.op) {
    case Op::kVmandMM: return mm([](bool x, bool y) { return x && y; });
    case Op::kVmorMM: return mm([](bool x, bool y) { return x || y; });
    case Op::kVmxorMM: return mm([](bool x, bool y) { return x != y; });
    case Op::kVmandnMM: return mm([](bool x, bool y) { return x && !y; });
    default: break;
  }
  const T* a = elems<T>(vrf_, in.vs2, vl_);
  const T* b = op_spec(in.op).reads_vs1 ? elems<T>(vrf_, in.vs1, vl_) : a;
  const double fs = scalar_of(in);
  const auto cmp = [&](auto f) {
    set([&](W i) { return f(fp_in(a[i]), fp_in(b[i])); });
  };
  switch (in.op) {
    case Op::kVmfeqVV: return cmp([](double x, double y) { return x == y; });
    case Op::kVmfltVV: return cmp([](double x, double y) { return x < y; });
    case Op::kVmfleVV: return cmp([](double x, double y) { return x <= y; });
    case Op::kVmfltVF: return cmp([fs](double x, double) { return x < fs; });
    case Op::kVmfleVF: return cmp([fs](double x, double) { return x <= fs; });
    case Op::kVmfgtVF: return cmp([fs](double x, double) { return x > fs; });
    case Op::kVmfgeVF: return cmp([fs](double x, double) { return x >= fs; });
    default: fail("unhandled mask op");
  }
}

template <typename T>
void FunctionalEngine::exec_gather(const VInstr& in, const std::uint8_t* m) {
  const W n = vl_;
  T* d = elems<T>(vrf_, in.vd, n);
  if (in.op == Op::kVrgatherVV) {
    const W vlmax_now = vlmax(cfg_.effective_vlen(), vtype_);
    const T* s = elems<T>(vrf_, in.vs2, vlmax_now);
    const T* idx = elems<T>(vrf_, in.vs1, n);
    return for_active(m, 0, n, [&](W i) { d[i] = idx[i] < vlmax_now ? s[idx[i]] : 0; });
  }
  // vcompress.vm: pack the elements mask vs1 selects; vd's tail is
  // undisturbed.
  const T* s = elems<T>(vrf_, in.vs2, n);
  W k = 0;
  for (W i = 0; i < n; ++i) {
    if (vrf_.mask_bit(in.vs1, i)) d[k++] = s[i];
  }
}

template <typename T>
void FunctionalEngine::exec_mask_population(const VInstr& in,
                                            const std::uint8_t* m) {
  const W n = vl_;
  const auto bit = [&](W i) { return vrf_.mask_bit(in.vs2, i); };
  switch (in.op) {
    case Op::kVcpopM: {
      std::int64_t count = 0;
      for_active(m, 0, n, [&](W i) { count += bit(i) ? 1 : 0; });
      scalar_iacc_ = count;
      scalar_acc_ = static_cast<double>(count);
      return;
    }
    case Op::kVfirstM: {
      std::int64_t first = -1;
      for (W i = 0; i < n && first < 0; ++i) {
        if ((m == nullptr || m[i] != 0) && bit(i)) first = static_cast<std::int64_t>(i);
      }
      scalar_iacc_ = first;
      scalar_acc_ = static_cast<double>(first);
      return;
    }
    case Op::kViotaM: {
      T* d = elems<T>(vrf_, in.vd, n);
      W count = 0;
      for (W i = 0; i < n; ++i) {
        if (m == nullptr || m[i] != 0) d[i] = static_cast<T>(count);
        if (bit(i)) ++count;
      }
      return;
    }
    case Op::kVmsbfM:
    case Op::kVmsifM:
    case Op::kVmsofM: {
      // msbf/msif set the bits before the first set source bit, msif/msof
      // the first one itself; every later bit is cleared.
      bool seen = false;
      for (W i = 0; i < n; ++i) {
        const bool b = bit(i);
        const bool out = !seen && (b ? in.op != Op::kVmsbfM : in.op != Op::kVmsofM);
        seen = seen || b;
        if (m == nullptr || m[i] != 0) vrf_.set_mask_bit(in.vd, i, out);
      }
      return;
    }
    default: fail("unhandled mask-population op");
  }
}

}  // namespace araxl
