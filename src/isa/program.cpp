#include "isa/program.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/bits.hpp"
#include "common/contracts.hpp"

namespace araxl {

ProgOp ProgramLoop::op(std::uint64_t it, std::size_t pos) const {
  const BodyOp& b = body[pos];
  ProgOp out = b.op;
  if (auto* in = std::get_if<VInstr>(&out)) {
    in->addr += it * static_cast<std::uint64_t>(b.addr_step);
    in->avl += it * static_cast<std::uint64_t>(b.avl_step);
    if (b.fs_col != kConstFs) in->fs = fs[b.fs_col + it];
  }
  return out;
}

ProgOp Program::op(std::size_t i) const {
  // The last loop that starts at or before i.
  const auto next = std::upper_bound(
      loops_.begin(), loops_.end(), i,
      [](std::size_t x, const ProgramLoop& l) { return x < l.start; });
  if (next == loops_.begin()) return straight_[i];
  const ProgramLoop& l = *(next - 1);
  const std::size_t k = i - l.start;
  if (k < l.size()) return l.op(k / l.body.size(), k % l.body.size());
  return straight_[l.straight_before + (k - l.size())];
}

std::size_t Program::vinstr_count() const {
  const auto is_v = [](const ProgOp& op) { return std::holds_alternative<VInstr>(op); };
  std::size_t n = 0;
  for (const ProgOp& op : straight_) n += is_v(op) ? 1 : 0;
  for (const ProgramLoop& l : loops_) {
    for (const ProgramLoop::BodyOp& b : l.body) n += is_v(b.op) ? l.count : 0;
  }
  return n;
}

std::size_t Program::scalar_op_count() const { return size() - vinstr_count(); }

OpKey op_key(const ProgOp& op, std::uint64_t vlen_bits) {
  OpKey k;
  if (const auto* s = std::get_if<ScalarOp>(&op)) {
    k.tag = 0;
    k.op = static_cast<std::uint32_t>(s->kind);
    k.value = s->count;
    return k;
  }
  const VInstr& in = std::get<VInstr>(op);
  k.tag = 1;
  k.op = static_cast<std::uint32_t>(in.op);
  k.regs = static_cast<std::uint32_t>(in.vd) |
           (static_cast<std::uint32_t>(in.vs1) << 8) |
           (static_cast<std::uint32_t>(in.vs2) << 16) |
           (static_cast<std::uint32_t>(in.masked ? 1 : 0) << 24);
  if (in.op == Op::kVsetvli) {
    k.vtype = static_cast<std::uint32_t>(sew_bits(in.vtype.sew)) |
              (static_cast<std::uint32_t>(in.vtype.lmul.log2 + 8) << 16);
    k.value = vsetvl_result(vlen_bits, in.avl, in.vtype);
  }
  k.xs = static_cast<std::uint64_t>(in.xs);
  k.stride = static_cast<std::uint64_t>(in.stride);
  return k;
}

std::size_t phase_super_period(const ProgramLoop& loop, std::uint64_t bus_bytes) {
  const auto bus = static_cast<std::int64_t>(bus_bytes);
  std::size_t m = 1;
  for (const ProgramLoop::BodyOp& b : loop.body) {
    const auto* in = std::get_if<VInstr>(&b.op);
    if (in == nullptr || (in->op != Op::kVle && in->op != Op::kVse)) continue;
    // Phase step per iteration, reduced from the signed step so a
    // descending walk and a non-power-of-two bus both come out right.
    const std::int64_t step = (b.addr_step % bus + bus) % bus;
    m = std::lcm(m, static_cast<std::size_t>(bus / std::gcd(step, bus)));
    if (m * loop.body.size() > loop.size()) break;
  }
  return m;
}

ProgramBuilder::ProgramBuilder(std::uint64_t vlen_bits, std::string name)
    : vlen_bits_(vlen_bits) {
  check(is_pow2(vlen_bits) && vlen_bits >= 64 && vlen_bits <= kMaxVlenBits,
        "VLEN must be a power of two in [64, 65536]");
  prog_.name = std::move(name);
}

// ---- loops ------------------------------------------------------------------

void ProgramBuilder::begin_loop(std::uint64_t count) {
  check(!in_loop_, "loops may not nest");
  in_loop_ = true;
  ProgramLoop l;
  l.start = prog_.size_;
  l.count = count;
  l.straight_before = prog_.straight_.size();
  prog_.loops_.push_back(std::move(l));
}

void ProgramBuilder::next_iteration(std::uint64_t it) {
  const ProgramLoop& l = prog_.loops_.back();
  check(it <= 1 || loop_pos_ == l.body.size(),
        "a loop iteration emitted fewer ops than iteration 0");
  loop_it_ = it;
  loop_pos_ = 0;
  validate_ = it < 2;
}

void ProgramBuilder::end_loop() {
  ProgramLoop& l = prog_.loops_.back();
  check(l.count <= 1 || loop_pos_ == l.body.size(),
        "a loop iteration emitted fewer ops than iteration 0");
  in_loop_ = false;
  validate_ = true;
  if (l.size() == 0) {
    prog_.loops_.pop_back();
    return;
  }
  prog_.size_ += l.size();
}

void ProgramBuilder::emit(const ProgOp& op) {
  if (!in_loop_) {
    prog_.straight_.push_back(op);
    ++prog_.size_;
    return;
  }
  ProgramLoop& l = prog_.loops_.back();
  if (loop_it_ == 0) {
    l.body.push_back(ProgramLoop::BodyOp{op});
    return;
  }
  check(loop_pos_ < l.body.size(), "a loop iteration emitted more ops than iteration 0");
  match(l.body[loop_pos_++], op);
}

void ProgramBuilder::match(ProgramLoop::BodyOp& b, const ProgOp& op) {
  constexpr std::string_view kDiffers =
      "a loop iteration's op differs from iteration 0's beyond an address "
      "or AVL step and its scalar operand";
  if (const auto* s = std::get_if<ScalarOp>(&op)) {
    const auto* t = std::get_if<ScalarOp>(&b.op);
    check(t != nullptr && t->kind == s->kind && t->count == s->count, kDiffers);
    return;
  }
  const VInstr& in = std::get<VInstr>(op);
  const auto* t = std::get_if<VInstr>(&b.op);
  check(t != nullptr && t->op == in.op && t->vd == in.vd && t->vs1 == in.vs1 &&
            t->vs2 == in.vs2 && t->masked == in.masked && t->xs == in.xs &&
            t->fs_from_acc == in.fs_from_acc && t->stride == in.stride &&
            t->vtype == in.vtype,
        kDiffers);
  if (in.op == Op::kVsetvli) {
    check(vsetvl_result(vlen_bits_, in.avl, in.vtype) ==
              vsetvl_result(vlen_bits_, t->avl, t->vtype),
          "a loop iteration's vsetvli grants a different vl than iteration 0's");
  }
  // addr and avl: affine in the iteration, the step fixed by iteration 1.
  const auto affine = [&](std::uint64_t v0, std::uint64_t v, std::int64_t& step) {
    const std::uint64_t d = v - v0;
    if (loop_it_ == 1) {
      step = static_cast<std::int64_t>(d);
    } else {
      check(d == loop_it_ * static_cast<std::uint64_t>(step),
            "a loop iteration's address or AVL does not advance by a fixed step");
    }
  };
  affine(t->addr, in.addr, b.addr_step);
  affine(t->avl, in.avl, b.avl_step);
  // fs: a column of per-iteration values from the first iteration whose
  // bits differ from iteration 0's.
  ProgramLoop& l = prog_.loops_.back();
  if (b.fs_col == ProgramLoop::kConstFs) {
    if (std::bit_cast<std::uint64_t>(in.fs) == std::bit_cast<std::uint64_t>(t->fs)) {
      return;
    }
    b.fs_col = static_cast<std::uint32_t>(l.fs.size());
    l.fs.resize(l.fs.size() + l.count, t->fs);
  }
  l.fs[b.fs_col + loop_it_] = in.fs;
}

void ProgramBuilder::raw(const VInstr& in) { emit(in); }

void ProgramBuilder::scalar_cycles(std::uint32_t n) {
  if (n == 0) return;
  emit(ScalarOp{ScalarOp::Kind::kCycles, n});
}

void ProgramBuilder::scalar_load() { emit(ScalarOp{ScalarOp::Kind::kLoad, 1}); }

void ProgramBuilder::scalar_store() { emit(ScalarOp{ScalarOp::Kind::kStore, 1}); }

std::uint64_t ProgramBuilder::vlmax(Sew sew, Lmul lmul) const {
  return araxl::vlmax(vlen_bits_, Vtype{sew, lmul});
}

std::uint64_t ProgramBuilder::vsetvli(std::uint64_t avl, Sew sew, Lmul lmul) {
  vtype_ = Vtype{sew, lmul};
  vl_ = vsetvl_result(vlen_bits_, avl, vtype_);
  vtype_set_ = true;
  VInstr in;
  in.op = Op::kVsetvli;
  in.avl = avl;
  in.vtype = vtype_;
  emit(in);
  return vl_;
}

void ProgramBuilder::check_vreg(unsigned v, bool grouped) const {
  if (!validate_) return;
  check(v < kNumVregs, "vector register index out of range");
  if (grouped && vtype_set_) {
    const unsigned group = vtype_.lmul.group_regs();
    check(v % group == 0, "vector register not aligned to LMUL group");
  }
}

VInstr ProgramBuilder::make(Op op, unsigned vd, unsigned vs1, unsigned vs2,
                            bool masked) const {
  if (validate_) {
    check(vtype_set_, "vsetvli must precede vector instructions");
    const OpSpec& spec = op_spec(op);
    // Single-element accesses (vfmv.s.f destination, vfmv.f.s source) are
    // exempt from LMUL register-group alignment, as are mask destinations.
    const bool vd_grouped = !spec.writes_mask && op != Op::kVfmvSF;
    if (spec.writes_vd || spec.reads_vd) check_vreg(vd, vd_grouped);
    if (spec.reads_vs1) check_vreg(vs1);
    if (spec.reads_vs2) check_vreg(vs2, op != Op::kVfmvFS);
    if (masked && spec.writes_vd && !spec.writes_mask) {
      check(vd != 0, "masked op may not write v0");
    }
  }
  VInstr in;
  in.op = op;
  in.vd = static_cast<std::uint8_t>(vd);
  in.vs1 = static_cast<std::uint8_t>(vs1);
  in.vs2 = static_cast<std::uint8_t>(vs2);
  in.masked = masked;
  return in;
}

void ProgramBuilder::push(VInstr in) { emit(in); }

// ---- memory ---------------------------------------------------------------

void ProgramBuilder::vle(unsigned vd, std::uint64_t addr, bool masked) {
  VInstr in = make(Op::kVle, vd, 0, 0, masked);
  in.addr = addr;
  push(in);
}

void ProgramBuilder::vse(unsigned vs3, std::uint64_t addr, bool masked) {
  VInstr in = make(Op::kVse, vs3, 0, 0, masked);
  in.addr = addr;
  push(in);
}

void ProgramBuilder::vlse(unsigned vd, std::uint64_t addr, std::int64_t stride_bytes) {
  VInstr in = make(Op::kVlse, vd, 0, 0, false);
  in.addr = addr;
  in.stride = stride_bytes;
  push(in);
}

void ProgramBuilder::vsse(unsigned vs3, std::uint64_t addr, std::int64_t stride_bytes) {
  VInstr in = make(Op::kVsse, vs3, 0, 0, false);
  in.addr = addr;
  in.stride = stride_bytes;
  push(in);
}

void ProgramBuilder::vluxei(unsigned vd, std::uint64_t base, unsigned index_vreg) {
  VInstr in = make(Op::kVluxei, vd, 0, index_vreg, false);
  in.addr = base;
  push(in);
}

void ProgramBuilder::vsuxei(unsigned vs3, std::uint64_t base, unsigned index_vreg) {
  VInstr in = make(Op::kVsuxei, vs3, 0, index_vreg, false);
  in.addr = base;
  push(in);
}

// ---- floating point ---------------------------------------------------------

namespace {
VInstr with_fs(VInstr in, double fs) {
  in.fs = fs;
  return in;
}
VInstr with_acc(VInstr in) {
  in.fs_from_acc = true;
  return in;
}
}  // namespace

void ProgramBuilder::vfadd_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked) {
  push(make(Op::kVfaddVV, vd, vs1, vs2, masked));
}
void ProgramBuilder::vfadd_vf(unsigned vd, unsigned vs2, double fs, bool masked) {
  push(with_fs(make(Op::kVfaddVF, vd, 0, vs2, masked), fs));
}
void ProgramBuilder::vfsub_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked) {
  push(make(Op::kVfsubVV, vd, vs1, vs2, masked));
}
void ProgramBuilder::vfsub_vf(unsigned vd, unsigned vs2, double fs, bool masked) {
  push(with_fs(make(Op::kVfsubVF, vd, 0, vs2, masked), fs));
}
void ProgramBuilder::vfrsub_vf(unsigned vd, unsigned vs2, double fs, bool masked) {
  push(with_fs(make(Op::kVfrsubVF, vd, 0, vs2, masked), fs));
}
void ProgramBuilder::vfmul_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked) {
  push(make(Op::kVfmulVV, vd, vs1, vs2, masked));
}
void ProgramBuilder::vfmul_vf(unsigned vd, unsigned vs2, double fs, bool masked) {
  push(with_fs(make(Op::kVfmulVF, vd, 0, vs2, masked), fs));
}
void ProgramBuilder::vfdiv_vv(unsigned vd, unsigned vs2, unsigned vs1, bool masked) {
  push(make(Op::kVfdivVV, vd, vs1, vs2, masked));
}
void ProgramBuilder::vfdiv_vf(unsigned vd, unsigned vs2, double fs, bool masked) {
  push(with_fs(make(Op::kVfdivVF, vd, 0, vs2, masked), fs));
}
void ProgramBuilder::vfrdiv_vf(unsigned vd, unsigned vs2, double fs, bool masked) {
  push(with_fs(make(Op::kVfrdivVF, vd, 0, vs2, masked), fs));
}
void ProgramBuilder::vfmacc_vv(unsigned vd, unsigned vs1, unsigned vs2, bool masked) {
  push(make(Op::kVfmaccVV, vd, vs1, vs2, masked));
}
void ProgramBuilder::vfmacc_vf(unsigned vd, double fs, unsigned vs2, bool masked) {
  push(with_fs(make(Op::kVfmaccVF, vd, 0, vs2, masked), fs));
}
void ProgramBuilder::vfnmsac_vv(unsigned vd, unsigned vs1, unsigned vs2, bool masked) {
  push(make(Op::kVfnmsacVV, vd, vs1, vs2, masked));
}
void ProgramBuilder::vfnmsac_vf(unsigned vd, double fs, unsigned vs2, bool masked) {
  push(with_fs(make(Op::kVfnmsacVF, vd, 0, vs2, masked), fs));
}
void ProgramBuilder::vfmadd_vf(unsigned vd, double fs, unsigned vs2, bool masked) {
  push(with_fs(make(Op::kVfmaddVF, vd, 0, vs2, masked), fs));
}
void ProgramBuilder::vfmadd_vv(unsigned vd, unsigned vs1, unsigned vs2, bool masked) {
  push(make(Op::kVfmaddVV, vd, vs1, vs2, masked));
}
void ProgramBuilder::vfmsac_vf(unsigned vd, double fs, unsigned vs2, bool masked) {
  push(with_fs(make(Op::kVfmsacVF, vd, 0, vs2, masked), fs));
}
void ProgramBuilder::vfmin_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVfminVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vfmin_vf(unsigned vd, unsigned vs2, double fs) {
  push(with_fs(make(Op::kVfminVF, vd, 0, vs2, false), fs));
}
void ProgramBuilder::vfmax_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVfmaxVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vfmax_vf(unsigned vd, unsigned vs2, double fs) {
  push(with_fs(make(Op::kVfmaxVF, vd, 0, vs2, false), fs));
}
void ProgramBuilder::vfsgnj_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVfsgnjVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vfsgnjn_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVfsgnjnVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vfabs(unsigned vd, unsigned vs) {
  // |x| = max(x, -x). The usual expansion is vfsgnjx.vv vd, vs, vs, which
  // the ISA subset lacks. vfmax is IEEE 754-2019 maximumNumber, which
  // orders -0 below +0, so |-0| = +0 as vfsgnjx would give.
  push(make(Op::kVfsgnjnVV, vd, vs, vs, false));  // vd = -vs
  push(make(Op::kVfmaxVV, vd, vd, vs, false));    // vd = max(vs, -vs)
}
void ProgramBuilder::vfneg(unsigned vd, unsigned vs) {
  push(make(Op::kVfsgnjnVV, vd, vs, vs, false));
}
void ProgramBuilder::vfcvt_x_f(unsigned vd, unsigned vs2) {
  push(make(Op::kVfcvtXF, vd, 0, vs2, false));
}
void ProgramBuilder::vfcvt_f_x(unsigned vd, unsigned vs2) {
  push(make(Op::kVfcvtFX, vd, 0, vs2, false));
}

// ---- integer / moves --------------------------------------------------------

void ProgramBuilder::vadd_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVaddVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vadd_vx(unsigned vd, unsigned vs2, std::int64_t xs) {
  VInstr in = make(Op::kVaddVX, vd, 0, vs2, false);
  in.xs = xs;
  push(in);
}
void ProgramBuilder::vsub_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVsubVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vsll_vx(unsigned vd, unsigned vs2, std::int64_t shamt) {
  VInstr in = make(Op::kVsllVX, vd, 0, vs2, false);
  in.xs = shamt;
  push(in);
}
void ProgramBuilder::vsrl_vx(unsigned vd, unsigned vs2, std::int64_t shamt) {
  VInstr in = make(Op::kVsrlVX, vd, 0, vs2, false);
  in.xs = shamt;
  push(in);
}
void ProgramBuilder::vand_vx(unsigned vd, unsigned vs2, std::int64_t xs) {
  VInstr in = make(Op::kVandVX, vd, 0, vs2, false);
  in.xs = xs;
  push(in);
}
void ProgramBuilder::vmv_v_x(unsigned vd, std::int64_t xs) {
  VInstr in = make(Op::kVmvVX, vd, 0, 0, false);
  in.xs = xs;
  push(in);
}
void ProgramBuilder::vmv_v_v(unsigned vd, unsigned vs1) {
  push(make(Op::kVmvVV, vd, vs1, 0, false));
}
void ProgramBuilder::vfmv_v_f(unsigned vd, double fs) {
  push(with_fs(make(Op::kVfmvVF, vd, 0, 0, false), fs));
}
void ProgramBuilder::vfmv_f_s(unsigned vs2) {
  push(make(Op::kVfmvFS, 0, 0, vs2, false));
}
void ProgramBuilder::vfmv_s_f(unsigned vd, double fs) {
  push(with_fs(make(Op::kVfmvSF, vd, 0, 0, false), fs));
}
void ProgramBuilder::vid_v(unsigned vd) { push(make(Op::kVidV, vd, 0, 0, false)); }

void ProgramBuilder::vfmul_vf_acc(unsigned vd, unsigned vs2) {
  push(with_acc(make(Op::kVfmulVF, vd, 0, vs2, false)));
}
void ProgramBuilder::vfadd_vf_acc(unsigned vd, unsigned vs2) {
  push(with_acc(make(Op::kVfaddVF, vd, 0, vs2, false)));
}
void ProgramBuilder::vfsub_vf_acc(unsigned vd, unsigned vs2, bool masked) {
  push(with_acc(make(Op::kVfsubVF, vd, 0, vs2, masked)));
}
void ProgramBuilder::vfrdiv_vf_acc(unsigned vd, unsigned vs2) {
  push(with_acc(make(Op::kVfrdivVF, vd, 0, vs2, false)));
}
void ProgramBuilder::vfmv_v_f_acc(unsigned vd) {
  push(with_acc(make(Op::kVfmvVF, vd, 0, 0, false)));
}

// ---- reductions -------------------------------------------------------------

void ProgramBuilder::vfredusum(unsigned vd, unsigned vs2, unsigned vs1) {
  // Scalar operand register vs1 and destination hold a single element; they
  // are exempt from LMUL group alignment per the RVV spec.
  check(vtype_set_, "vsetvli must precede vector instructions");
  check_vreg(vs2);
  check(vd < kNumVregs && vs1 < kNumVregs, "vector register index out of range");
  VInstr in;
  in.op = Op::kVfredusum;
  in.vd = static_cast<std::uint8_t>(vd);
  in.vs1 = static_cast<std::uint8_t>(vs1);
  in.vs2 = static_cast<std::uint8_t>(vs2);
  push(in);
}
void ProgramBuilder::vfredmax(unsigned vd, unsigned vs2, unsigned vs1) {
  check(vtype_set_, "vsetvli must precede vector instructions");
  check_vreg(vs2);
  check(vd < kNumVregs && vs1 < kNumVregs, "vector register index out of range");
  VInstr in;
  in.op = Op::kVfredmax;
  in.vd = static_cast<std::uint8_t>(vd);
  in.vs1 = static_cast<std::uint8_t>(vs1);
  in.vs2 = static_cast<std::uint8_t>(vs2);
  push(in);
}
void ProgramBuilder::vfredmin(unsigned vd, unsigned vs2, unsigned vs1) {
  check(vtype_set_, "vsetvli must precede vector instructions");
  check_vreg(vs2);
  check(vd < kNumVregs && vs1 < kNumVregs, "vector register index out of range");
  VInstr in;
  in.op = Op::kVfredmin;
  in.vd = static_cast<std::uint8_t>(vd);
  in.vs1 = static_cast<std::uint8_t>(vs1);
  in.vs2 = static_cast<std::uint8_t>(vs2);
  push(in);
}

// ---- permutation ------------------------------------------------------------

void ProgramBuilder::vfslide1up(unsigned vd, unsigned vs2, double fs) {
  check(vd != vs2, "slide destination must not overlap source");
  push(with_fs(make(Op::kVfslide1up, vd, 0, vs2, false), fs));
}
void ProgramBuilder::vfslide1down(unsigned vd, unsigned vs2, double fs) {
  push(with_fs(make(Op::kVfslide1down, vd, 0, vs2, false), fs));
}
void ProgramBuilder::vslideup_vx(unsigned vd, unsigned vs2, std::uint64_t amount) {
  check(vd != vs2, "slide destination must not overlap source");
  VInstr in = make(Op::kVslideupVX, vd, 0, vs2, false);
  in.xs = static_cast<std::int64_t>(amount);
  push(in);
}
void ProgramBuilder::vslidedown_vx(unsigned vd, unsigned vs2, std::uint64_t amount) {
  VInstr in = make(Op::kVslidedownVX, vd, 0, vs2, false);
  in.xs = static_cast<std::int64_t>(amount);
  push(in);
}

// ---- mask -------------------------------------------------------------------

void ProgramBuilder::vmfeq_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVmfeqVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vmflt_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVmfltVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vmfle_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVmfleVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vmflt_vf(unsigned vd, unsigned vs2, double fs) {
  push(with_fs(make(Op::kVmfltVF, vd, 0, vs2, false), fs));
}
void ProgramBuilder::vmfle_vf(unsigned vd, unsigned vs2, double fs) {
  push(with_fs(make(Op::kVmfleVF, vd, 0, vs2, false), fs));
}
void ProgramBuilder::vmfgt_vf(unsigned vd, unsigned vs2, double fs) {
  push(with_fs(make(Op::kVmfgtVF, vd, 0, vs2, false), fs));
}
void ProgramBuilder::vmfge_vf(unsigned vd, unsigned vs2, double fs) {
  push(with_fs(make(Op::kVmfgeVF, vd, 0, vs2, false), fs));
}
void ProgramBuilder::vmand_mm(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVmandMM, vd, vs1, vs2, false));
}
void ProgramBuilder::vmor_mm(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVmorMM, vd, vs1, vs2, false));
}
void ProgramBuilder::vmxor_mm(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVmxorMM, vd, vs1, vs2, false));
}
void ProgramBuilder::vmandn_mm(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVmandnMM, vd, vs1, vs2, false));
}
void ProgramBuilder::vmerge_vvm(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVmergeVVM, vd, vs1, vs2, true));
}
void ProgramBuilder::vfmerge_vfm(unsigned vd, unsigned vs2, double fs) {
  push(with_fs(make(Op::kVfmergeVFM, vd, 0, vs2, true), fs));
}

// ---- widening FP --------------------------------------------------------------

namespace {
void check_no_overlap(unsigned base_a, unsigned count_a, unsigned base_b,
                      unsigned count_b) {
  check(base_a + count_a <= base_b || base_b + count_b <= base_a,
        "destination group overlaps a source group");
}
}  // namespace

VInstr ProgramBuilder::make_widening(Op op, unsigned vd, unsigned vs1,
                                     unsigned vs2) {
  check(vtype_set_, "vsetvli must precede vector instructions");
  check(vtype_.sew == Sew::k32, "widening ops require SEW=32 sources");
  const unsigned g = vtype_.lmul.group_regs();
  check(vd < kNumVregs && vd % (2 * g) == 0,
        "widening destination must align to a 2xLMUL group");
  check_vreg(vs1);
  check_vreg(vs2);
  check_no_overlap(vd, 2 * g, vs1, g);
  check_no_overlap(vd, 2 * g, vs2, g);
  VInstr in;
  in.op = op;
  in.vd = static_cast<std::uint8_t>(vd);
  in.vs1 = static_cast<std::uint8_t>(vs1);
  in.vs2 = static_cast<std::uint8_t>(vs2);
  return in;
}

void ProgramBuilder::vfwadd_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make_widening(Op::kVfwaddVV, vd, vs1, vs2));
}
void ProgramBuilder::vfwsub_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make_widening(Op::kVfwsubVV, vd, vs1, vs2));
}
void ProgramBuilder::vfwmul_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make_widening(Op::kVfwmulVV, vd, vs1, vs2));
}
void ProgramBuilder::vfwmacc_vv(unsigned vd, unsigned vs1, unsigned vs2) {
  push(make_widening(Op::kVfwmaccVV, vd, vs1, vs2));
}
void ProgramBuilder::vfsqrt_v(unsigned vd, unsigned vs2) {
  push(make(Op::kVfsqrtV, vd, 0, vs2, false));
}

// ---- gather / compress ----------------------------------------------------------

void ProgramBuilder::vrgather_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  check(vd != vs2 && vd != vs1, "vrgather destination must not overlap sources");
  push(make(Op::kVrgatherVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vcompress_vm(unsigned vd, unsigned vs2, unsigned vs1) {
  check(vd != vs2 && vd != vs1, "vcompress destination must not overlap sources");
  check(vtype_set_, "vsetvli must precede vector instructions");
  check_vreg(vd);
  check_vreg(vs2);
  check(vs1 < kNumVregs, "vector register index out of range");  // mask reg
  VInstr in;
  in.op = Op::kVcompressVM;
  in.vd = static_cast<std::uint8_t>(vd);
  in.vs1 = static_cast<std::uint8_t>(vs1);
  in.vs2 = static_cast<std::uint8_t>(vs2);
  push(in);
}

// ---- mask population --------------------------------------------------------------

void ProgramBuilder::vcpop_m(unsigned vs2) {
  check(vtype_set_, "vsetvli must precede vector instructions");
  check(vs2 < kNumVregs, "vector register index out of range");
  VInstr in;
  in.op = Op::kVcpopM;
  in.vs2 = static_cast<std::uint8_t>(vs2);
  push(in);
}
void ProgramBuilder::vfirst_m(unsigned vs2) {
  check(vtype_set_, "vsetvli must precede vector instructions");
  check(vs2 < kNumVregs, "vector register index out of range");
  VInstr in;
  in.op = Op::kVfirstM;
  in.vs2 = static_cast<std::uint8_t>(vs2);
  push(in);
}
void ProgramBuilder::viota_m(unsigned vd, unsigned vs2) {
  check(vd != vs2, "viota destination must not overlap the mask source");
  VInstr in = make(Op::kViotaM, vd, 0, 0, false);
  in.vs2 = static_cast<std::uint8_t>(vs2);  // mask source: no group alignment
  check(vs2 < kNumVregs, "vector register index out of range");
  push(in);
}
void ProgramBuilder::vmsbf_m(unsigned vd, unsigned vs2) {
  check(vd != vs2, "mask-set ops must not overlap their source");
  push(make(Op::kVmsbfM, vd, 0, vs2, false));
}
void ProgramBuilder::vmsif_m(unsigned vd, unsigned vs2) {
  check(vd != vs2, "mask-set ops must not overlap their source");
  push(make(Op::kVmsifM, vd, 0, vs2, false));
}
void ProgramBuilder::vmsof_m(unsigned vd, unsigned vs2) {
  check(vd != vs2, "mask-set ops must not overlap their source");
  push(make(Op::kVmsofM, vd, 0, vs2, false));
}

// ---- additional integer -------------------------------------------------------------

void ProgramBuilder::vmul_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVmulVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vmul_vx(unsigned vd, unsigned vs2, std::int64_t xs) {
  VInstr in = make(Op::kVmulVX, vd, 0, vs2, false);
  in.xs = xs;
  push(in);
}
void ProgramBuilder::vmacc_vv(unsigned vd, unsigned vs1, unsigned vs2) {
  push(make(Op::kVmaccVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vrsub_vx(unsigned vd, unsigned vs2, std::int64_t xs) {
  VInstr in = make(Op::kVrsubVX, vd, 0, vs2, false);
  in.xs = xs;
  push(in);
}
void ProgramBuilder::vmax_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVmaxVV, vd, vs1, vs2, false));
}
void ProgramBuilder::vmin_vv(unsigned vd, unsigned vs2, unsigned vs1) {
  push(make(Op::kVminVV, vd, vs1, vs2, false));
}

Program ProgramBuilder::take() {
  check(!in_loop_, "take() inside a loop");
  Program out = std::move(prog_);
  prog_ = Program{};
  prog_.name = out.name;
  vtype_set_ = false;
  vl_ = 0;
  return out;
}

}  // namespace araxl
