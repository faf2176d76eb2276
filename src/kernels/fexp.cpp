// exp — elementwise exponential over N elements (Table I, LMUL=1).
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "kernels/common.hpp"
#include "kernels/exp_core.hpp"

namespace araxl {

namespace {

constexpr double kLog2E = 1.4426950408889634074;
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kOverflowX = 709.782712893384;
constexpr double kUnderflowX = -745.133219101941;

// Taylor coefficients 1/k! for k = 0..11.
constexpr double kCoeff[12] = {
    1.0,
    1.0,
    1.0 / 2,
    1.0 / 6,
    1.0 / 24,
    1.0 / 120,
    1.0 / 720,
    1.0 / 5040,
    1.0 / 40320,
    1.0 / 362880,
    1.0 / 3628800,
    1.0 / 39916800,
};

}  // namespace

void emit_exp_core(ProgramBuilder& pb, const ExpRegs& regs, bool horner_loop) {
  check(pb.vtype().sew == Sew::k64 && pb.vtype().lmul.log2 == 0,
        "exp core requires e64, m1");
  // Range reduction: k = round(x*log2e), r = x - k*ln2 (Cody-Waite split).
  pb.vfmul_vf(regs.k0, regs.x, kLog2E);
  pb.vfcvt_x_f(regs.ki, regs.k0);
  pb.vfcvt_f_x(regs.kf, regs.ki);
  pb.vfmul_vf(regs.t, regs.kf, kLn2Hi);
  pb.vfsub_vv(regs.r, regs.x, regs.t);
  pb.vfnmsac_vf(regs.r, kLn2Lo, regs.kf);
  // Degree-11 Horner polynomial for e^r.
  pb.vfmv_v_f(regs.p, kCoeff[11]);
  const auto step = [&](std::uint64_t it) {
    pb.vfmv_v_f(regs.coeff, kCoeff[10 - it]);
    pb.vfmadd_vv(regs.p, regs.r, regs.coeff);
  };
  if (horner_loop) {
    pb.loop(11, step);
  } else {
    for (std::uint64_t it = 0; it < 11; ++it) step(it);
  }
  // Reconstruction: out = p * 2^k with 2^k built in the exponent field.
  pb.vadd_vx(regs.scale, regs.ki, 1023);
  pb.vsll_vx(regs.scale, regs.scale, 52);
  pb.vfmul_vv(regs.out, regs.p, regs.scale);
  // Clamp via mask compare + merge (overflow -> +inf, underflow -> 0).
  pb.vmfgt_vf(0, regs.x, kOverflowX);
  pb.vfmerge_vfm(regs.out, regs.out, std::numeric_limits<double>::infinity());
  pb.vmflt_vf(0, regs.x, kUnderflowX);
  pb.vfmerge_vfm(regs.out, regs.out, 0.0);
}

namespace {

class FexpKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "exp"; }
  [[nodiscard]] double max_perf_factor() const override {
    return static_cast<double>(kExpFlops) / kExpFpuSlots;
  }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul1; }

  [[nodiscard]] std::uint64_t useful_flops() const override {
    return std::uint64_t{kExpFlops} * n_;
  }

  [[nodiscard]] double tolerance() const override { return 1e-12; }

 private:
  Program build_program(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);

    MemLayout layout;
    x_addr_ = layout.alloc(n_ * 8);
    y_addr_ = layout.alloc(n_ * 8);
    check_footprint(m, layout);
    stage_random_doubles(m.mem(), x_addr_, n_, -30.0, 30.0, input_seed(0xE0));

    ProgramBuilder pb(cfg.effective_vlen(), "exp");
    ExpRegs regs;
    std::uint64_t done = 0;
    unsigned flip = 0;
    while (done < n_) {
      const std::uint64_t vl = pb.vsetvli(n_ - done, Sew::k64, kLmul1);
      regs.x = 4 + (flip++ % 2);  // double-buffer the input register
      pb.vle(regs.x, x_addr_ + done * 8);
      emit_exp_core(pb, regs, /*horner_loop=*/true);
      pb.vse(regs.out, y_addr_ + done * 8);
      pb.scalar_cycles(2);  // pointer bumps + branch
      done += vl;
    }
    return pb.take();
  }

  [[nodiscard]] VerifyResult verify_outputs(const Machine& m) const override {
    const double* x = m.mem().doubles(x_addr_, n_).data();
    VerifyResult r;
    std::vector<double> row(n_);
    for (std::uint64_t i = 0; i < n_; ++i) row[i] = std::exp(x[i]);
    compare_row(m.mem(), y_addr_, row, r);
    return r;
  }

  std::uint64_t n_ = 0;
  std::uint64_t x_addr_ = 0;
  std::uint64_t y_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_fexp() { return std::make_unique<FexpKernel>(); }

}  // namespace araxl
