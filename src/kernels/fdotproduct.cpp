// fdotproduct — dot = sum(A[i]*B[i]) over N elements (Table I, LMUL=8).
//
// Strip-mined vfmacc.vv accumulation into an LMUL=8 register group, with a
// single vfredusum at the end (at 16384 B/lane and 64 lanes this is exactly
// the paper's "strip-mined over 16 loop iterations" case). Memory-bound:
// two 8-byte read streams against 8 bytes/lane/cycle of read bandwidth cap
// the kernel at ~1 element per lane per 2 cycles, i.e. LC DP-FLOP/cycle.
#include <cmath>

#include "common/contracts.hpp"
#include "kernels/common.hpp"

namespace araxl {
namespace {

class FdotproductKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "fdotproduct"; }
  [[nodiscard]] double max_perf_factor() const override { return 1.0; }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul8; }

  [[nodiscard]] std::uint64_t useful_flops() const override { return 2ull * n_; }

  [[nodiscard]] double tolerance() const override { return 1e-10; }

 private:
  Program build_program(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);

    MemLayout layout;
    a_addr_ = layout.alloc(n_ * 8);
    b_addr_ = layout.alloc(n_ * 8);
    res_addr_ = layout.alloc(8);
    check_footprint(m, layout);
    stage_random_doubles(m.mem(), a_addr_, n_, -1.0, 1.0, input_seed(0xD0));
    stage_random_doubles(m.mem(), b_addr_, n_, -1.0, 1.0, input_seed(0xD1));

    ProgramBuilder pb(cfg.effective_vlen(), "fdotproduct");
    // LMUL=8 register groups: a -> v0, b -> v8, accumulator -> v16; v24
    // holds the reduction seed/result (single registers v24/v25).
    const std::uint64_t first_vl = pb.vsetvli(n_, Sew::k64, kLmul8);
    acc_elems_ = first_vl;
    pb.vfmv_v_f(16, 0.0);   // zero the accumulator group
    pb.vfmv_s_f(24, 0.0);   // reduction seed

    const auto strip = [&](std::uint64_t done) {
      pb.vsetvli(n_ - done, Sew::k64, kLmul8);
      pb.vle(0, a_addr_ + done * 8);
      pb.vle(8, b_addr_ + done * 8);
      pb.vfmacc_vv(16, 0, 8);
      pb.scalar_cycles(2);  // pointer bumps + branch
    };
    // Full strips as a loop, then the vl tail.
    const std::uint64_t vlmax = pb.vlmax(Sew::k64, kLmul8);
    pb.loop(n_ / vlmax, [&](std::uint64_t s) { strip(s * vlmax); });
    if (n_ % vlmax != 0) strip(n_ / vlmax * vlmax);
    pb.vsetvli(acc_elems_, Sew::k64, kLmul8);
    pb.vfredusum(25, 16, 24);
    pb.vfmv_f_s(25);
    pb.scalar_store();  // fsd of the scalar result
    return pb.take();
  }

  [[nodiscard]] VerifyResult verify_outputs(const Machine& m) const override {
    // Reference: accumulate per lane-strip position exactly like the
    // machine (vfmacc into position i%VL, then an ordered sweep) would be
    // overkill — a sequential fma sum with a relative tolerance is the
    // honest check for an unordered reduction. The result is the scalar
    // accumulator, not memory, so there is no row to compare in place.
    const double* a = m.mem().doubles(a_addr_, n_).data();
    const double* b = m.mem().doubles(b_addr_, n_).data();
    double expected = 0.0;
    for (std::uint64_t i = 0; i < n_; ++i) expected = std::fma(a[i], b[i], expected);
    VerifyResult r;
    r.add(expected, m.scalar_acc());
    return r;
  }

  std::uint64_t n_ = 0;
  std::uint64_t acc_elems_ = 0;
  std::uint64_t a_addr_ = 0;
  std::uint64_t b_addr_ = 0;
  std::uint64_t res_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_fdotproduct() {
  return std::make_unique<FdotproductKernel>();
}

}  // namespace araxl
