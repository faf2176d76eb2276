// fmatmul — C[64xN] = A[64x256] * B[256xN] (paper Table I).
//
// The structure follows the Ara matmul kernel: vectors run along the N
// columns of B/C; rows of C are blocked so a block of accumulator register
// groups stays resident while the k-loop streams rows of B through a
// double-buffered register pair; each vfmacc.vf takes its scalar from A via
// a scalar d-cache load. Peak: one FMA per lane per cycle = 2 LC DP-FLOP.
#include <cmath>

#include "common/contracts.hpp"
#include "kernels/common.hpp"

namespace araxl {
namespace {

constexpr unsigned kM = 64;   // rows of A / C
constexpr unsigned kK = 256;  // columns of A = rows of B

class FmatmulKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "fmatmul"; }
  [[nodiscard]] double max_perf_factor() const override { return 2.0; }

  [[nodiscard]] Lmul lmul(std::uint64_t bytes_per_lane) const override {
    if (bytes_per_lane <= 128) return kLmul1;
    if (bytes_per_lane <= 256) return kLmul2;
    return kLmul4;
  }

  [[nodiscard]] std::uint64_t useful_flops() const override {
    return 2ull * kM * kK * n_;
  }

  [[nodiscard]] double tolerance() const override { return 0.0; }  // same dataflow

 private:
  Program build_program(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);
    const Lmul ml = lmul(bytes_per_lane);
    const unsigned g = ml.group_regs();
    const unsigned rb = g >= 4 ? 4 : 8;  // row block sized to the register budget

    MemLayout layout;
    a_addr_ = layout.alloc(kM * kK * 8);
    b_addr_ = layout.alloc(kK * n_ * 8);
    c_addr_ = layout.alloc(kM * n_ * 8);
    check_footprint(m, layout);
    const std::span<const double> a =
        stage_random_doubles(m.mem(), a_addr_, kM * kK, -1.0, 1.0, input_seed(0xA));
    stage_random_doubles(m.mem(), b_addr_, kK * n_, -1.0, 1.0, input_seed(0xB));

    ProgramBuilder pb(cfg.effective_vlen(), "fmatmul");
    const unsigned acc0 = 16;         // accumulators: v16 .. v16+rb*g
    const unsigned bbuf[2] = {8, 8 + g};

    std::uint64_t col = 0;
    while (col < n_) {
      const std::uint64_t vl = pb.vsetvli(n_ - col, Sew::k64, ml);
      for (unsigned i0 = 0; i0 < kM; i0 += rb) {
        for (unsigned i = 0; i < rb; ++i) pb.vfmv_v_f(acc0 + i * g, 0.0);
        // The k loop, two steps per iteration: B rows alternate between
        // the two bbuf registers.
        static_assert(kK % 2 == 0);
        pb.loop(kK / 2, [&](std::uint64_t kp) {
          for (auto k = static_cast<unsigned>(2 * kp); k < 2 * kp + 2; ++k) {
            const unsigned bb = bbuf[k % 2];
            pb.vle(bb, b_addr_ + (std::uint64_t{k} * n_ + col) * 8);
            for (unsigned i = 0; i < rb; ++i) {
              pb.scalar_load();     // fld of A[i0+i][k]
              pb.scalar_cycles(1);  // row-pointer bump (CVA6 is single-issue)
              pb.vfmacc_vf(acc0 + i * g, a[(i0 + i) * kK + k], bb);
            }
            pb.scalar_cycles(1);  // pointer bump + branch
          }
        });
        for (unsigned i = 0; i < rb; ++i) {
          pb.vse(acc0 + i * g, c_addr_ + ((i0 + i) * n_ + col) * 8);
        }
        pb.scalar_cycles(2);
      }
      col += vl;
    }
    return pb.take();
  }

  [[nodiscard]] VerifyResult verify_outputs(const Machine& m) const override {
    // i-k-j: a row of C accumulates rows of B over ascending k, the same
    // fma chain per element as the vfmacc.vf sequence. kKBlock rows of B
    // are folded per sweep of the row, so the row is loaded and stored
    // once per block instead of once per k.
    constexpr unsigned kKBlock = 8;
    static_assert(kK % kKBlock == 0);
    const double* a_mat = m.mem().doubles(a_addr_, kM * kK).data();
    const double* b_mat = m.mem().doubles(b_addr_, kK * n_).data();
    VerifyResult r;
    std::vector<double> row(n_);
    for (unsigned i = 0; i < kM; ++i) {
      std::fill(row.begin(), row.end(), 0.0);
      const double* a = a_mat + i * kK;
      for (unsigned k = 0; k < kK; k += kKBlock) {
        const double* b = b_mat + std::uint64_t{k} * n_;
        for (std::uint64_t j = 0; j < n_; ++j) {
          double acc = row[j];
          for (unsigned kk = 0; kk < kKBlock; ++kk) {
            acc = std::fma(a[k + kk], b[kk * n_ + j], acc);
          }
          row[j] = acc;
        }
      }
      compare_row(m.mem(), c_addr_ + std::uint64_t{i} * n_ * 8, row, r);
    }
    return r;
  }

  std::uint64_t n_ = 0;
  std::uint64_t a_addr_ = 0;
  std::uint64_t b_addr_ = 0;
  std::uint64_t c_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_fmatmul() { return std::make_unique<FmatmulKernel>(); }

}  // namespace araxl
