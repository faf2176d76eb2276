// jacobi2d — 5-point Jacobi stencil over a 256xN grid (Table I).
//
// Out[r][c] = 0.2*(In[r][c] + In[r-1][c] + In[r+1][c] + In[r][c-1] +
// In[r][c+1]), computed with a halo'd input so every output element is
// interior. Row buffers rotate three-deep (each input row is loaded once
// per strip); the column neighbours come from slide1up/slide1down of the
// center row. Five single-FLOP FPU slots per element => peak LC DP-FLOP.
#include <cmath>

#include "common/contracts.hpp"
#include "kernels/common.hpp"

namespace araxl {
namespace {

constexpr unsigned kRows = 256;  // output rows
constexpr double kW = 0.2;

class Jacobi2dKernel final : public Kernel {
 public:
  explicit Jacobi2dKernel(bool pad_pitch) : pad_pitch_(pad_pitch) {}

  [[nodiscard]] std::string_view name() const override { return "jacobi2d"; }
  [[nodiscard]] double max_perf_factor() const override { return 1.0; }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul4; }

  [[nodiscard]] std::uint64_t useful_flops() const override {
    return 5ull * kRows * n_;
  }

  [[nodiscard]] double tolerance() const override { return 0.0; }  // same dataflow

 private:
  Program build_program(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);
    // One halo column on each side. The registered kernel then pads the
    // input pitch up to a multiple of the lane count, so every row load
    // starts at the same bus phase (bus width is 8 bytes x total lanes);
    // the committed figures use that layout. Unpadded, the phase drifts
    // 16 bytes per row and repeats every lanes/2 rows — the loop batcher
    // handles both, the second in super-periods, so the padding is a
    // workload choice, not a simulator requirement.
    in_cols_ = n_ + 2;
    if (pad_pitch_) {
      const std::uint64_t lanes = cfg.total_lanes();
      in_cols_ += (lanes - in_cols_ % lanes) % lanes;
    }

    MemLayout layout;
    in_addr_ = layout.alloc(in_elems() * 8);
    out_addr_ = layout.alloc(std::uint64_t{kRows} * n_ * 8);
    check_footprint(m, layout);
    const std::span<const double> in =
        stage_random_doubles(m.mem(), in_addr_, in_elems(), -1.0, 1.0, input_seed(0x1A));

    ProgramBuilder pb(cfg.effective_vlen(), "jacobi2d");
    // Register map (LMUL=4 groups): rows v4/v8/v12 rotate, slides v16/v20,
    // temporaries v24/v28.
    const unsigned rowreg[3] = {4, 8, 12};
    const unsigned left = 16;
    const unsigned right = 20;
    const unsigned t1 = 24;
    const unsigned t2 = 28;

    const auto row_center_addr = [&](std::uint64_t input_row, std::uint64_t col) {
      return in_addr_ + (input_row * in_cols_ + col + 1) * 8;
    };

    std::uint64_t col = 0;
    while (col < n_) {
      const std::uint64_t vl = pb.vsetvli(n_ - col, Sew::k64, kLmul4);
      // Prime the first two input rows of this strip.
      pb.vle(rowreg[0], row_center_addr(0, col));
      pb.vle(rowreg[1], row_center_addr(1, col));
      const auto row = [&](std::uint64_t r) {
        const unsigned up = rowreg[r % 3];
        const unsigned center = rowreg[(r + 1) % 3];
        const unsigned down = rowreg[(r + 2) % 3];
        pb.vle(down, row_center_addr(r + 2, col));
        const std::uint64_t crow = (r + 1) * in_cols_;
        pb.vfslide1up(left, center, in[crow + col]);
        pb.vfslide1down(right, center, in[crow + col + 1 + vl]);
        pb.vfadd_vv(t1, up, down);
        pb.vfadd_vv(t2, left, right);
        pb.vfadd_vv(t1, t1, t2);
        pb.vfadd_vv(t1, t1, center);
        pb.vfmul_vf(t1, t1, kW);
        pb.vse(t1, out_addr_ + (r * n_ + col) * 8);
        pb.scalar_cycles(3);  // row pointer bumps + branch
      };
      // Rows in triples, as the row registers rotate three deep; the rows
      // past the last whole triple follow straight-line.
      pb.loop(kRows / 3, [&](std::uint64_t t) {
        for (std::uint64_t r = 3 * t; r < 3 * t + 3; ++r) row(r);
      });
      for (std::uint64_t r = kRows / 3 * 3; r < kRows; ++r) row(r);
      col += vl;
    }
    return pb.take();
  }

  [[nodiscard]] VerifyResult verify_outputs(const Machine& m) const override {
    const double* input = m.mem().doubles(in_addr_, in_elems()).data();
    VerifyResult res;
    std::vector<double> row(n_);
    for (unsigned r = 0; r < kRows; ++r) {
      const double* up = input + std::uint64_t{r} * in_cols_ + 1;
      const double* mid = up + in_cols_;
      const double* down = mid + in_cols_;
      const double* left = mid - 1;
      const double* right = mid + 1;
      for (std::uint64_t c = 0; c < n_; ++c) {
        const double sum = ((up[c] + down[c]) + (left[c] + right[c])) + mid[c];
        row[c] = sum * kW;
      }
      compare_row(m.mem(), out_addr_ + std::uint64_t{r} * n_ * 8, row, res);
    }
    return res;
  }

  /// The halo'd input: kRows + 2 rows of in_cols_.
  [[nodiscard]] std::uint64_t in_elems() const { return (kRows + 2) * in_cols_; }

  bool pad_pitch_;
  std::uint64_t n_ = 0;
  std::uint64_t in_cols_ = 0;
  std::uint64_t in_addr_ = 0;
  std::uint64_t out_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_jacobi2d() { return std::make_unique<Jacobi2dKernel>(true); }

std::unique_ptr<Kernel> make_jacobi2d_unpadded() {
  return std::make_unique<Jacobi2dKernel>(false);
}

}  // namespace araxl
