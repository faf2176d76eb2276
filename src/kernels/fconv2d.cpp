// fconv2d — 2D convolution of a 256xN input with a 7x7 filter (Table I).
//
// Follows the Ara fconv2d structure: vectors run along the N columns. For
// each output row, the seven input rows stream through the lanes once; six
// chained vfslide1down's per input row produce the shifted views for the
// seven filter columns, each consumed by a vfmacc.vf. The slide fill values
// (column VL, VL+1, ... of the strip) are injected as scalars, exactly like
// the reference kernel forwards the next strip's head elements.
// Per output row: 49 FMA slots vs 42 slide slots and 7 loads, so the FPU is
// the bottleneck => up to 2 LC DP-FLOP/cycle (97% utilization in the paper).
#include <cmath>

#include "common/contracts.hpp"
#include "kernels/common.hpp"

namespace araxl {
namespace {

constexpr unsigned kRows = 256;  // output rows
constexpr unsigned kF = 7;       // filter size

class Fconv2dKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "fconv2d"; }
  [[nodiscard]] double max_perf_factor() const override { return 2.0; }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul2; }

  [[nodiscard]] std::uint64_t useful_flops() const override {
    return 2ull * kF * kF * kRows * n_;
  }

  [[nodiscard]] double tolerance() const override { return 0.0; }  // same dataflow

 private:
  Program build_program(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);
    in_cols_ = n_ + kF - 1;  // column halo for the valid convolution

    // The 49 taps are program scalars, never stored in machine memory.
    f_ = random_doubles(kF * kF, -0.5, 0.5, input_seed(0xF1));

    MemLayout layout;
    in_addr_ = layout.alloc(in_elems() * 8);
    out_addr_ = layout.alloc(std::uint64_t{kRows} * n_ * 8);
    check_footprint(m, layout);
    const std::span<const double> in =
        stage_random_doubles(m.mem(), in_addr_, in_elems(), -1.0, 1.0, input_seed(0xC0));

    ProgramBuilder pb(cfg.effective_vlen(), "fconv2d");
    // Register map (LMUL=2 groups): row buffers v4/v6 alternate, slide
    // buffers v8..v18 rotate (6 deep to stay clear of in-flight readers),
    // accumulator v24.
    const unsigned rowbuf[2] = {4, 6};
    const unsigned slidebuf[6] = {8, 10, 12, 14, 16, 18};
    const unsigned acc = 24;

    std::uint64_t col = 0;
    while (col < n_) {
      const std::uint64_t vl = pb.vsetvli(n_ - col, Sew::k64, kLmul2);
      pb.loop(kRows, [&](std::uint64_t r) {
        pb.vfmv_v_f(acc, 0.0);
        unsigned slide_rot = 0;
        for (unsigned dr = 0; dr < kF; ++dr) {
          const unsigned row = rowbuf[dr % 2];
          const std::uint64_t row_base = in_addr_ + ((r + dr) * in_cols_ + col) * 8;
          pb.vle(row, row_base);
          pb.vfmacc_vf(acc, f_[dr * kF + 0], row);
          unsigned cur = row;
          for (unsigned dc = 1; dc < kF; ++dc) {
            const unsigned nxt = slidebuf[slide_rot++ % 6];
            // Fill value: the element just past the strip, column
            // col + vl - 1 + dc of input row r+dr.
            const double fill = in[((r + dr) * in_cols_) + col + vl - 1 + dc];
            pb.vfslide1down(nxt, cur, fill);
            pb.vfmacc_vf(acc, f_[dr * kF + dc], nxt);
            cur = nxt;
          }
          pb.scalar_load();   // filter/input pointer reload
          pb.scalar_cycles(1);
        }
        pb.vse(acc, out_addr_ + (r * n_ + col) * 8);
        pb.scalar_cycles(2);
      });
      col += vl;
    }
    return pb.take();
  }

  [[nodiscard]] VerifyResult verify_outputs(const Machine& m) const override {
    // r-dr-c-dc: each filter row sweeps a whole output row, folding its
    // seven taps per element, so every element keeps its dr-major,
    // dc-minor fma chain.
    const double* input = m.mem().doubles(in_addr_, in_elems()).data();
    VerifyResult res;
    std::vector<double> row(n_);
    for (unsigned r = 0; r < kRows; ++r) {
      std::fill(row.begin(), row.end(), 0.0);
      for (unsigned dr = 0; dr < kF; ++dr) {
        const double* in = input + std::uint64_t{r + dr} * in_cols_;
        const double* w = f_.data() + dr * kF;
        for (std::uint64_t c = 0; c < n_; ++c) {
          double acc = row[c];
          for (unsigned dc = 0; dc < kF; ++dc) acc = std::fma(in[c + dc], w[dc], acc);
          row[c] = acc;
        }
      }
      compare_row(m.mem(), out_addr_ + std::uint64_t{r} * n_ * 8, row, res);
    }
    return res;
  }

  /// The halo'd input: kRows + kF - 1 rows of in_cols_.
  [[nodiscard]] std::uint64_t in_elems() const { return (kRows + kF - 1) * in_cols_; }

  std::uint64_t n_ = 0;
  std::uint64_t in_cols_ = 0;
  std::vector<double> f_;
  std::uint64_t in_addr_ = 0;
  std::uint64_t out_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_fconv2d() { return std::make_unique<Fconv2dKernel>(); }

}  // namespace araxl
