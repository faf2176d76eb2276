// stream_triad — a[i] = b[i] + s*c[i] (extension kernel, not in Table I).
//
// The STREAM triad is pure streaming: 16 bytes read + 8 bytes written per
// element against 2 DP-FLOP. With AraXL's 8 B/lane/cycle read channel the
// read streams bound throughput at half an element per lane per cycle,
// i.e. LC DP-FLOP/cycle — a bandwidth-utilization probe for the GLSU.
#include <cmath>

#include "common/contracts.hpp"
#include "kernels/common.hpp"

namespace araxl {
namespace {

class StreamTriadKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "stream_triad"; }
  [[nodiscard]] double max_perf_factor() const override { return 1.0; }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul8; }

  [[nodiscard]] std::uint64_t useful_flops() const override { return 2ull * n_; }

  [[nodiscard]] double tolerance() const override { return 0.0; }

 private:
  Program build_program(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);

    MemLayout layout;
    a_addr_ = layout.alloc(n_ * 8);
    b_addr_ = layout.alloc(n_ * 8);
    c_addr_ = layout.alloc(n_ * 8);
    check_footprint(m, layout);
    stage_random_doubles(m.mem(), b_addr_, n_, -1.0, 1.0, input_seed(0x71));
    stage_random_doubles(m.mem(), c_addr_, n_, -1.0, 1.0, input_seed(0x72));

    ProgramBuilder pb(cfg.effective_vlen(), "stream_triad");
    const std::uint64_t vlmax = pb.vlmax(Sew::k64, kLmul8);
    const auto strip = [&](std::uint64_t s) {
      const std::uint64_t done = s * vlmax;
      pb.vsetvli(n_ - done, Sew::k64, kLmul8);
      // Double-buffer between the two LMUL=8 group pairs (v0/v8, v16/v24).
      const unsigned bb = s % 2 == 0 ? 0 : 16;
      const unsigned cc = s % 2 == 0 ? 8 : 24;
      pb.vle(bb, b_addr_ + done * 8);
      pb.vle(cc, c_addr_ + done * 8);
      pb.vfmacc_vf(bb, kScale, cc);  // b += s*c in place
      pb.vse(bb, a_addr_ + done * 8);
      pb.scalar_cycles(2);
    };
    // Full strips in pairs (one per register set) as a loop, then the
    // unpaired full strip and the vl tail.
    const std::uint64_t full = n_ / vlmax;
    pb.loop(full / 2, [&](std::uint64_t pair) {
      strip(2 * pair);
      strip(2 * pair + 1);
    });
    for (std::uint64_t s = full / 2 * 2; s * vlmax < n_; ++s) strip(s);
    return pb.take();
  }

  [[nodiscard]] VerifyResult verify_outputs(const Machine& m) const override {
    const double* b = m.mem().doubles(b_addr_, n_).data();
    const double* c = m.mem().doubles(c_addr_, n_).data();
    VerifyResult r;
    std::vector<double> row(n_);
    for (std::uint64_t i = 0; i < n_; ++i) row[i] = std::fma(kScale, c[i], b[i]);
    compare_row(m.mem(), a_addr_, row, r);
    return r;
  }

  static constexpr double kScale = 3.0;
  std::uint64_t n_ = 0;
  std::uint64_t a_addr_ = 0;
  std::uint64_t b_addr_ = 0;
  std::uint64_t c_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_stream_triad() {
  return std::make_unique<StreamTriadKernel>();
}

}  // namespace araxl
