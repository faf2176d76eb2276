// axpy — y[i] += a*x[i] (extension kernel, not in Table I).
//
// The canonical steady-state streaming loop: every strip-mine iteration
// issues the same vsetvli/vle/vle/vfmacc/vse signature against addresses
// advancing by one arithmetic progression, which makes it the reference
// workload for the event-driven engine's loop batching (and the registry
// twin of the hand-built AXPY program in bench/sim_speed.cpp, so sweeps
// and `araxl stats` can diagnose the same shape the bench measures).
// Like the STREAM triad it is read-bandwidth bound: 16 bytes read per
// 2 DP-FLOP caps throughput at LC DP-FLOP/cycle.
#include <cmath>

#include "common/contracts.hpp"
#include "kernels/common.hpp"

namespace araxl {
namespace {

class AxpyKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "axpy"; }
  [[nodiscard]] double max_perf_factor() const override { return 1.0; }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul4; }

  [[nodiscard]] std::uint64_t useful_flops() const override { return 2ull * n_; }

  [[nodiscard]] double tolerance() const override { return 0.0; }

 private:
  Program build_program(Machine& m, std::uint64_t bytes_per_lane) override {
    const MachineConfig& cfg = m.config();
    n_ = elems_for_bytes_per_lane(cfg, bytes_per_lane);

    MemLayout layout;
    x_addr_ = layout.alloc(n_ * 8);
    y_addr_ = layout.alloc(n_ * 8);
    check_footprint(m, layout);
    stage_random_doubles(m.mem(), x_addr_, n_, -1.0, 1.0, input_seed(0x75));
    // y is updated in place, so the golden needs the host copy.
    y_ = random_doubles(n_, -1.0, 1.0, input_seed(0x76));
    m.mem().store_doubles(y_addr_, y_);

    // Same shape as the bench's build_axpy: a fixed register pair per
    // iteration (no double-buffering) keeps the op signature periodic.
    ProgramBuilder pb(cfg.effective_vlen(), "axpy");
    const auto strip = [&](std::uint64_t done) {
      pb.vsetvli(n_ - done, Sew::k64, kLmul4);
      pb.vle(8, x_addr_ + done * 8);
      pb.vle(16, y_addr_ + done * 8);
      pb.vfmacc_vf(16, kA, 8);  // y += a*x in place
      pb.vse(16, y_addr_ + done * 8);
    };
    // Full strips as a loop, then the vl tail.
    const std::uint64_t vlmax = pb.vlmax(Sew::k64, kLmul4);
    pb.loop(n_ / vlmax, [&](std::uint64_t s) { strip(s * vlmax); });
    if (n_ % vlmax != 0) strip(n_ / vlmax * vlmax);
    return pb.take();
  }

  [[nodiscard]] VerifyResult verify_outputs(const Machine& m) const override {
    const double* x = m.mem().doubles(x_addr_, n_).data();
    VerifyResult r;
    std::vector<double> row(n_);
    for (std::uint64_t i = 0; i < n_; ++i) row[i] = std::fma(kA, x[i], y_[i]);
    compare_row(m.mem(), y_addr_, row, r);
    return r;
  }

  static constexpr double kA = 1.5;
  std::uint64_t n_ = 0;
  std::vector<double> y_;
  std::uint64_t x_addr_ = 0;
  std::uint64_t y_addr_ = 0;
};

}  // namespace

std::unique_ptr<Kernel> make_axpy() { return std::make_unique<AxpyKernel>(); }

}  // namespace araxl
