// Writing your own kernel against the public API: a BLAS-1 Givens
// rotation (drot) — x' = c*x + s*y, y' = c*y - s*x — strip-mined with
// double-buffered register groups so loads, FMAs and stores of adjacent
// strips overlap. Demonstrates ProgramBuilder, memory layout, run
// statistics and verification end to end.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/fmt.hpp"
#include "kernels/common.hpp"
#include "machine/machine.hpp"

int main() {
  using namespace araxl;

  const MachineConfig cfg = MachineConfig::araxl(32);
  Machine m(cfg);
  const std::uint64_t n = 65536;
  const double c = std::cos(0.3);
  const double s = std::sin(0.3);

  const std::vector<double> x = random_doubles(n, -1.0, 1.0, 1);
  const std::vector<double> y = random_doubles(n, -1.0, 1.0, 2);
  MemLayout layout;
  const std::uint64_t x_addr = layout.alloc(n * 8);
  const std::uint64_t y_addr = layout.alloc(n * 8);
  m.mem().store_doubles(x_addr, x);
  m.mem().store_doubles(y_addr, y);

  // Register plan (LMUL=4 groups): the input buffers alternate between two
  // sets (v4/v8 and v12/v24) so strip i+1's loads don't WAR-stall on strip
  // i's still-reading FMAs; the result groups v16/v20 recycle once stored.
  ProgramBuilder pb(cfg.effective_vlen(), "drot");
  const std::uint64_t vlmax = pb.vlmax(Sew::k64, kLmul4);
  const auto strip = [&](std::uint64_t i) {
    const std::uint64_t done = i * vlmax;
    pb.vsetvli(n - done, Sew::k64, kLmul4);
    const unsigned xv = i % 2 == 0 ? 4 : 12;
    const unsigned yv = i % 2 == 0 ? 8 : 24;
    pb.vle(xv, x_addr + done * 8);
    pb.vle(yv, y_addr + done * 8);
    pb.vfmul_vf(16, xv, c);        // x' = c*x
    pb.vfmacc_vf(16, s, yv);       // x' += s*y
    pb.vfmul_vf(20, yv, c);        // y' = c*y
    pb.vfnmsac_vf(20, s, xv);      // y' -= s*x
    pb.vse(16, x_addr + done * 8);
    pb.vse(20, y_addr + done * 8);
    pb.scalar_cycles(2);
  };
  // Declaring the loop lets the simulator batch its steady state: the body
  // is a strip pair (the register sets alternate), each later pair differs
  // from the first only by its addresses and AVL. The unpaired full strip
  // and the vl tail follow outside the loop; an undeclared program runs
  // the same, just without batching.
  const std::uint64_t full = n / vlmax;
  pb.loop(full / 2, [&](std::uint64_t pair) {
    strip(2 * pair);
    strip(2 * pair + 1);
  });
  for (std::uint64_t i = full / 2 * 2; i * vlmax < n; ++i) strip(i);

  const RunStats stats = m.run(pb.take());

  const std::vector<double> gx = m.mem().load_doubles(x_addr, n);
  const std::vector<double> gy = m.mem().load_doubles(y_addr, n);
  double max_err = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const double ex = std::fma(s, y[i], c * x[i]);
    const double ey = std::fma(-s, x[i], c * y[i]);
    max_err = std::max({max_err, std::abs(gx[i] - ex), std::abs(gy[i] - ey)});
  }

  std::printf("drot over %llu elements on %s\n\n%s",
              static_cast<unsigned long long>(n), cfg.name().c_str(),
              stats.summary().c_str());
  std::printf("\nmax abs error: %.3g (%s)\n", max_err,
              max_err == 0.0 ? "exact" : "check");
  // Per element: 4 FPU slots (2 muls + 2 FMAs, 6 FLOP) vs 2 read beats —
  // compute-bound, so the FPU should stay mostly busy.
  std::printf("achieved %.2f DP-FLOP/cycle of a %u-lane peak\n",
              stats.flop_per_cycle(), 2 * cfg.total_lanes());
  return max_err == 0.0 ? 0 : 1;
}
