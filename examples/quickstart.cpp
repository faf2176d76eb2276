// Quickstart: build a 16-lane AraXL, run a vector AXPY through the public
// API, verify the result, and print the run statistics.
//
//   y[i] = a * x[i] + y[i]   over 64 KiB of doubles
#include <cmath>
#include <cstdio>
#include <vector>

#include "isa/program.hpp"
#include "kernels/common.hpp"
#include "machine/machine.hpp"

int main() {
  using namespace araxl;

  // A 16-lane AraXL: 4 clusters x 4 lanes, VLEN = 16 Kibit.
  const MachineConfig cfg = MachineConfig::araxl(16);
  Machine m(cfg);

  const std::uint64_t n = 8192;
  const double a = 1.5;
  const std::vector<double> x = random_doubles(n, -1.0, 1.0, 1);
  const std::vector<double> y = random_doubles(n, -1.0, 1.0, 2);

  MemLayout layout;
  const std::uint64_t x_addr = layout.alloc(n * 8);
  const std::uint64_t y_addr = layout.alloc(n * 8);
  m.mem().store_doubles(x_addr, x);
  m.mem().store_doubles(y_addr, y);

  // AXPY, strip-mined over the vector length the hardware grants.
  ProgramBuilder pb(cfg.effective_vlen(), "axpy");
  const auto strip = [&](std::uint64_t done) {
    pb.vsetvli(n - done, Sew::k64, kLmul4);
    pb.vle(8, x_addr + done * 8);   // v8  = x[done ...]
    pb.vle(16, y_addr + done * 8);  // v16 = y[done ...]
    pb.vfmacc_vf(16, a, 8);         // v16 += a * v8
    pb.vse(16, y_addr + done * 8);
    pb.scalar_cycles(2);
  };
  // The full strips are declared as a loop, which the simulator batches
  // once it reaches steady state; a partial tail strip follows outside it.
  const std::uint64_t vlmax = pb.vlmax(Sew::k64, kLmul4);
  pb.loop(n / vlmax, [&](std::uint64_t i) { strip(i * vlmax); });
  if (n % vlmax != 0) strip(n / vlmax * vlmax);

  const RunStats stats = m.run(pb.take());

  // Verify against the scalar reference.
  const std::vector<double> got = m.mem().load_doubles(y_addr, n);
  double max_err = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    max_err = std::max(max_err, std::abs(std::fma(a, x[i], y[i]) - got[i]));
  }

  std::printf("AXPY over %llu doubles on %s\n",
              static_cast<unsigned long long>(n), cfg.name().c_str());
  std::printf("%s", stats.summary().c_str());
  std::printf("max abs error vs reference: %.3g  (%s)\n", max_err,
              max_err == 0.0 ? "exact" : "check");
  return max_err == 0.0 ? 0 : 1;
}
