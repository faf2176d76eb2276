// LLM-scale softmax: a single attention row over a 128 Ki-element context
// window — the workload the paper cites ("context windows as large as 128k
// elements in Llama3") when motivating 64-Kibit vector registers.
//
// Runs a numerically stable single-row softmax, strip-mined over the
// 64-lane AraXL's 8192-element LMUL=8 register groups, verifies against a
// scalar reference, and reports throughput per attention row.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/fmt.hpp"
#include "kernels/common.hpp"
#include "kernels/exp_core.hpp"
#include "machine/machine.hpp"
#include "ppa/freq_model.hpp"

int main() {
  using namespace araxl;

  const MachineConfig cfg = MachineConfig::araxl(64);
  Machine m(cfg);
  const std::uint64_t n = 128 * 1024;  // context length

  const std::vector<double> logits = random_doubles(n, -10.0, 10.0, 0x11);
  MemLayout layout;
  const std::uint64_t x_addr = layout.alloc(n * 8);
  const std::uint64_t e_addr = layout.alloc(n * 8);
  const std::uint64_t y_addr = layout.alloc(n * 8);
  m.mem().store_doubles(x_addr, logits);

  ProgramBuilder pb(cfg.effective_vlen(), "softmax-128k");
  ExpRegs regs;
  regs.x = 6;

  // Each pass strip-mines: its full strips are a declared loop (batched
  // by the simulator in steady state), a partial tail strip follows.
  const auto strips = [&](Lmul lmul, const auto& strip) {
    const std::uint64_t vlmax = pb.vlmax(Sew::k64, lmul);
    pb.loop(n / vlmax, [&](std::uint64_t i) { strip(i * vlmax); });
    if (n % vlmax != 0) strip(n / vlmax * vlmax);
  };

  // Pass 1: global max (strip-accumulated vfredmax).
  pb.vsetvli(n, Sew::k64, kLmul1);
  pb.vfmv_s_f(30, -std::numeric_limits<double>::infinity());
  strips(kLmul1, [&](std::uint64_t done) {
    pb.vsetvli(n - done, Sew::k64, kLmul1);
    pb.vle(4, x_addr + done * 8);
    pb.vfredmax(30, 4, 30);
    pb.scalar_cycles(2);
  });
  pb.vfmv_f_s(30);

  // Pass 2: exp(x - max) and global sum.
  pb.vsetvli(n, Sew::k64, kLmul1);
  pb.vfmv_s_f(31, 0.0);
  strips(kLmul1, [&](std::uint64_t done) {
    pb.vsetvli(n - done, Sew::k64, kLmul1);
    pb.vle(4, x_addr + done * 8);
    pb.vfsub_vf_acc(regs.x, 4);
    emit_exp_core(pb, regs, /*horner_loop=*/false);  // inside the strip loop
    pb.vse(regs.out, e_addr + done * 8);
    pb.vfredusum(31, regs.out, 31);
    pb.scalar_cycles(2);
  });
  pb.vfmv_f_s(31);

  // Reciprocal once on the vector divider, then normalize.
  pb.vsetvli(1, Sew::k64, kLmul1);
  pb.vfmv_s_f(28, 1.0);
  pb.vfdiv_vv(28, 28, 31);
  pb.vfmv_f_s(28);
  strips(kLmul8, [&](std::uint64_t done) {
    pb.vsetvli(n - done, Sew::k64, kLmul8);
    pb.vle(8, e_addr + done * 8);
    pb.vfmul_vf_acc(16, 8);
    pb.vse(16, y_addr + done * 8);
    pb.scalar_cycles(2);
  });

  const RunStats stats = m.run(pb.take());

  // Scalar reference.
  double mx = -std::numeric_limits<double>::infinity();
  for (const double v : logits) mx = std::max(mx, v);
  double sum = 0.0;
  for (const double v : logits) sum += std::exp(v - mx);
  const std::vector<double> got = m.mem().load_doubles(y_addr, n);
  double max_err = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    max_err = std::max(max_err, std::abs(got[i] - std::exp(logits[i] - mx) / sum));
  }

  const double f = FreqModel().freq_ghz(cfg);
  std::printf("softmax over a %llu-element context on %s\n\n",
              static_cast<unsigned long long>(n), cfg.name().c_str());
  std::printf("%s", stats.summary().c_str());
  std::printf("\nat %.2f GHz: %.1f us per attention row, %.1f GFLOPS\n",
              f, static_cast<double>(stats.cycles) / (f * 1e3), stats.gflops(f));
  std::printf("max abs error vs scalar reference: %.3g\n", max_err);
  return max_err < 1e-10 ? 0 : 1;
}
