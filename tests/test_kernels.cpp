// Integration tests: every Table-I kernel, functionally verified against
// its scalar golden reference on multiple machine configurations and
// weak-scaling points, on both AraXL and the Ara2 baseline.
#include <gtest/gtest.h>

#include <limits>

#include "kernels/common.hpp"
#include "machine/machine.hpp"

namespace araxl {
namespace {

struct KernelCase {
  const char* kernel;
  MachineKind kind;
  unsigned lanes;
  std::uint64_t bytes_per_lane;
};

std::string case_name(const testing::TestParamInfo<KernelCase>& info) {
  const KernelCase& c = info.param;
  return std::string(c.kernel) + "_" +
         (c.kind == MachineKind::kAraXL ? "araxl" : "ara2") +
         std::to_string(c.lanes) + "L_" + std::to_string(c.bytes_per_lane) + "B";
}

MachineConfig config_for(const KernelCase& c) {
  return c.kind == MachineKind::kAraXL ? MachineConfig::araxl(c.lanes)
                                       : MachineConfig::ara2(c.lanes);
}

/// Exact number of output elements one verify() of `c` must check.
std::uint64_t output_elems(const KernelCase& c, const MachineConfig& cfg) {
  const std::uint64_t n = elems_for_bytes_per_lane(cfg, c.bytes_per_lane);
  const std::string_view k = c.kernel;
  if (k == "fmatmul" || k == "softmax") return 64 * n;
  if (k == "fconv2d" || k == "jacobi2d") return 256 * n;
  if (k == "fdotproduct") return 1;
  if (k == "spmv") return 4ull * cfg.topo.total_clusters() * 8;
  return n;  // exp, stream_triad, axpy
}

class KernelVerify : public testing::TestWithParam<KernelCase> {};

TEST_P(KernelVerify, MatchesScalarReference) {
  const KernelCase& c = GetParam();
  Machine m(config_for(c));
  auto kernel = make_kernel(c.kernel);
  const Program prog = kernel->build(m, c.bytes_per_lane);
  const RunStats stats = m.run(prog);

  const VerifyResult vr = kernel->verify(m);
  EXPECT_LE(vr.max_rel_err, kernel->tolerance())
      << "kernel result mismatch on " << m.config().name();
  if (kernel->tolerance() == 0.0) {
    EXPECT_EQ(vr.max_rel_err, 0.0);
  }
  // Every output row is checked exactly once: a streamed golden that skips
  // or repeats a row changes the count.
  EXPECT_EQ(vr.checked, output_elems(c, m.config()));

  // Timing sanity: the run took at least as long as the FPU-bound floor.
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_GT(stats.flops, 0u);
  EXPECT_LE(stats.fpu_util(), 1.0);
  EXPECT_GE(stats.flops, kernel->useful_flops());
}

std::vector<KernelCase> all_cases() {
  std::vector<KernelCase> cases;
  const char* kernels[] = {"fmatmul", "fconv2d", "jacobi2d",     "fdotproduct",
                           "exp",     "softmax", "spmv",         "stream_triad",
                           "axpy"};
  for (const char* k : kernels) {
    // AraXL at two scales, two weak-scaling points.
    cases.push_back({k, MachineKind::kAraXL, 8, 64});
    cases.push_back({k, MachineKind::kAraXL, 16, 128});
    // Ara2 baseline.
    cases.push_back({k, MachineKind::kAra2, 8, 64});
    // N = 1096 on 8 lanes: more than one strip at every LMUL (VLMAX is
    // 128 x LMUL there), and never a multiple of the strip VL.
    cases.push_back({k, MachineKind::kAraXL, 8, 1096});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelVerify, testing::ValuesIn(all_cases()),
                         case_name);

// The big configurations are exercised once per kernel (64-lane AraXL at a
// long-vector point) to keep test time reasonable while still covering the
// paper's headline machine.
class KernelVerify64L : public testing::TestWithParam<const char*> {};

TEST_P(KernelVerify64L, MatchesScalarReferenceAt64Lanes) {
  Machine m(MachineConfig::araxl(64));
  auto kernel = make_kernel(GetParam());
  const Program prog = kernel->build(m, 256);
  m.run(prog);
  const VerifyResult vr = kernel->verify(m);
  EXPECT_LE(vr.max_rel_err, kernel->tolerance());
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelVerify64L,
                         testing::Values("fmatmul", "fconv2d", "jacobi2d",
                                         "fdotproduct", "exp", "softmax"));

TEST(VerifyResult, NanErrorFailsEveryTolerance) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  VerifyResult r;
  r.add(2.0, 2.0);
  r.add(kInf, kInf);  // an exact infinite match is no error
  EXPECT_EQ(r.max_rel_err, 0.0);
  r.add(0.5, 0.25);
  EXPECT_EQ(r.max_rel_err, 0.25);
  r.add(1.0, kNan);
  EXPECT_EQ(r.max_rel_err, kInf);
  r.add(1.0, 1.0);  // a later good element does not hide it
  EXPECT_EQ(r.max_rel_err, kInf);
  EXPECT_EQ(r.checked, 5u);
  EXPECT_FALSE(r.ok(std::numeric_limits<double>::max()));

  VerifyResult inf_golden;
  inf_golden.add(kInf, 1.0);  // inf / inf is NaN, so it counts as +inf too
  EXPECT_EQ(inf_golden.max_rel_err, kInf);
}

// A machine that never ran, over memory whose every double is a NaN
// (all bytes 0xFF), must fail every registered kernel's verify.
TEST(KernelVerifyNan, UnrunNanFilledMachineFails) {
  std::vector<std::unique_ptr<Kernel>> kernels = make_all_kernels();
  for (auto& k : make_extension_kernels()) kernels.push_back(std::move(k));
  ASSERT_EQ(kernels.size(), 9u);
  for (const auto& kernel : kernels) {
    Machine m(MachineConfig::araxl(8));
    m.mem().fill(0xFF);
    static_cast<void>(kernel->build(m, 64));
    const VerifyResult vr = kernel->verify(m);
    EXPECT_FALSE(vr.ok(kernel->tolerance()))
        << kernel->name() << ": max_rel_err " << vr.max_rel_err;
    EXPECT_GT(vr.checked, 0u) << kernel->name();
  }
}

}  // namespace
}  // namespace araxl
