// Integration tests: every Table-I kernel, functionally verified against
// its scalar golden reference on multiple machine configurations and
// weak-scaling points, on both AraXL and the Ara2 baseline.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <utility>

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

// ---- staged inputs ---------------------------------------------------------

TEST(InputChecksum, CatchesBitFlipsSwapsAndNanPayloads) {
  std::vector<double> v = random_doubles(4096, -1.0, 1.0, 9);
  v[100] = std::numeric_limits<double>::quiet_NaN();
  v[7] = 0.5;
  v[8] = -0.5;
  const auto sum = [&v] { return input_checksum(v.data(), v.size()); };
  const std::uint64_t base = sum();
  const auto flip = [&v](std::size_t i, std::uint64_t mask) {
    v[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(v[i]) ^ mask);
  };

  for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{2047},
                              std::size_t{4095}}) {
    for (unsigned b = 0; b < 64; ++b) {
      flip(i, std::uint64_t{1} << b);
      EXPECT_NE(sum(), base) << "word " << i << " bit " << b;
      flip(i, std::uint64_t{1} << b);
    }
  }
  ASSERT_EQ(sum(), base);

  // Swapped elements: neighbours, far apart, and x with -x.
  for (const auto& [i, j] : {std::pair<std::size_t, std::size_t>{3, 4},
                             {10, 3000}, {7, 8}}) {
    std::swap(v[i], v[j]);
    EXPECT_NE(sum(), base) << "swap " << i << "," << j;
    std::swap(v[i], v[j]);
  }

  // Another NaN payload is still a NaN, but not the staged input.
  for (const std::uint64_t mask : {std::uint64_t{1}, std::uint64_t{0x5a5a5}}) {
    flip(100, mask);
    EXPECT_TRUE(std::isnan(v[100]));
    EXPECT_NE(sum(), base) << "payload mask " << mask;
    flip(100, mask);
  }

  // Every word shifted by one position.
  std::vector<double> shifted(v.size());
  std::copy(v.begin(), v.end() - 1, shifted.begin() + 1);
  shifted[0] = v.back();
  EXPECT_NE(input_checksum(shifted.data(), shifted.size()), base);
  EXPECT_EQ(sum(), base);
}

// verify() proves every staged input unchanged before it computes a golden:
// one flipped byte in any read-only input region, or in the output, fails
// an otherwise clean run of every kernel.
TEST(KernelInputIntegrity, FlippedInputOrOutputByteFailsVerify) {
  std::vector<std::unique_ptr<Kernel>> kernels = make_all_kernels();
  for (auto& k : make_extension_kernels()) kernels.push_back(std::move(k));
  ASSERT_EQ(kernels.size(), 9u);
  // Kernel layouts start at 1 MiB; at 64 B/lane on 8 lanes each fits the
  // next MiB.
  constexpr std::uint64_t kBase = 1u << 20;
  constexpr std::uint64_t kWindow = 1u << 20;
  for (const auto& kernel : kernels) {
    SCOPED_TRACE(std::string(kernel->name()));
    Machine m(MachineConfig::araxl(8));
    const Program prog = kernel->build(m, 64);
    const std::uint8_t* window = m.mem().raw(kBase, kWindow);
    const std::vector<std::uint8_t> before(window, window + kWindow);
    m.run(prog);
    const double tol = kernel->tolerance();
    ASSERT_TRUE(kernel->verify(m).ok(tol));

    ASSERT_FALSE(kernel->staged_inputs().empty());
    for (const Kernel::StagedInput& in : kernel->staged_inputs()) {
      ASSERT_LE(in.addr + in.words * 8, kBase + kWindow);
      std::uint8_t* byte = m.mem().raw(in.addr + in.words / 2 * 8 + 3, 1);
      *byte ^= 0x10;
      const VerifyResult vr = kernel->verify(m);
      EXPECT_FALSE(vr.ok(tol)) << "input at " << in.addr;
      EXPECT_EQ(vr.checked, 0u) << "a golden was computed from altered inputs";
      *byte ^= 0x10;
    }
    ASSERT_TRUE(kernel->verify(m).ok(tol));

    if (kernel->name() == "fdotproduct") {
      // The result is the scalar accumulator: a second program overwrites it.
      ProgramBuilder pb(m.config().effective_vlen(), "clobber");
      pb.vsetvli(1, Sew::k64, kLmul1);
      pb.vfmv_s_f(1, 1e6);
      pb.vfmv_f_s(1);
      m.run(pb.take());
    } else {
      // The lowest byte the run changed is in the output (softmax's scratch
      // lies past it). Flipping its double's top exponent bit moves the
      // value by at least half of max(|value|, 1).
      std::uint64_t off = 0;
      while (off < kWindow && window[off] == before[off]) ++off;
      ASSERT_LT(off, kWindow) << "the run changed no memory";
      *m.mem().raw(kBase + off / 8 * 8 + 7, 1) ^= 0x40;
    }
    const VerifyResult vr = kernel->verify(m);
    EXPECT_FALSE(vr.ok(tol));
    EXPECT_GT(vr.checked, 0u);
  }
}

// fconv2d and jacobi2d at 512 B/lane on 256 lanes need about 68 MiB, more
// than the default 64 MiB: build() refuses before writing any input.
TEST(KernelFootprint, ProblemLargerThanMemoryThrowsAtBuild) {
  for (const char* name : {"fconv2d", "jacobi2d"}) {
    Machine m(MachineConfig::araxl(256));
    auto kernel = make_kernel(name);
    try {
      static_cast<void>(kernel->build(m, 512));
      ADD_FAILURE() << name << " built past the end of memory";
    } catch (const FootprintError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::string("kernel ") + name + " needs "), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("mem_size_bytes is 67108864"), std::string::npos) << msg;
    }
    EXPECT_TRUE(kernel->staged_inputs().empty()) << name;
  }
}

}  // namespace
}  // namespace araxl
