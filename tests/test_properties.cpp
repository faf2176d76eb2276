// Property-based tests.
//
// 1. Cross-topology equivalence: a random (but valid) vector program must
//    produce bit-identical architectural state (all registers + memory) on
//    machines with different cluster topologies and mask layouts but the
//    same VLEN — the mapping/layout machinery must be functionally
//    invisible.
// 2. Paper-claim properties over parameter sweeps: weak scaling, long-
//    vector utilization floors, latency-tolerance bounds, medium-vector
//    setup-time ordering, and alignment robustness.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "driver/registry.hpp"
#include "driver/runner.hpp"
#include "driver/spec.hpp"
#include "kernels/common.hpp"
#include "machine/machine.hpp"

namespace araxl {
namespace {

constexpr std::uint64_t kBase = 0x10000;
constexpr std::uint64_t kRegionBytes = 64 * 1024;

// ---- 1. cross-topology equivalence fuzzer -----------------------------------

/// Generates a random valid program using even registers v4..v28, v0 as a
/// mask (written only by compares), and memory traffic inside the region.
Program random_program(std::uint64_t vlen_bits, std::uint64_t seed) {
  Rng rng(seed);
  ProgramBuilder pb(vlen_bits, "fuzz" + std::to_string(seed));
  const auto reg = [&]() { return 4 + 2 * static_cast<unsigned>(rng.next_below(13)); };
  const auto addr = [&]() { return kBase + 8 * rng.next_below(kRegionBytes / 16); };
  const auto fs = [&]() { return rng.next_double(-2.0, 2.0); };

  const Lmul lmul = rng.next_below(2) == 0 ? kLmul1 : kLmul2;
  std::uint64_t vl =
      pb.vsetvli(1 + rng.next_below(pb.vlmax(Sew::k64, lmul)), Sew::k64, lmul);
  bool mask_valid = false;

  const auto distinct = [&](unsigned avoid) {
    unsigned r = reg();
    while (r == avoid) r = reg();
    return r;
  };

  const unsigned ops = 50 + static_cast<unsigned>(rng.next_below(50));
  for (unsigned i = 0; i < ops; ++i) {
    switch (rng.next_below(26)) {
      case 0: pb.vle(reg(), addr()); break;
      case 1: pb.vse(reg(), addr()); break;
      case 2: pb.vfadd_vv(reg(), reg(), reg()); break;
      case 3: pb.vfsub_vf(reg(), reg(), fs()); break;
      case 4: pb.vfmul_vv(reg(), reg(), reg()); break;
      case 5: pb.vfmacc_vf(reg(), fs(), reg()); break;
      case 6: pb.vfmax_vf(reg(), reg(), fs()); break;
      case 7: pb.vfslide1down(reg(), reg(), fs()); break;
      case 8: {
        const unsigned vd = reg();
        pb.vfslide1up(vd, distinct(vd), fs());
        break;
      }
      case 9: pb.vmfgt_vf(0, reg(), fs()); mask_valid = true; break;
      case 10:
        if (mask_valid) pb.vfmerge_vfm(reg(), reg(), fs());
        break;
      case 11:
        if (mask_valid) pb.vfadd_vf(reg(), reg(), fs(), /*masked=*/true);
        break;
      case 12: pb.vfredusum(30, reg(), 31); break;
      case 13: pb.vid_v(reg()); break;
      case 14: {
        // Strided load within bounds: stride 16, vl elements.
        pb.vlse(reg(), kBase + 8 * rng.next_below(64), 16);
        break;
      }
      case 15: {
        const Lmul ml = rng.next_below(2) == 0 ? kLmul1 : kLmul2;
        vl = pb.vsetvli(1 + rng.next_below(pb.vlmax(Sew::k64, ml)), Sew::k64, ml);
        mask_valid = false;  // layout of v0 under new vtype is unchanged, but
                             // keep the generator conservative
        break;
      }
      // --- extension coverage -------------------------------------------
      case 16: pb.vmul_vx(reg(), reg(), static_cast<std::int64_t>(rng.next_below(7))); break;
      case 17: pb.vmax_vv(reg(), reg(), reg()); break;
      case 18: pb.vrsub_vx(reg(), reg(), 13); break;
      case 19: {
        // Gather with in-range indices derived from vid & mask.
        const unsigned idx = reg();
        pb.vid_v(idx);
        pb.vand_vx(idx, idx, 0xF);
        const unsigned vd = reg();
        unsigned vs2 = distinct(vd);
        while (vs2 == idx) vs2 = distinct(vd);
        if (idx != vd) pb.vrgather_vv(vd, vs2, idx);
        break;
      }
      case 20: {
        pb.vmfgt_vf(2, reg(), fs());  // mask into v2
        const unsigned vd = reg();
        unsigned vs2 = distinct(vd);
        pb.vcompress_vm(vd, vs2, 2);
        break;
      }
      case 21: {
        pb.vmflt_vf(2, reg(), fs());
        const unsigned vd = reg();
        pb.viota_m(vd, 2);
        break;
      }
      case 22: pb.vfredmax(30, reg(), 31); break;
      case 23: pb.vfsqrt_v(reg(), reg()); break;
      case 24: {
        // Strided store into the upper half of the region (stride 24 x the
        // largest vl stays in bounds; exercises the bulk scatter path).
        pb.vsse(reg(), kBase + kRegionBytes / 2 + 8 * rng.next_below(64), 24);
        break;
      }
      case 25: {
        // Descending strided load ending exactly at the region base.
        pb.vlse(reg(), kBase + 8 * (vl - 1), -8);
        break;
      }
    }
  }
  (void)vl;
  return pb.take();
}

void init_machine(Machine& m, std::uint64_t seed) {
  m.mem().store_doubles(kBase,
                        random_doubles(kRegionBytes / 8, -2.0, 2.0, seed + 1000));
  // Registers start at deterministic values so reads-before-writes agree.
  const std::uint64_t epr = m.config().effective_vlen() / 64;
  for (unsigned v = 0; v < kNumVregs; ++v) {
    for (std::uint64_t i = 0; i < epr; ++i) {
      m.vrf().write_f64(v, i, static_cast<double>(v) + 0.001 * static_cast<double>(i));
    }
  }
}

class CrossTopology : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossTopology, SameArchitecturalState) {
  const std::uint64_t seed = GetParam();
  // Four machines, same VLEN (8192), different topologies/mask layouts:
  // 2x4 AraXL, lumped 8-lane Ara2, a 16-lane AraXL with reduced VLEN, and
  // a 4x2-lane-cluster AraXL.
  MachineConfig a = MachineConfig::araxl(8);
  MachineConfig b = MachineConfig::ara2(8);
  MachineConfig c = MachineConfig::araxl(16);
  c.vlen_bits = 8192;
  c.validate();
  MachineConfig d = MachineConfig::araxl_shaped(4, 2);  // 2-lane clusters
  d.vlen_bits = 8192;
  d.validate();
  // Hierarchical: the group level must be architecturally invisible (the
  // mapping flattens it), so a 2x4x4 machine agrees bit-for-bit too.
  MachineConfig e = MachineConfig::araxl_hier(2, 4, 4);
  e.vlen_bits = 8192;
  e.validate();

  const Program prog = random_program(8192, seed);
  // Machines are non-movable (self-referencing engines): heap-allocate.
  std::vector<std::unique_ptr<Machine>> machine_ptrs;
  machine_ptrs.push_back(std::make_unique<Machine>(a));
  machine_ptrs.push_back(std::make_unique<Machine>(b));
  machine_ptrs.push_back(std::make_unique<Machine>(c));
  machine_ptrs.push_back(std::make_unique<Machine>(d));
  machine_ptrs.push_back(std::make_unique<Machine>(e));
  const auto machines = [&](std::size_t i) -> Machine& { return *machine_ptrs[i]; };
  for (auto& m : machine_ptrs) {
    init_machine(*m, seed);
    m->run(prog);
  }

  // v0 and v2 hold masks: their *physical* bytes legitimately differ
  // between the lane-local (AraXL) and standard (Ara2) layouts — the
  // paper's §III-B.5 point. Their logical effect is compared through the
  // results of merges, masked ops, viota and vcompress in regular
  // registers, so the raw comparison skips the mask registers.
  const std::uint64_t epr = 8192 / 64;
  for (unsigned v = 1; v < kNumVregs; ++v) {
    if (v == 2) continue;  // mask register (see above)
    for (std::uint64_t i = 0; i < epr; ++i) {
      const std::uint64_t ref = machines(0).vrf().read_elem(v, i, 8);
      EXPECT_EQ(machines(1).vrf().read_elem(v, i, 8), ref)
          << "v" << v << "[" << i << "] differs on " << b.name();
      EXPECT_EQ(machines(2).vrf().read_elem(v, i, 8), ref)
          << "v" << v << "[" << i << "] differs on 16L/8Kib";
      EXPECT_EQ(machines(3).vrf().read_elem(v, i, 8), ref)
          << "v" << v << "[" << i << "] differs on 4x2L/8Kib";
      EXPECT_EQ(machines(4).vrf().read_elem(v, i, 8), ref)
          << "v" << v << "[" << i << "] differs on 2x4x4L/8Kib";
    }
  }
  for (std::uint64_t off = 0; off < kRegionBytes; off += 8) {
    const auto ref = machines(0).mem().load<std::uint64_t>(kBase + off);
    ASSERT_EQ(machines(1).mem().load<std::uint64_t>(kBase + off), ref)
        << "memory differs at offset " << off;
    ASSERT_EQ(machines(2).mem().load<std::uint64_t>(kBase + off), ref)
        << "memory differs at offset " << off;
    ASSERT_EQ(machines(3).mem().load<std::uint64_t>(kBase + off), ref)
        << "memory differs at offset " << off;
    ASSERT_EQ(machines(4).mem().load<std::uint64_t>(kBase + off), ref)
        << "memory differs at offset " << off;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, CrossTopology, testing::Range<std::uint64_t>(0, 12));

// ---- 2. paper-claim properties -----------------------------------------------

RunStats run_kernel_on(const MachineConfig& cfg, const char* name,
                       std::uint64_t bpl) {
  Machine m(cfg);
  auto k = make_kernel(name);
  const Program p = k->build(m, bpl);
  return m.run(p);
}

TEST(PaperClaims, FmatmulLongVectorUtilization) {
  // "reaching more than 99% utilization on sufficiently large matrix
  // multiplications even with 64 lanes".
  for (unsigned lanes : {8u, 16u, 32u, 64u}) {
    const RunStats s = run_kernel_on(MachineConfig::araxl(lanes), "fmatmul", 512);
    EXPECT_GT(s.fpu_util(), 0.985) << lanes << " lanes";
  }
}

TEST(PaperClaims, Fconv2dUtilization97) {
  const RunStats s = run_kernel_on(MachineConfig::araxl(64), "fconv2d", 512);
  EXPECT_GT(s.fpu_util(), 0.95);
  EXPECT_LT(s.fpu_util(), 0.99);
}

TEST(PaperClaims, WeakScalingIsFlatForComputeKernels) {
  // Under weak scaling, cycles should stay ~constant as lanes grow for the
  // compute-bound kernels (that IS linear performance scaling).
  for (const char* k : {"fmatmul", "fconv2d", "jacobi2d", "exp"}) {
    const Cycle c8 = run_kernel_on(MachineConfig::araxl(8), k, 256).cycles;
    const Cycle c64 = run_kernel_on(MachineConfig::araxl(64), k, 256).cycles;
    EXPECT_LT(static_cast<double>(c64) / static_cast<double>(c8), 1.10) << k;
  }
}

TEST(PaperClaims, ReductionKernelsScaleSublinearly) {
  // fdotproduct and softmax lose ground at 64 lanes (paper: 6.1x / 7.3x).
  for (const char* k : {"fdotproduct", "softmax"}) {
    const RunStats s8 = run_kernel_on(MachineConfig::ara2(8), k, 512);
    const RunStats s64 = run_kernel_on(MachineConfig::araxl(64), k, 512);
    const double scaling = s64.flop_per_cycle() / s8.flop_per_cycle();
    EXPECT_GT(scaling, 5.5) << k;
    EXPECT_LT(scaling, 7.9) << k;
  }
}

TEST(PaperClaims, LongerVectorsRecoverDotproductScaling) {
  // §IV-B: 16384 B/lane strip-mined dotproduct reaches ~7.6x.
  const RunStats s8 = run_kernel_on(MachineConfig::ara2(8), "fdotproduct", 16384);
  const RunStats s64 =
      run_kernel_on(MachineConfig::araxl(64), "fdotproduct", 16384);
  const double scaling = s64.flop_per_cycle() / s8.flop_per_cycle();
  EXPECT_GT(scaling, 7.3);
  EXPECT_LE(scaling, 8.0);
}

TEST(PaperClaims, UtilizationGrowsWithVectorLength) {
  for (const char* k : {"fmatmul", "fconv2d", "jacobi2d", "exp"}) {
    double prev = 0.0;
    for (std::uint64_t bpl : {64ull, 128ull, 256ull, 512ull}) {
      const double util = run_kernel_on(MachineConfig::araxl(64), k, bpl).fpu_util();
      EXPECT_GE(util, prev - 0.01) << k << " at " << bpl;
      prev = util;
    }
  }
}

TEST(PaperClaims, AraXLSetupTimeWorseThanAra2AtMediumVectors) {
  // §IV-B: at 64 B/lane the effect "is worse in AraXL since the newly
  // designed interfaces increase the vector instruction setup time".
  for (const char* k : {"fmatmul", "fconv2d", "jacobi2d"}) {
    const double a2 = run_kernel_on(MachineConfig::ara2(8), k, 64).fpu_util();
    const double xl = run_kernel_on(MachineConfig::araxl(8), k, 64).fpu_util();
    EXPECT_LT(xl, a2) << k;
  }
}

TEST(PaperClaims, LatencyToleranceInLongVectorRegime) {
  // Fig. 7: each interface cut costs < 3 utilization points at 512 B/lane.
  const MachineConfig base = MachineConfig::araxl(64);
  for (const char* k : {"fmatmul", "fconv2d", "jacobi2d", "fdotproduct", "exp",
                        "softmax"}) {
    const double u0 = run_kernel_on(base, k, 512).fpu_util();
    for (int which = 0; which < 3; ++which) {
      MachineConfig mod = base;
      mod.glsu_regs = which == 0 ? 4 : 0;
      mod.reqi_regs = which == 1 ? 1 : 0;
      mod.ring_regs = which == 2 ? 1 : 0;
      const double u1 = run_kernel_on(mod, k, 512).fpu_util();
      EXPECT_LT(u0 - u1, 0.03) << k << " variant " << which;
    }
  }
}

TEST(PaperClaims, FlopAccountingMatchesKernelMath) {
  // Simulated FLOP >= the kernel's useful FLOP, and for the pure-FMA
  // fmatmul they agree exactly.
  Machine m(MachineConfig::araxl(16));
  auto k = make_kernel("fmatmul");
  const Program p = k->build(m, 128);
  const RunStats s = m.run(p);
  EXPECT_EQ(s.flops, k->useful_flops());
}

class AlignmentSweep : public testing::TestWithParam<unsigned> {};

TEST_P(AlignmentSweep, LoadStoreRoundTripAtAnyOffset) {
  const unsigned skew = GetParam();
  Machine m(MachineConfig::araxl(16));
  const std::uint64_t vl = 300;
  const auto a = random_doubles(vl, -1, 1, skew);
  const std::uint64_t src = kBase + skew * 8 + 8;
  const std::uint64_t dst = kBase + 32768 + skew * 8;
  m.mem().store_doubles(src, a);
  ProgramBuilder pb(m.config().effective_vlen(), "align");
  pb.vsetvli(vl, Sew::k64, kLmul2);
  pb.vle(8, src);
  pb.vse(8, dst);
  m.run(pb.take());
  EXPECT_EQ(m.mem().load_doubles(dst, vl), a);
}

INSTANTIATE_TEST_SUITE_P(AllLaneOffsets, AlignmentSweep,
                         testing::Values(0u, 1u, 2u, 3u, 5u, 7u, 9u, 15u));

// ---- 3. engine equivalence: event-driven vs cycle-stepped oracle ------------
//
// The event-driven kernel fast-forwards simulated time between wakeups;
// its contract is that every RunStats counter — cycles, flops, stall
// breakdowns, per-unit busy elements — is bit-for-bit identical to the
// per-cycle oracle's. Randomized programs across topologies exercise
// chaining, slides, gathers, reductions, divides (fractional rates), and
// misaligned memory traffic through both kernels.

void expect_same_stats(const RunStats& ev, const RunStats& oracle,
                       const std::string& label) {
  for (const StatField& f : kRunStatsFields) {
    if (f.has(kProvenance)) continue;
    for (std::size_t i = 0; i < f.size; ++i) {
      EXPECT_EQ(f.values(ev)[i], f.values(oracle)[i])
          << label << " " << f.csv_column(i);
    }
  }
  EXPECT_TRUE(ev == oracle) << label;
}

RunStats run_fuzz_with_mode(MachineConfig cfg, TimingMode mode,
                            const Program& prog, std::uint64_t seed) {
  cfg.timing_mode = mode;
  Machine m(cfg);
  init_machine(m, seed);
  return m.run(prog);
}

class EngineEquivalence : public testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalence, RandomProgramsBitIdenticalStats) {
  const std::uint64_t seed = GetParam();
  MachineConfig shaped = MachineConfig::araxl_shaped(4, 2);
  shaped.vlen_bits = 8192;
  shaped.validate();
  MachineConfig laggy = MachineConfig::araxl(16);
  laggy.glsu_regs = 4;
  laggy.reqi_regs = 1;
  laggy.ring_regs = 1;
  laggy.validate();
  // Hierarchical machine (2 groups x 4 clusters x 4 lanes): group-hop
  // slides, group reduction stages and the deeper REQI/GLSU pipes all ride
  // the same differential gate. Reduced VLEN keeps the oracle cheap.
  MachineConfig hier = MachineConfig::araxl_hier(2, 4, 4);
  hier.vlen_bits = 8192;
  hier.validate();
  const MachineConfig configs[] = {
      MachineConfig::araxl(8),
      MachineConfig::ara2(8),
      MachineConfig::araxl(64),
      shaped,
      laggy,
      hier,
  };
  for (const MachineConfig& cfg : configs) {
    const Program prog = random_program(cfg.effective_vlen(), seed);
    const RunStats ev =
        run_fuzz_with_mode(cfg, TimingMode::kEventDriven, prog, seed);
    const RunStats oracle =
        run_fuzz_with_mode(cfg, TimingMode::kCycleStepped, prog, seed);
    expect_same_stats(ev, oracle, cfg.name() + " seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, EngineEquivalence,
                         testing::Range<std::uint64_t>(0, 16));

TEST(EngineEquivalence, KernelsBitIdenticalStats) {
  for (const char* k : {"fmatmul", "fconv2d", "jacobi2d", "fdotproduct", "exp",
                        "softmax"}) {
    for (unsigned lanes : {8u, 64u}) {
      MachineConfig cfg = MachineConfig::araxl(lanes);
      cfg.timing_mode = TimingMode::kEventDriven;
      Machine ev(cfg);
      auto kernel = make_kernel(k);
      const Program prog = kernel->build(ev, 256);
      const RunStats s_ev = ev.run(prog);

      cfg.timing_mode = TimingMode::kCycleStepped;
      Machine oracle(cfg);
      auto kernel2 = make_kernel(k);
      const Program prog2 = kernel2->build(oracle, 256);
      const RunStats s_or = oracle.run(prog2);
      expect_same_stats(s_ev, s_or,
                        std::string(k) + " " + std::to_string(lanes) + "L");
    }
  }
}

TEST(EngineEquivalence, Hierarchical128LaneKernelsBitIdentical) {
  // The acceptance bar for the topology layer: a >64-lane hierarchical
  // machine (4 groups x 8 clusters x 4 lanes) runs real kernels end to end
  // with the event and oracle kernels bit-identical — including the
  // reduction tree's group stages (fdotproduct) and group-hop slides.
  for (const char* k : {"fdotproduct", "stream_triad", "fmatmul"}) {
    MachineConfig cfg = MachineConfig::araxl(128);
    cfg.timing_mode = TimingMode::kEventDriven;
    Machine ev(cfg);
    auto kernel = make_kernel(k);
    const Program prog = kernel->build(ev, 64);
    const RunStats s_ev = ev.run(prog);

    cfg.timing_mode = TimingMode::kCycleStepped;
    Machine oracle(cfg);
    auto kernel2 = make_kernel(k);
    const Program prog2 = kernel2->build(oracle, 64);
    const RunStats s_or = oracle.run(prog2);
    expect_same_stats(s_ev, s_or, std::string(k) + " 128L hierarchical");
  }
}

TEST(EngineEquivalence, ManyLiveChainingDepsBitIdentical) {
  // Regression: a consumer can legitimately depend on six or more live
  // producers (LMUL groups fan each source across several registers, each
  // with its own in-flight writer). The event engine's cap combiner must
  // handle an unbounded dep count, not a fixed-size line array.
  MachineConfig cfg = MachineConfig::araxl(8);
  ProgramBuilder pb(cfg.effective_vlen(), "manydeps");
  const std::uint64_t vlmax1 = pb.vlmax(Sew::k64, kLmul1);
  pb.vsetvli(vlmax1, Sew::k64, kLmul1);
  pb.vfadd_vf(8, 4, 1.0);   // FPU writer of v8
  pb.vfadd_vf(9, 5, 2.0);   // FPU writer of v9
  pb.vle(0, kBase);          // load writers of v0..v3
  pb.vle(1, kBase + 8 * vlmax1);
  pb.vle(2, kBase + 16 * vlmax1);
  pb.vle(3, kBase + 24 * vlmax1);
  pb.vsetvli(2 * vlmax1, Sew::k64, kLmul2);
  pb.vfmacc_vv(8, 0, 2);     // deps on v0,v1 (vs1), v2,v3 (vs2), v8,v9 (vd)
  const Program prog = pb.take();

  const RunStats ev = run_fuzz_with_mode(cfg, TimingMode::kEventDriven, prog, 1);
  const RunStats oracle =
      run_fuzz_with_mode(cfg, TimingMode::kCycleStepped, prog, 1);
  expect_same_stats(ev, oracle, "many live chaining deps");
}

TEST(EngineEquivalence, DriverSweepRegistryKernelsMatchOracle) {
  // Differential fuzz at sweep scale: sample topologies and programs via
  // the driver's kernel registry (every kernel in src/kernels/, including
  // the extension set the KernelsBitIdenticalStats test does not cover)
  // with freshly seeded inputs, and let the runner's oracle-check re-run
  // every driver-generated job under TimingMode::kCycleStepped and demand
  // bit-identical RunStats.
  driver::SweepSpec spec;
  spec.configs = {
      driver::parse_config_spec("araxl:8"),
      driver::parse_config_spec("ara2:8"),
      driver::parse_config_spec("araxl:4x2:vlen=8192"),
      driver::parse_config_spec("araxl:16:glsu=4:reqi=1:ring=1"),
      driver::parse_config_spec("araxl:2x4x4:vlen=8192"),  // hierarchical
  };
  spec.kernels = driver::KernelRegistry::instance().names();
  spec.bytes_per_lane = {64};
  spec.base_seed = 0xA5A5;  // new input streams, not the legacy fixed data

  driver::RunnerOptions opts;
  opts.workers = 4;
  opts.check_oracle = true;
  for (const driver::JobResult& r : driver::run_sweep(spec, opts)) {
    EXPECT_TRUE(r.ok) << r.job.config_label << "/" << r.job.kernel << ": "
                      << r.error;
  }
}

// ---- 4. loop batching: steady-state fast-forward vs the oracle --------------
//
// The event engine batches whole strip-mined iterations once two
// consecutive loop-period boundaries snapshot identically. These programs
// are built to stress exactly the edges of that detector: long steady
// loops (must batch, must stay exact through the vl tail), mid-loop vl
// changes (must fall out of batch mode), and adversarial signature
// collisions — bodies whose op signatures repeat perfectly while the
// address pattern silently changes (progression breaks, per-op deltas
// diverge, or deltas misalign with the bus), which MUST either be rejected
// by the address checks or still simulate bit-identically.
Program loop_program(std::uint64_t vlen_bits, std::uint64_t seed) {
  Rng rng(seed);
  ProgramBuilder pb(vlen_bits, "loopfuzz" + std::to_string(seed));
  const Lmul lmul = rng.next_below(2) == 0 ? kLmul1 : kLmul2;
  const std::uint64_t vlmax_b = pb.vlmax(Sew::k64, lmul);
  // Long enough that the batchable variants actually reach steady state
  // (queue backpressure takes ~a dozen iterations to saturate), short
  // enough that the per-cycle oracle stays cheap.
  const std::uint64_t iters = 14 + rng.next_below(22);
  // Half the programs end on a partial (tail) strip.
  const std::uint64_t total =
      vlmax_b * iters + (rng.next_below(2) == 0 ? 1 + rng.next_below(vlmax_b - 1) : 0);
  const std::uint64_t variant = rng.next_below(5);
  const std::uint64_t stride_bytes = vlmax_b * 8;

  std::uint64_t a = kBase;
  std::uint64_t b = kBase + kRegionBytes / 4;
  std::uint64_t c = kBase + kRegionBytes / 2;
  std::uint64_t done = 0;
  std::uint64_t iter = 0;
  while (done < total) {
    const std::uint64_t vl = pb.vsetvli(total - done, Sew::k64, lmul);
    switch (variant) {
      case 0:  // plain strip-mined triad: the must-batch case
        pb.vle(8, a);
        pb.vle(16, b);
        pb.vfmacc_vv(24, 8, 16);
        pb.vse(24, c);
        pb.scalar_cycles(2);
        a += stride_bytes;
        b += stride_bytes;
        c += stride_bytes;
        break;
      case 1: {  // mid-loop vsetvli with an iteration-dependent grant
        pb.vle(8, a);
        pb.vsetvli(1 + (iter % 7), Sew::k64, kLmul1);
        pb.vfadd_vf(16, 8, 1.5);
        pb.vsetvli(total - done, Sew::k64, lmul);
        pb.vfmul_vv(24, 8, 8);
        a += stride_bytes;
        break;
      }
      case 2:  // signature collision: identical keys, diverging per-op deltas
        pb.vle(8, a);
        pb.vle(16, b);
        pb.vfadd_vv(24, 8, 16);
        pb.vse(24, c);
        a += stride_bytes;
        b += stride_bytes / 2;  // not the common delta
        c += 8 * (iter % 3);    // not even a progression
        break;
      case 3:  // bus-misaligned deltas + store/load overlap churn
        pb.vle(8, a);
        pb.vfadd_vf(16, 8, 0.25);
        pb.vse(16, a + 8);  // overlaps the next iteration's load
        a += 24;            // not a multiple of any bus width
        break;
      default:  // batchable body with slides, reductions and scalar work
        pb.vle(8, a);
        pb.vfslide1down(16, 8, 3.25);
        pb.vfmacc_vv(24, 8, 16);
        pb.vfredusum(30, 24, 31);
        pb.scalar_cycles(1 + seed % 3);
        a += stride_bytes;
        break;
    }
    done += vl;
    ++iter;
  }
  return pb.take();
}

// ---- 4b. super-periods: drifting bus phases and long loop bodies -------------
//
// A row loop whose input pitch is not a bus multiple moves its bus phase
// every row, so no two consecutive rows dispatch alike; the phase repeats
// only every m = bus / gcd(pitch mod bus, bus) rows, and the batcher may
// engage only in super-periods of m rows. These programs drive that path:
// an unrolled f x f stencil row body (27..87 ops, so often longer than
// 64) over a pitch with an odd or small even skew, row counts that end
// mid-super-period, column strips that end on a vl tail, and a 1D strip
// loop whose drifting walk reaches its vl tail mid-super-period.
constexpr std::uint64_t kDriftBytes = 256 * 1024;

struct DriftShape {
  bool two_d = true;
  std::uint64_t chunk = 8;  ///< elements per full strip
  std::uint64_t skew = 1;   ///< pitch skew past the strip, in elements
  std::uint64_t tail = 0;   ///< elements in a final vl-tail strip (0: none)
  unsigned f = 3;           ///< stencil size (2D only)
  std::uint64_t supers = 3; ///< whole super-periods of rows/strips
  std::uint64_t extra = 0;  ///< rows/strips past them (mod the super-period)
};

DriftShape random_drift_shape(std::uint64_t seed) {
  Rng rng(seed);
  DriftShape s;
  s.two_d = rng.next_below(3) != 0;
  s.chunk = 8u << rng.next_below(2);
  s.skew = 1 + rng.next_below(6);
  s.tail = rng.next_below(2) == 0 ? 1 + rng.next_below(s.chunk - 1) : 0;
  s.f = 3 + static_cast<unsigned>(rng.next_below(4));
  s.supers = 3 + rng.next_below(3);
  s.extra = rng.next_below(1u << 10);
  return s;
}

Program drifting_program(const MachineConfig& cfg, const DriftShape& s) {
  ProgramBuilder pb(cfg.effective_vlen(), "drift");
  const std::uint64_t bus = cfg.mem_bytes_per_cycle();
  const auto super_period = [&](std::uint64_t pitch_bytes) {
    return bus / std::gcd(pitch_bytes % bus, bus);
  };
  const std::uint64_t out = kBase + kDriftBytes / 2;

  if (!s.two_d) {
    // 1D: each strip's load advances (chunk + skew) elements.
    const std::uint64_t pitch = (s.chunk + s.skew) * 8;
    const std::uint64_t m = super_period(pitch);
    const std::uint64_t total = (s.supers * m + s.extra % m) * s.chunk + s.tail;
    std::uint64_t a = kBase;
    std::uint64_t c = out;
    for (std::uint64_t done = 0; done < total;) {
      const std::uint64_t vl =
          pb.vsetvli(std::min(s.chunk, total - done), Sew::k64, kLmul1);
      pb.vle(8, a);
      pb.vfmacc_vf(16, 0.5, 8);
      pb.vse(16, c);
      pb.scalar_cycles(1);
      a += pitch;
      c += vl * 8;
      done += vl;
    }
    return pb.take();
  }

  // 2D: fconv2d-shaped f x f stencil, one column strip plus an optional
  // tail strip; the row body is 1 + f * (2f + 2) + 2 ops.
  const std::uint64_t cols = s.chunk + s.tail;
  const std::uint64_t pitch = (cols + s.f - 1 + s.skew) * 8;
  const std::uint64_t m = super_period(pitch);
  const std::uint64_t rows = s.supers * m + s.extra % m;
  for (std::uint64_t col = 0; col < cols;) {
    const std::uint64_t vl =
        pb.vsetvli(std::min(s.chunk, cols - col), Sew::k64, kLmul1);
    for (std::uint64_t r = 0; r < rows; ++r) {
      pb.vfmv_v_f(24, 0.0);
      unsigned rot = 0;
      for (unsigned dr = 0; dr < s.f; ++dr) {
        const unsigned row = 4 + dr % 2;
        pb.vle(row, kBase + (r + dr) * pitch + col * 8);
        pb.vfmacc_vf(24, 0.25, row);
        unsigned cur = row;
        for (unsigned dc = 1; dc < s.f; ++dc) {
          const unsigned nxt = 8 + rot++ % 6;
          pb.vfslide1down(nxt, cur, 0.5);
          pb.vfmacc_vf(24, 0.125, nxt);
          cur = nxt;
        }
        pb.scalar_load();
        pb.scalar_cycles(1);
      }
      pb.vse(24, out + (r * cols + col) * 8);
      pb.scalar_cycles(2);
    }
    col += vl;
  }
  return pb.take();
}

struct LoopRun {
  RunStats stats;
  InstrTrace trace;
  std::unique_ptr<Machine> machine;
};

LoopRun run_loop_with_mode(MachineConfig cfg, TimingMode mode,
                           const Program& prog, std::uint64_t seed,
                           std::uint64_t region_bytes) {
  cfg.timing_mode = mode;
  LoopRun out;
  out.machine = std::make_unique<Machine>(cfg);
  init_machine(*out.machine, seed);
  if (region_bytes > kRegionBytes) {
    out.machine->mem().store_doubles(
        kBase, random_doubles(region_bytes / 8, -2.0, 2.0, seed + 2000));
  }
  out.stats = out.machine->run(prog, &out.trace);
  return out;
}

/// Runs `prog` on both engines and expects identical stats, traces,
/// registers and memory over [kBase, kBase + region_bytes); the event
/// engine's stats go to `ev_stats` when non-null.
void expect_loop_equivalent(const MachineConfig& cfg, const Program& prog,
                            std::uint64_t seed, std::uint64_t region_bytes,
                            const std::string& label,
                            RunStats* ev_stats = nullptr) {
  const LoopRun ev =
      run_loop_with_mode(cfg, TimingMode::kEventDriven, prog, seed, region_bytes);
  const LoopRun oracle =
      run_loop_with_mode(cfg, TimingMode::kCycleStepped, prog, seed, region_bytes);
  if (ev_stats != nullptr) *ev_stats = ev.stats;
  expect_same_stats(ev.stats, oracle.stats, label);

  // Retirement order and per-instruction timestamps: the batched trace
  // replay must be indistinguishable from the oracle's per-cycle trace.
  ASSERT_EQ(ev.trace.records().size(), oracle.trace.records().size()) << label;
  for (std::size_t i = 0; i < ev.trace.records().size(); ++i) {
    const TraceRecord& x = ev.trace.records()[i];
    const TraceRecord& y = oracle.trace.records()[i];
    EXPECT_EQ(x.id, y.id) << label << " #" << i;
    EXPECT_EQ(x.prog_index, y.prog_index) << label << " #" << i;
    EXPECT_EQ(x.text, y.text) << label << " #" << i;
    EXPECT_EQ(x.issued, y.issued) << label << " #" << i << " " << x.text;
    EXPECT_EQ(x.dispatched, y.dispatched) << label << " #" << i << " " << x.text;
    EXPECT_EQ(x.first_result, y.first_result) << label << " #" << i << " " << x.text;
    EXPECT_EQ(x.completed, y.completed) << label << " #" << i << " " << x.text;
  }

  // Architectural state: the batch path re-executes every op through the
  // functional engine; registers and memory must match the oracle's.
  const std::uint64_t epr = cfg.effective_vlen() / 64;
  for (unsigned v = 1; v < kNumVregs; ++v) {
    for (std::uint64_t i = 0; i < epr; ++i) {
      ASSERT_EQ(ev.machine->vrf().read_elem(v, i, 8),
                oracle.machine->vrf().read_elem(v, i, 8))
          << label << " v" << v << "[" << i << "]";
    }
  }
  for (std::uint64_t off = 0; off < region_bytes; off += 8) {
    ASSERT_EQ(ev.machine->mem().load<std::uint64_t>(kBase + off),
              oracle.machine->mem().load<std::uint64_t>(kBase + off))
        << label << " mem offset " << off;
  }
}

/// The loop-fuzz machine shapes: flat, lumped, wide, 2-lane clusters,
/// latency-knobbed and hierarchical (snapshots taken on machines whose
/// descriptors differ from every flat config).
std::vector<MachineConfig> loop_configs(bool include_wide) {
  MachineConfig shaped = MachineConfig::araxl_shaped(4, 2);
  shaped.vlen_bits = 8192;
  shaped.validate();
  MachineConfig laggy = MachineConfig::araxl(16);
  laggy.glsu_regs = 4;
  laggy.reqi_regs = 1;
  laggy.ring_regs = 1;
  laggy.validate();
  MachineConfig hier = MachineConfig::araxl_hier(2, 4, 4);
  hier.vlen_bits = 8192;
  hier.validate();
  std::vector<MachineConfig> out = {MachineConfig::araxl(8), MachineConfig::ara2(8)};
  if (include_wide) out.push_back(MachineConfig::araxl(64));
  out.insert(out.end(), {shaped, laggy, hier});
  return out;
}

class LoopEquivalence : public testing::TestWithParam<std::uint64_t> {};

TEST_P(LoopEquivalence, BatchedLoopsBitIdenticalToOracle) {
  const std::uint64_t seed = GetParam();
  for (const MachineConfig& cfg : loop_configs(/*include_wide=*/true)) {
    const Program prog = loop_program(cfg.effective_vlen(), seed);
    expect_loop_equivalent(cfg, prog, seed, kRegionBytes,
                           cfg.name() + " loopseed " + std::to_string(seed));
  }
}

TEST_P(LoopEquivalence, DriftingPhaseSuperPeriodsBitIdenticalToOracle) {
  const std::uint64_t seed = GetParam();
  const DriftShape shape = random_drift_shape(seed);
  for (const MachineConfig& cfg : loop_configs(/*include_wide=*/false)) {
    expect_loop_equivalent(cfg, drifting_program(cfg, shape), seed, kDriftBytes,
                           cfg.name() + " driftseed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, LoopEquivalence,
                         testing::Range<std::uint64_t>(0, 15));

TEST(LoopEquivalence, LongDriftingRowBodiesBatchInSuperPeriods) {
  // The fuzz above is only meaningful if super-periods engage: an 87-op
  // row body over an odd pitch, ending
  // mid-super-period and then on a vl-tail strip, must batch — and stay
  // exact — on every loop-fuzz machine.
  DriftShape stencil;
  stencil.f = 6;
  stencil.skew = 1;
  stencil.tail = 3;
  stencil.extra = 5;
  // A 1D strip loop whose drifting walk reaches its vl tail mid-super-period.
  DriftShape strip = stencil;
  strip.two_d = false;
  strip.chunk = 16;
  strip.supers = 16;  // the queues take ~10 super-periods to saturate
  for (const MachineConfig& cfg : loop_configs(/*include_wide=*/false)) {
    for (const DriftShape& shape : {stencil, strip}) {
      const std::string label =
          cfg.name() + (shape.two_d ? " stencil" : " strip");
      RunStats ev;
      expect_loop_equivalent(cfg, drifting_program(cfg, shape), 1, kDriftBytes,
                             label, &ev);
      EXPECT_GT(ev.batched_iterations, 0u) << label;
    }
  }
}

TEST(EngineEquivalence, TracesBitIdentical) {
  // Retirement order and per-instruction trace timestamps must match too,
  // not just the aggregate counters.
  MachineConfig cfg = MachineConfig::araxl(16);
  const Program prog = random_program(cfg.effective_vlen(), 7);

  const auto traced = [&](TimingMode mode) {
    MachineConfig c = cfg;
    c.timing_mode = mode;
    Machine m(c);
    init_machine(m, 7);
    InstrTrace trace;
    m.run(prog, &trace);
    return trace;
  };
  const InstrTrace ev = traced(TimingMode::kEventDriven);
  const InstrTrace oracle = traced(TimingMode::kCycleStepped);
  ASSERT_EQ(ev.records().size(), oracle.records().size());
  for (std::size_t i = 0; i < ev.records().size(); ++i) {
    const TraceRecord& a = ev.records()[i];
    const TraceRecord& b = oracle.records()[i];
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_EQ(a.issued, b.issued) << i << " " << a.text;
    EXPECT_EQ(a.dispatched, b.dispatched) << i << " " << a.text;
    EXPECT_EQ(a.first_result, b.first_result) << i << " " << a.text;
    EXPECT_EQ(a.completed, b.completed) << i << " " << a.text;
  }
}

}  // namespace
}  // namespace araxl
