// Unit tests: ISA layer — SEW, vtype/VLMAX semantics, opcode property
// table invariants, program builder validation, disassembler.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "isa/disasm.hpp"
#include "isa/program.hpp"

namespace araxl {
namespace {

TEST(Sew, BitsAndBytes) {
  EXPECT_EQ(sew_bits(Sew::k8), 8u);
  EXPECT_EQ(sew_bits(Sew::k64), 64u);
  EXPECT_EQ(sew_bytes(Sew::k32), 4u);
  EXPECT_EQ(sew_from_bits(16), Sew::k16);
  EXPECT_THROW(sew_from_bits(128), ContractViolation);
}

TEST(Vtype, VlmaxBasics) {
  // VLEN=16384 (16-lane AraXL): e64/m1 -> 256 elements.
  EXPECT_EQ(vlmax(16384, {Sew::k64, kLmul1}), 256u);
  EXPECT_EQ(vlmax(16384, {Sew::k64, kLmul8}), 2048u);
  EXPECT_EQ(vlmax(16384, {Sew::k32, kLmul1}), 512u);
  EXPECT_EQ(vlmax(16384, {Sew::k64, kLmulF2}), 128u);
}

TEST(Vtype, RvvMaximumReached) {
  // The RVV 1.0 ceiling the paper reaches: 64 Kibit/register at 64 lanes =>
  // 8192 DP elements per register.
  EXPECT_EQ(vlmax(kMaxVlenBits, {Sew::k64, kLmul1}), 1024u);
  EXPECT_EQ(vlmax(kMaxVlenBits, {Sew::k64, kLmul8}), 8192u);
}

TEST(Vtype, VsetvlClamps) {
  EXPECT_EQ(vsetvl_result(16384, 100, {Sew::k64, kLmul1}), 100u);
  EXPECT_EQ(vsetvl_result(16384, 100000, {Sew::k64, kLmul1}), 256u);
  EXPECT_EQ(vsetvl_result(16384, 0, {Sew::k64, kLmul1}), 0u);
}

TEST(Vtype, InvalidVlenRejected) {
  EXPECT_THROW(vlmax(100, {Sew::k64, kLmul1}), ContractViolation);
  EXPECT_THROW(vlmax(131072, {Sew::k64, kLmul1}), ContractViolation);
}

TEST(Vtype, Names) {
  EXPECT_EQ(vtype_name({Sew::k64, kLmul4}), "e64,m4");
  EXPECT_EQ(vtype_name({Sew::k32, kLmulF4}), "e32,mf4");
}

TEST(Lmul, GroupRegs) {
  EXPECT_EQ(kLmul1.group_regs(), 1u);
  EXPECT_EQ(kLmul8.group_regs(), 8u);
  EXPECT_EQ(kLmulF8.group_regs(), 1u);
  EXPECT_TRUE(kLmulF2.fractional());
  EXPECT_FALSE(kLmul2.fractional());
}

TEST(OpSpec, TableInvariants) {
  // Walk every opcode: the property table must be self-consistent.
  for (unsigned op = 0; op < kNumOps; ++op) {
    const OpSpec& s = op_spec(static_cast<Op>(op));
    EXPECT_FALSE(s.mnemonic.empty());
    if (s.reads_mem || s.writes_mem) {
      EXPECT_TRUE(s.unit == Unit::kLoad || s.unit == Unit::kStore)
          << s.mnemonic;
    }
    if (s.is_reduction) {
      EXPECT_EQ(s.unit, Unit::kFpu) << s.mnemonic;
    }
    if (s.is_slide) {
      EXPECT_EQ(s.unit, Unit::kSldu) << s.mnemonic;
    }
    if (s.flops_per_elem > 0) {
      EXPECT_EQ(s.unit, Unit::kFpu) << s.mnemonic;
    }
    if (s.writes_mask) {
      EXPECT_TRUE(s.writes_vd) << s.mnemonic;
    }
  }
}

TEST(OpSpec, FmaCountsTwoFlops) {
  EXPECT_EQ(op_spec(Op::kVfmaccVV).flops_per_elem, 2);
  EXPECT_EQ(op_spec(Op::kVfmaddVV).flops_per_elem, 2);
  EXPECT_EQ(op_spec(Op::kVfaddVV).flops_per_elem, 1);
  EXPECT_EQ(op_spec(Op::kVmfleVV).flops_per_elem, 0);
  EXPECT_EQ(op_spec(Op::kVle).flops_per_elem, 0);
}

TEST(Builder, RequiresVsetvliFirst) {
  ProgramBuilder pb(16384, "t");
  EXPECT_THROW(pb.vfadd_vv(8, 4, 0), ContractViolation);
}

TEST(Builder, GrantsMinOfAvlAndVlmax) {
  ProgramBuilder pb(16384, "t");
  EXPECT_EQ(pb.vsetvli(1000, Sew::k64, kLmul1), 256u);
  EXPECT_EQ(pb.vsetvli(100, Sew::k64, kLmul1), 100u);
  EXPECT_EQ(pb.vl(), 100u);
}

TEST(Builder, EnforcesGroupAlignment) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul4);
  EXPECT_THROW(pb.vfadd_vv(9, 4, 0), ContractViolation);   // vd not 4-aligned
  EXPECT_THROW(pb.vfadd_vv(8, 5, 0), ContractViolation);   // vs2 not aligned
  EXPECT_NO_THROW(pb.vfadd_vv(8, 4, 0));
}

TEST(Builder, ScalarMoveExemptFromAlignment) {
  ProgramBuilder pb(65536, "t");
  pb.vsetvli(16, Sew::k64, kLmul8);
  EXPECT_NO_THROW(pb.vfmv_f_s(25));   // single-element read
  EXPECT_NO_THROW(pb.vfredusum(25, 16, 24));
}

TEST(Builder, MaskedOpMayNotWriteV0) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  EXPECT_THROW(pb.vfadd_vv(0, 4, 8, /*masked=*/true), ContractViolation);
  EXPECT_NO_THROW(pb.vfadd_vv(4, 4, 8, /*masked=*/true));
}

TEST(Builder, SlideOverlapRejected) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  EXPECT_THROW(pb.vfslide1up(8, 8, 0.0), ContractViolation);
  EXPECT_NO_THROW(pb.vfslide1down(8, 8, 0.0));  // down may overlap
}

TEST(Builder, RegisterRangeChecked) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  EXPECT_THROW(pb.vfadd_vv(32, 0, 0), ContractViolation);
  EXPECT_THROW(pb.vle(40, 0), ContractViolation);
}

TEST(Builder, CountsOps) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  pb.vle(8, 0x1000);
  pb.vfadd_vv(12, 8, 8);
  pb.scalar_cycles(3);
  const Program p = pb.take();
  EXPECT_EQ(p.ops.size(), 4u);
  EXPECT_EQ(p.vinstr_count(), 3u);  // vsetvli counts as a vector instruction
  EXPECT_EQ(p.scalar_op_count(), 1u);
}

TEST(Builder, TakeResets) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  (void)pb.take();
  EXPECT_THROW(pb.vfadd_vv(8, 4, 0), ContractViolation);  // needs new vsetvli
}

TEST(Builder, ZeroScalarCyclesElided) {
  ProgramBuilder pb(16384, "t");
  pb.scalar_cycles(0);
  EXPECT_EQ(pb.take().ops.size(), 0u);
}

// ---- loop-region selection ---------------------------------------------------

std::vector<OpKey> keys_of(const Program& p) {
  std::vector<OpKey> keys;
  for (const ProgOp& op : p.ops) keys.push_back(op_key(op, 16384));
  return keys;
}

/// fconv2d's row loop: per output row one accumulator reset, seven input
/// rows of (load, FMA, 6 x (slide, FMA), scalar reload) and a store —
/// 115 ops, whose first 32 (two input rows) repeat 3.5 times inside it.
Program conv_rows(unsigned rows, std::uint64_t pitch) {
  ProgramBuilder pb(16384, "conv");
  pb.vsetvli(64, Sew::k64, kLmul2);
  for (unsigned r = 0; r < rows; ++r) {
    pb.vfmv_v_f(24, 0.0);
    unsigned rot = 0;
    for (unsigned dr = 0; dr < 7; ++dr) {
      const unsigned row = dr % 2 == 0 ? 4 : 6;
      pb.vle(row, 0x10000 + (r + dr) * pitch);
      pb.vfmacc_vf(24, 1.0, row);
      unsigned cur = row;
      for (unsigned dc = 1; dc < 7; ++dc) {
        const unsigned nxt = 8 + 2 * (rot++ % 6);
        pb.vfslide1down(nxt, cur, 0.0);
        pb.vfmacc_vf(24, 1.0, nxt);
        cur = nxt;
      }
      pb.scalar_load();
      pb.scalar_cycles(1);
    }
    pb.vse(24, 0x800000 + r * 512);
    pb.scalar_cycles(2);
  }
  return pb.take();
}

TEST(LoopRegions, PicksTheRowBodyOverItsInnerRepeat) {
  const Program p = conv_rows(16, 70 * 8);
  const std::vector<LoopRegion> regions = find_loop_regions(keys_of(p));
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].period, 115u);
  EXPECT_EQ(regions[0].start, 1u);
  EXPECT_EQ(regions[0].end, p.ops.size());
  // Capped below the row length, only the inner repeat is left to find.
  for (const LoopRegion& r : find_loop_regions(keys_of(p), 64)) {
    EXPECT_EQ(r.period, 32u);
  }
}

TEST(LoopRegions, SmallestPeriodWinsWhenItCoversTheRegion) {
  // A 4-op body repeated 40 times is also periodic at 8, 12, ...; those
  // cover the same ops with a longer warm-up, so they must never win.
  ProgramBuilder pb(16384, "axpy");
  pb.vsetvli(64, Sew::k64, kLmul1);
  for (std::uint64_t i = 0; i < 40; ++i) {
    pb.vle(8, 0x1000 + i * 512);
    pb.vfmacc_vf(16, 2.0, 8);
    pb.vse(16, 0x100000 + i * 512);
    pb.scalar_cycles(1);
  }
  const Program p = pb.take();
  const std::vector<LoopRegion> regions = find_loop_regions(keys_of(p));
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].period, 4u);
  EXPECT_EQ(regions[0].start, 1u);
  EXPECT_EQ(regions[0].end, p.ops.size());
}

TEST(LoopRegions, InnerLoopsBeatAFewLongIterations) {
  // exp's shape: a 40-op strip body whose input register alternates (so
  // the signature period is two strips) around an 11-iteration inner
  // loop. Four strips are two long periods, which batch nothing; the four
  // inner loops must be kept rather than swallowed.
  ProgramBuilder pb(16384, "strips");
  for (unsigned s = 0; s < 4; ++s) {
    pb.vsetvli(256, Sew::k64, kLmul1);
    pb.vle(4 + s % 2, 0x1000 + s * 2048);
    pb.vfmul_vf(6, 4 + s % 2, 1.5);
    for (unsigned k = 0; k < 11; ++k) {
      pb.vfmv_v_f(7, 0.5);
      pb.vfmadd_vv(6, 4 + s % 2, 7);
    }
    pb.vse(6, 0x100000 + s * 2048);
    pb.scalar_cycles(2);
  }
  const Program p = pb.take();
  const std::vector<LoopRegion> regions = find_loop_regions(keys_of(p));
  ASSERT_EQ(regions.size(), 4u);
  for (const LoopRegion& r : regions) {
    EXPECT_EQ(r.period, 2u);
    EXPECT_EQ(r.end - r.start, 22u);
  }
}

TEST(SuperPeriod, DriftingPitchRepeatsEveryBusOverGcdRows) {
  // 70 doubles per row: 560 B, 48 B past a 512 B bus multiple at 128 B
  // bus -> phase step 48, gcd 16 -> the phase repeats every 8 rows; at a
  // 64 B bus: 560 mod 64 = 48 -> every 4 rows.
  const Program p = conv_rows(16, 70 * 8);
  const LoopRegion r{1, p.ops.size(), 115};
  EXPECT_EQ(phase_super_period(p, r, 128), 8u);
  EXPECT_EQ(phase_super_period(p, r, 64), 4u);
  // A bus-multiple pitch never drifts.
  EXPECT_EQ(phase_super_period(conv_rows(16, 64 * 8), r, 128), 1u);
}

TEST(SuperPeriod, OnlyConstantUnitStrideWalksCount) {
  ProgramBuilder pb(16384, "mixed");
  pb.vsetvli(16, Sew::k64, kLmul1);
  for (std::uint64_t i = 0; i < 12; ++i) {
    pb.vle(8, 0x1000 + i * 32);                 // step 32: every 2
    pb.vle(10, 0x8000 + (i % 3) * 8 + i * 64);  // not a constant delta
    pb.vlse(12, 0x9000 + i * 8, 16);            // strided: no bus phase
    pb.vse(14, 0xA000 - i * 16);                // descending: -16 = 48: every 4
  }
  const Program p = pb.take();
  // Had the irregular or strided walks counted, their 8-byte steps would
  // have made it 8.
  EXPECT_EQ(phase_super_period(p, LoopRegion{1, p.ops.size(), 4}, 64), 4u);
}

TEST(Disasm, RendersOperands) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul2);
  pb.vfmacc_vf(8, 1.5, 16);
  pb.vle(4, 0x2000);
  pb.vslidedown_vx(6, 4, 3);
  const Program p = pb.take();
  const std::string text = disasm(p);
  EXPECT_NE(text.find("vsetvli avl=16, e64,m2"), std::string::npos);
  EXPECT_NE(text.find("vfmacc.vf v8, v16, fs=1.5000"), std::string::npos);
  EXPECT_NE(text.find("vle64.v v4, 0x2000"), std::string::npos);
  EXPECT_NE(text.find("vslidedown.vx v6, v4, x=3"), std::string::npos);
}

TEST(Disasm, MaskedSuffix) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  pb.vfadd_vv(8, 4, 2, /*masked=*/true);
  const VInstr in = std::get<VInstr>(pb.take().ops[1]);
  EXPECT_NE(disasm(in).find("v0.t"), std::string::npos);
}

TEST(Disasm, AccumulatorScalarShown) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  pb.vfmul_vf_acc(8, 4);
  const VInstr in = std::get<VInstr>(pb.take().ops[1]);
  EXPECT_NE(disasm(in).find("fs=<acc>"), std::string::npos);
}

}  // namespace
}  // namespace araxl
