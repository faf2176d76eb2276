// Unit tests: ISA layer — SEW, vtype/VLMAX semantics, opcode property
// table invariants, program builder validation and declared loops,
// disassembler.
#include <gtest/gtest.h>

#include <bit>

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
  EXPECT_EQ(p.size(), 4u);
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
  EXPECT_EQ(pb.take().size(), 0u);
}

// ---- declared loops ------------------------------------------------------------

/// Field-for-field equality, fs compared bit for bit.
void expect_same_op(const ProgOp& a, const ProgOp& b, std::size_t i) {
  ASSERT_EQ(a.index(), b.index()) << "op " << i;
  if (const auto* s = std::get_if<ScalarOp>(&a)) {
    const ScalarOp& t = std::get<ScalarOp>(b);
    EXPECT_EQ(s->kind, t.kind) << "op " << i;
    EXPECT_EQ(s->count, t.count) << "op " << i;
    return;
  }
  const VInstr& x = std::get<VInstr>(a);
  const VInstr& y = std::get<VInstr>(b);
  EXPECT_EQ(x.op, y.op) << "op " << i;
  EXPECT_EQ(x.vd, y.vd) << "op " << i;
  EXPECT_EQ(x.vs1, y.vs1) << "op " << i;
  EXPECT_EQ(x.vs2, y.vs2) << "op " << i;
  EXPECT_EQ(x.masked, y.masked) << "op " << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.fs), std::bit_cast<std::uint64_t>(y.fs))
      << "op " << i;
  EXPECT_EQ(x.xs, y.xs) << "op " << i;
  EXPECT_EQ(x.fs_from_acc, y.fs_from_acc) << "op " << i;
  EXPECT_EQ(x.addr, y.addr) << "op " << i;
  EXPECT_EQ(x.stride, y.stride) << "op " << i;
  EXPECT_EQ(x.avl, y.avl) << "op " << i;
  EXPECT_EQ(x.vtype, y.vtype) << "op " << i;
}

/// A strip-mined body: countdown AVL, two walks with different steps, a
/// per-iteration scalar (including -0.0 vs +0.0, which only the bits
/// tell apart), constant scalars, and scalar-core work.
void strip_body(ProgramBuilder& pb, std::uint64_t it) {
  pb.vsetvli(1000 - it * 64, Sew::k64, kLmul1);
  pb.vle(8, 0x1000 + it * 512);
  pb.vfmacc_vf(16, it % 2 == 0 ? 0.0 : -0.0, 8);
  pb.vfmul_vf(24, 16, 1.5);
  pb.vlse(4, 0x9000 - it * 24, -8);
  pb.vse(24, 0x100000 + it * 512);
  pb.vslidedown_vx(12, 8, 3);
  pb.scalar_cycles(2);
}

TEST(BuilderLoop, OpsEqualTheFlatEmission) {
  ProgramBuilder declared(16384, "loops");
  ProgramBuilder flat(16384, "loops");
  for (ProgramBuilder* pb : {&declared, &flat}) {
    pb->scalar_load();
    for (unsigned l = 0; l < 2; ++l) {
      if (pb == &declared) {
        declared.loop(7, [&](std::uint64_t it) { strip_body(declared, it); });
      } else {
        for (std::uint64_t it = 0; it < 7; ++it) strip_body(flat, it);
      }
      pb->vfadd_vv(28, 24, 16);  // straight-line ops between the loops
      pb->scalar_store();
    }
    // A two-iteration loop and an empty one.
    if (pb == &declared) {
      declared.loop(2, [&](std::uint64_t it) { declared.vle(8, 0x2000 + it * 8); });
      declared.loop(0, [&](std::uint64_t) { declared.vle(8, 0); });
    } else {
      for (std::uint64_t it = 0; it < 2; ++it) flat.vle(8, 0x2000 + it * 8);
    }
  }
  const Program d = declared.take();
  const Program f = flat.take();
  ASSERT_EQ(d.size(), f.size());
  for (std::size_t i = 0; i < d.size(); ++i) expect_same_op(d.op(i), f.op(i), i);
  EXPECT_EQ(d.vinstr_count(), f.vinstr_count());
  EXPECT_EQ(d.scalar_op_count(), f.scalar_op_count());

  ASSERT_EQ(d.loops().size(), 3u);  // the empty loop stores nothing
  EXPECT_TRUE(f.loops().empty());
  const ProgramLoop& l = d.loops()[1];
  EXPECT_EQ(l.start, 1u + 7 * 8 + 2);
  EXPECT_EQ(l.count, 7u);
  ASSERT_EQ(l.body.size(), 8u);
  EXPECT_EQ(l.body[0].avl_step, -64);
  EXPECT_EQ(l.body[1].addr_step, 512);
  EXPECT_EQ(l.body[4].addr_step, -24);
  EXPECT_NE(l.body[2].fs_col, ProgramLoop::kConstFs);  // +0.0 / -0.0 column
  EXPECT_EQ(l.body[3].fs_col, ProgramLoop::kConstFs);
  EXPECT_EQ(l.fs.size(), 7u);
}

/// Declares a `count`-iteration loop whose body `bend(pb, it)` emits;
/// returns whether the builder threw.
template <class Bend>
bool rejects(std::uint64_t count, Bend bend) {
  ProgramBuilder pb(16384, "bad");
  pb.vsetvli(64, Sew::k64, kLmul1);
  try {
    pb.loop(count, [&](std::uint64_t it) { bend(pb, it); });
  } catch (const ContractViolation&) {
    return true;
  }
  return false;
}

TEST(BuilderLoop, RejectsIterationsThatDifferFromIterationZero) {
  // The well-formed loop every case below bends in one place.
  const auto body = [](ProgramBuilder& pb, Op op, unsigned vd, std::int64_t stride,
                       std::int64_t xs, std::uint64_t addr) {
    if (op == Op::kVfaddVV) {
      pb.vfadd_vv(vd, 8, 8);
    } else {
      pb.vfsub_vv(vd, 8, 8);
    }
    pb.vlse(8, addr, stride);
    pb.vslidedown_vx(12, 8, static_cast<std::uint64_t>(xs));
  };
  EXPECT_FALSE(rejects(6, [&](ProgramBuilder& pb, std::uint64_t it) {
    body(pb, Op::kVfaddVV, 16, 16, 3, 0x1000 + it * 64);
  }));
  // A changed opcode.
  EXPECT_TRUE(rejects(6, [&](ProgramBuilder& pb, std::uint64_t it) {
    body(pb, it == 4 ? Op::kVfsubVV : Op::kVfaddVV, 16, 16, 3, 0x1000 + it * 64);
  }));
  // A changed register.
  EXPECT_TRUE(rejects(6, [&](ProgramBuilder& pb, std::uint64_t it) {
    body(pb, Op::kVfaddVV, it == 4 ? 20 : 16, 16, 3, 0x1000 + it * 64);
  }));
  // A changed stride.
  EXPECT_TRUE(rejects(6, [&](ProgramBuilder& pb, std::uint64_t it) {
    body(pb, Op::kVfaddVV, 16, it == 4 ? 24 : 16, 3, 0x1000 + it * 64);
  }));
  // A changed integer scalar.
  EXPECT_TRUE(rejects(6, [&](ProgramBuilder& pb, std::uint64_t it) {
    body(pb, Op::kVfaddVV, 16, 16, it == 4 ? 5 : 3, 0x1000 + it * 64);
  }));
  // A non-affine address: the near-collision whose signatures all repeat
  // while one address breaks the walk.
  EXPECT_TRUE(rejects(6, [&](ProgramBuilder& pb, std::uint64_t it) {
    body(pb, Op::kVfaddVV, 16, 16, 3, 0x1000 + it * 64 + (it == 4 ? 8 : 0));
  }));
  // An iteration that emits one op more, or one fewer.
  EXPECT_TRUE(rejects(6, [&](ProgramBuilder& pb, std::uint64_t it) {
    body(pb, Op::kVfaddVV, 16, 16, 3, 0x1000 + it * 64);
    if (it == 3) pb.scalar_cycles(1);
  }));
  EXPECT_TRUE(rejects(6, [&](ProgramBuilder& pb, std::uint64_t it) {
    if (it != 3) pb.scalar_cycles(1);
    body(pb, Op::kVfaddVV, 16, 16, 3, 0x1000 + it * 64);
  }));
  // A scalar taken from the accumulator in one iteration only.
  EXPECT_TRUE(rejects(6, [&](ProgramBuilder& pb, std::uint64_t it) {
    if (it == 2) {
      pb.vfmul_vf_acc(16, 8);
    } else {
      pb.vfmul_vf(16, 8, 2.0);
    }
  }));
}

TEST(BuilderLoop, RejectsATailIterationWhoseGrantChanges) {
  // 5 full strips of 256 and a 100-element tail: declaring all six strips
  // as one loop is wrong — the tail's vsetvli grants 100, not 256.
  const auto strip = [](ProgramBuilder& pb, std::uint64_t it) {
    pb.vsetvli(1380 - it * 256, Sew::k64, kLmul1);
    pb.vle(8, 0x1000 + it * 2048);
  };
  EXPECT_TRUE(rejects(6, strip));
  EXPECT_FALSE(rejects(5, strip));
  // A mid-body vsetvli whose grant varies per iteration.
  EXPECT_TRUE(rejects(6, [](ProgramBuilder& pb, std::uint64_t it) {
    pb.vsetvli(1 + it % 5, Sew::k64, kLmul1);
    pb.vfadd_vf(16, 8, 1.0);
  }));
  // Same grant, different vtype.
  EXPECT_TRUE(rejects(6, [](ProgramBuilder& pb, std::uint64_t it) {
    pb.vsetvli(16, it == 5 ? Sew::k32 : Sew::k64, kLmul1);
  }));
}

TEST(BuilderLoop, RejectsANestedLoop) {
  EXPECT_TRUE(rejects(4, [](ProgramBuilder& pb, std::uint64_t) {
    pb.loop(3, [&](std::uint64_t k) { pb.vle(8, 0x1000 + k * 64); });
  }));
}

/// fconv2d's row loop: per output row one accumulator reset, seven input
/// rows of (load, FMA, 6 x (slide, FMA), scalar reload) and a store.
Program conv_rows(unsigned rows, std::uint64_t pitch) {
  ProgramBuilder pb(16384, "conv");
  pb.vsetvli(64, Sew::k64, kLmul2);
  pb.loop(rows, [&](std::uint64_t r) {
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
  });
  return pb.take();
}

TEST(SuperPeriod, DriftingPitchRepeatsEveryBusOverGcdRows) {
  // 70 doubles per row: 560 B, 48 B past a 512 B bus multiple at 128 B
  // bus -> phase step 48, gcd 16 -> the phase repeats every 8 rows; at a
  // 64 B bus: 560 mod 64 = 48 -> every 4 rows.
  const Program p = conv_rows(16, 70 * 8);
  ASSERT_EQ(p.loops().size(), 1u);
  EXPECT_EQ(p.loops()[0].body.size(), 115u);
  EXPECT_EQ(phase_super_period(p.loops()[0], 128), 8u);
  EXPECT_EQ(phase_super_period(p.loops()[0], 64), 4u);
  // A bus-multiple pitch never drifts.
  EXPECT_EQ(phase_super_period(conv_rows(16, 64 * 8).loops()[0], 128), 1u);
}

TEST(SuperPeriod, OnlyUnitStrideWalksCount) {
  ProgramBuilder pb(16384, "mixed");
  pb.vsetvli(16, Sew::k64, kLmul1);
  pb.loop(12, [&](std::uint64_t i) {
    pb.vle(8, 0x1000 + i * 32);       // step 32: every 2
    pb.vlse(12, 0x9000 + i * 8, 16);  // strided: no bus phase
    pb.vse(14, 0xA000 - i * 16);      // descending: -16 = 48: every 4
  });
  const Program p = pb.take();
  // Had the strided walk counted, its 8-byte step would have made it 8.
  EXPECT_EQ(phase_super_period(p.loops()[0], 64), 4u);
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
  const VInstr in = std::get<VInstr>(pb.take().op(1));
  EXPECT_NE(disasm(in).find("v0.t"), std::string::npos);
}

TEST(Disasm, AccumulatorScalarShown) {
  ProgramBuilder pb(16384, "t");
  pb.vsetvli(16, Sew::k64, kLmul1);
  pb.vfmul_vf_acc(8, 4);
  const VInstr in = std::get<VInstr>(pb.take().op(1));
  EXPECT_NE(disasm(in).find("fs=<acc>"), std::string::npos);
}

}  // namespace
}  // namespace araxl
