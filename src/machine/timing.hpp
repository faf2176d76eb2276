// Machine-level timing engine, in two interchangeable flavours.
//
// Composes the component models (REQI, GLSU, RINGI, lane group, sequencer
// rules, CVA6) into the machine-level schedule: the issue path (CVA6 ->
// REQI -> sequencer -> unit queues), per-unit in-order execution with
// element-granular operand chaining across units, the GLSU memory pipeline
// with bandwidth and misalignment, slide traffic over the RINGI, and the
// multi-phase reduction schedule. Functional execution happens in program
// order at issue time (see machine/functional.hpp for why the split is
// sound).
//
// Two simulation kernels share the identical per-cycle semantics
// (MachineConfig::timing_mode selects one):
//
//  * cycle-stepped — the reference oracle: ticks t one cycle at a time and
//    walks every unit queue each cycle.
//  * event-driven  — the production engine: processes one wakeup cycle
//    exactly, then uses an EventHorizon (sim/scheduler.hpp) to jump t to
//    the next cycle where state can change, fast-forwarding unit heads
//    across the gap with closed-form multi-cycle advancement (piecewise-
//    linear segments in each LaggedCounter). Its RunStats are bit-for-bit
//    identical to the oracle's; tests/test_properties.cpp fuzzes that.
#ifndef ARAXL_MACHINE_TIMING_HPP
#define ARAXL_MACHINE_TIMING_HPP

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "interconnect/glsu.hpp"
#include "interconnect/reqi.hpp"
#include "interconnect/ring.hpp"
#include "interconnect/spec.hpp"
#include "lane/lane_group.hpp"
#include "machine/config.hpp"
#include "machine/functional.hpp"
#include "machine/inflight.hpp"
#include "obs/metrics.hpp"
#include "scalar/cva6.hpp"
#include "sim/cancel.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace araxl {

/// Conservative address range [lo, hi) touched by a vector memory op with
/// `vl` elements of `ew` bytes. Returns false for indexed accesses (their
/// footprint depends on runtime index values). A vl of 0 yields an empty
/// range — zero-element ops touch no memory and must not stall dispatch.
bool mem_range(const VInstr& in, std::uint64_t vl, unsigned ew, std::uint64_t* lo,
               std::uint64_t* hi);

/// Resolved metric-counter handles for one registry: `engine.runs` plus
/// the RunStats mirror. Every other `engine.*` counter is a RunStats field
/// (its kRunStatsFields `metric` name), folded from the finished run, so
/// the registry agrees with the stats exactly, batched windows included.
/// Binding performs the name lookups (string building plus a mutex-guarded
/// registry map walk per counter); re-binding against the same registry
/// is a single pointer compare. The Machine caches one of these across
/// runs — a TimingEngine is constructed per run, and paying the lookups
/// per run dominated the metrics overhead budget once runs got fast.
struct EngineInstruments {
  /// Points the handles at `reg`'s counters (no-op when already bound to
  /// `reg`; clears only the registry tag when `reg` is null).
  void bind(obs::MetricsRegistry* reg);

  obs::MetricsRegistry* registry = nullptr;
  obs::Counter* runs = nullptr;
  /// RunStats mirror, one handle per counter slot in kRunStatsFields order
  /// (null for fields without a metric name); folded at the end of a run.
  std::array<obs::Counter*, kRunStatsSlots> mirror{};
};

class TimingEngine {
 public:
  TimingEngine(const MachineConfig& cfg, FunctionalEngine& fn,
               InstrTrace* trace = nullptr,
               const EngineInstruments* metrics = nullptr);

  /// Simulates `prog` to completion with the engine selected by
  /// cfg.timing_mode and returns the run statistics. `control` installs a
  /// cooperative cancellation policy (shutdown token / wall-clock
  /// deadline) polled at scheduler wakeups; the engine raises
  /// SimCancelled when it fires. Polling never mutates machine state, so
  /// a run that completes is bit-identical with or without a control.
  RunStats run(const Program& prog, const RunControl* control = nullptr);

 private:
  /// The two kernels run() selects between.
  RunStats run_cycle_stepped(const Program& prog);
  RunStats run_event_driven(const Program& prog);

  struct RegRef {
    std::uint32_t slot = 0;
    std::uint64_t id = 0;  ///< 0 = none
  };

  struct RegState {
    RegRef writer;                 ///< active in-flight writer
    std::vector<RegRef> readers;   ///< active in-flight readers
  };

  /// Instruction accepted by CVA6, travelling to / waiting in the sequencer.
  /// vl/ew/group_regs are captured at issue: a later vsetvli in the sequencer
  /// pipeline must not retroactively change an older instruction's shape.
  struct Pending {
    VInstr in{};
    std::size_t prog_index = 0;
    std::uint64_t vl = 0;
    unsigned ew = 8;
    unsigned group_regs = 1;
    Cycle issued_at = 0;
    Cycle arrive_at = 0;
  };

  /// Why CVA6 made no forward progress in the cycle just processed; the
  /// event engine accrues the matching stall counter across skipped cycles
  /// (the condition can only change at a wakeup).
  enum class Cva6Stall : std::uint8_t { kNone, kScalarWait, kSeqFull };

  // -- per-cycle phases (exact semantics, shared by both kernels) -------------
  void step_cycle(Cycle t);
  void tick_units(Cycle t);
  void tick_unit(Cycle t, Unit u);
  void advance_head(Cycle t, Inflight& instr);
  void advance_arith(Cycle t, Inflight& instr);
  void advance_load(Cycle t, Inflight& instr);
  void advance_store(Cycle t, Inflight& instr);
  void advance_red_phases(Cycle t, Inflight& instr);
  void retire(Cycle t);
  void tick_dispatch(Cycle t);
  void tick_cva6(Cycle t);

  // -- event-driven fast-forward ----------------------------------------------
  /// Proposes every statically-known future event after cycle `t`.
  void propose_discrete_events(Cycle t, EventHorizon* horizon);
  /// Fast-forwards all unit heads through (t, *wend_excl); completions and
  /// reduction forecasts discovered on queue fronts shrink *wend_excl.
  void fast_forward_heads(Cycle t, Cycle* wend_excl);
  /// Closed-form / replay advancement of one head over [from, to]
  /// (to == kNeverCycle means "until it stalls or finishes").
  void advance_span(Inflight& instr, Cycle from, Cycle to);
  void advance_span_arith(Inflight& instr, Cycle from, Cycle to);
  void advance_span_load(Inflight& instr, Cycle from, Cycle to);
  void advance_span_store(Inflight& instr, Cycle from, Cycle to);
  /// Per-cycle fallback for the corners the closed forms do not cover
  /// (fractional rates chained onto live producers): replays the shared
  /// advance function cycle by cycle over [from, to], parking after a long
  /// idle stretch in an unbounded window.
  void replay_span(Inflight& instr, Cycle from, Cycle to);

  // -- steady-state loop batching ---------------------------------------------
  //
  // The event engine detects when a declared loop (ProgramBuilder::loop)
  // has reached steady state — at two consecutive loop-period boundaries
  // the whole machine state (rebased to the boundary cycle / pc /
  // instruction id) is identical — and then retires K whole iterations per
  // wakeup: replaying the recorded per-iteration stat and trace deltas,
  // executing the batched ops architecturally, and relabelling the live in-
  // flight window K periods into the future. A vl tail or grant change
  // lies outside the loop by construction; a bus-phase drift or a new
  // conflict pattern makes the snapshots differ or the program-side
  // barriers shrink K, and the engine falls back to per-wakeup simulation —
  // the batched path is bit-identical to the oracle by construction (see
  // timing_event.cpp for the full argument).
  struct LoopCheckpoint {
    bool valid = false;
    Cycle t = 0;
    std::size_t pc = 0;
    std::uint64_t next_id = 0;
    RunStats stats{};
    std::size_t trace_len = 0;
    std::vector<std::uint64_t> state;  ///< canonical rebased serialization
    /// Raw values of the timing-inert fields canonicalized out of `state`
    /// (warmup fast-forward); compared only to tell a projected engage from
    /// an exact one.
    std::vector<std::uint64_t> shadow;
  };
  /// One trace record retired inside the recorded window, rebased to the
  /// window-start (cycle, id, pc) so it can be replayed for any iteration.
  struct TraceDelta {
    std::int64_t id = 0;
    std::int64_t prog = 0;
    std::uint64_t vl = 0;
    Unit unit = Unit::kNone;
    std::int64_t issued = 0;
    std::int64_t dispatched = 0;
    std::int64_t first_result = 0;
    bool has_first_result = false;
    std::int64_t completed = 0;
    /// Dominant-stall annotation: cycle-independent (byte-slot counts repeat
    /// exactly period over period), so it replays verbatim.
    std::uint8_t stall_reason = static_cast<std::uint8_t>(kNumStallReasons);
    std::uint64_t stall_slots = 0;
  };
  /// Turns the program's declared loops into regions + per-region barriers.
  void prepare_loop_batching();
  /// Post-step hook: records/compares boundary checkpoints and, in steady
  /// state, batches; *t_io advances by K whole periods when it returns true.
  bool loop_checkpoint(Cycle* t_io);
  void snapshot_state(Cycle t, std::vector<std::uint64_t>* out,
                      std::vector<std::uint64_t>* shadow) const;
  [[nodiscard]] std::uint64_t batchable_periods(const LoopRegion& r) const;
  /// First barrier op index >= i in the current region (region end when
  /// none): a batch may not dispatch it (see the per-op progression gate
  /// in prepare_loop_batching).
  [[nodiscard]] std::size_t next_barrier(std::size_t i) const;
  /// Whole periods a batch from the current state may cover before the
  /// liveness gate: bounded by the region end for the ops it issues and by
  /// the next barrier for the ops it dispatches, counted from the oldest
  /// still-pending sequencer op.
  [[nodiscard]] std::uint64_t replay_periods(const LoopRegion& r) const;
  void apply_batch(const LoopRegion& r, std::uint64_t k, Cycle d,
                   std::uint64_t id_delta, Cycle* t_io);

  /// Effective element cap from one dependency over [u, ...], linearised.
  struct CapLine {
    std::uint64_t value = 0;   ///< cap at cycle u
    std::uint64_t slope = 0;   ///< per-cycle growth (integer)
    Cycle until = kNeverCycle; ///< last cycle this linearisation holds
    bool fractional = false;   ///< producer segment has a non-integer slope
  };
  [[nodiscard]] CapLine dep_cap(const Dep& d, const Inflight& c, Cycle u) const;
  [[nodiscard]] CapLine combined_cap(const Inflight& c, Cycle u, Cycle to) const;

  // -- stall attribution (see "Cycle-attribution stall taxonomy" in
  //    timing.cpp) ------------------------------------------------------------
  /// Attributes every (cycle × lane-FPU byte-slot) of [a, b] to exactly one
  /// StallReason or to fpu_busy_slots. Shared verbatim by both kernels: the
  /// oracle calls it per executed cycle, the event engine once per wakeup
  /// cycle plus once per fast-forward window — yielding bit-identical
  /// RunStats::stall_cycles[].
  void attribute_range(Cycle a, Cycle b);
  /// Classifies one sub-range [x, y] whose acting FPU head is `acting`
  /// (nullptr = no FPU work in flight); charges stalls + busy slots.
  void attribute_piece(Cycle x, Cycle y, Inflight* acting);
  /// Stall reason for cycles where no FPU instruction is in flight; constant
  /// over any attribution range except the mem first-beat split (handled by
  /// the caller via `fr_min`).
  [[nodiscard]] StallReason classify_no_fpu(Cycle u) const;
  /// Blame for an acting head that is past start-up but under-producing.
  [[nodiscard]] StallReason classify_dep_limited(const Inflight& acting) const;
  /// Earliest first-beat cycle over in-flight memory instructions
  /// (kNeverCycle when none has produced yet). Monotone-stable: both
  /// engines agree on the predicate `u >= mem_first_beat_min()` for every
  /// attributed cycle u.
  [[nodiscard]] Cycle mem_first_beat_min() const;
  /// Byte width of one produced element slot for an FPU op (widening ops
  /// occupy the destination width, capped at the 8-byte lane datapath).
  [[nodiscard]] static unsigned fpu_slot_width(const Inflight& instr);

  // -- helpers ----------------------------------------------------------------
  void reset_run(const Program& prog);
  [[nodiscard]] bool drained() const;
  [[nodiscard]] const Inflight* find(const RegRef& ref) const;
  [[nodiscard]] std::uint64_t avail_elems(Cycle t, const Inflight& instr) const;
  [[nodiscard]] bool full_dep_visible(Cycle t, const Dep& d,
                                      const Inflight& p) const;
  [[nodiscard]] bool reg_pending_write(unsigned reg) const;
  [[nodiscard]] bool mem_conflict(const Pending& p) const;
  [[nodiscard]] std::uint64_t head_rate256(const Inflight& instr) const;
  [[nodiscard]] Cycle reduction_done_at(const Inflight& instr, Cycle finish) const;
  void account(Unit u, const Inflight& instr, std::uint64_t adv);
  void finish_producing(Cycle t, Inflight& instr);
  void release_claims(const Inflight& instr);
  [[noreturn]] void fail_deadlock(Cycle t) const;

  // -- observability ---------------------------------------------------------
  /// Folds the finished run's RunStats into the registry mirror (no-op
  /// when metrics_ is null).
  void metrics_end_run();
  /// Counts one batching rejection under `r` (RunStats + trace marker).
  void count_batch_reject(BatchReject r, Cycle t);

  const MachineConfig& cfg_;
  FunctionalEngine& fn_;
  InstrTrace* trace_ = nullptr;
  /// Pre-bound counter handles (owned by the Machine, which re-binds them
  /// only when the attached registry changes); null when no registry is
  /// attached to this run.
  const EngineInstruments* metrics_ = nullptr;
  /// The interconnect descriptor both kernels consume: every REQI/GLSU/
  /// RINGI latency and structure number flows through here (declared
  /// before the models, which are built from it).
  InterconnectSpec ispec_;
  ReqiModel reqi_;
  GlsuModel glsu_;
  RingModel ring_;
  LaneGroupModel lanes_;
  Cva6Model cva6_;
  /// Largest chaining lag over all units (at least 1): how far back of the
  /// current cycle any history query can reach, which bounds the pruning
  /// in attribute_range.
  Cycle max_chain_lag_ = 1;
  RunStats stats_{};

  const Program* prog_ = nullptr;
  std::size_t pc_ = 0;
  Cycle cva6_free_ = 0;

  std::uint64_t next_id_ = 1;
  InflightPool pool_;
  std::array<std::deque<std::uint32_t>, kNumUnits> unitq_;  ///< slot ids
  std::deque<Pending> seq_;
  std::array<RegState, kNumVregs> regs_;

  // Per-wakeup outcome flags consumed by the event loop.
  bool dispatched_this_cycle_ = false;
  Cva6Stall cva6_stall_ = Cva6Stall::kNone;

  // Byte-slots produced at the current wakeup cycle by FPU instructions that
  // retired before attribute_range ran (possible only with a zero FPU chain
  // lag); folded into the next attribution so the slot partition stays total.
  std::uint64_t retired_busy_pending_ = 0;

  // Cooperative cancellation (sim/cancel.hpp); null when the run has no
  // shutdown token or deadline — the common case costs one pointer test
  // per wakeup.
  const RunControl* control_ = nullptr;

  // Liveness tracking (wakeup-counting watchdog; see sim/scheduler.hpp).
  // The cycle-stepped oracle polls watchdog_.progress_total() every few
  // thousand cycles; the event engine uses the wakeup budget directly.
  WakeupWatchdog watchdog_;
  std::uint64_t last_progress_events_ = 0;
  Cycle last_progress_cycle_ = 0;

  // Scratch for fast_forward_heads (kept to avoid per-wakeup allocation).
  std::vector<std::uint32_t> ff_processed_;

  // Loop-batching state (event engine only; see prepare_loop_batching).
  std::vector<LoopRegion> loop_regions_;
  /// Per region: sorted indices of the bounded mem ops a batch may not
  /// dispatch — ops whose bus phase (unit-stride skew) or pairwise conflict
  /// outcomes differ from their counterparts' one period earlier.
  std::vector<std::vector<std::size_t>> loop_barriers_;
  /// Per region: the largest boundary from which a whole barrier-free
  /// period still lies ahead (0 = region dead — no boundary can engage).
  /// Checkpoint recording stops past it; this is the cheap early-out that
  /// keeps dense-barrier regions from snapshotting every period.
  std::vector<std::size_t> loop_last_engageable_;
  std::size_t loop_region_idx_ = 0;
  std::size_t last_ckpt_pc_ = static_cast<std::size_t>(-1);
  LoopCheckpoint ckpt_;
  std::vector<TraceDelta> trace_deltas_;  ///< scratch for the recorded window
  std::vector<std::uint64_t> snap_scratch_;
  std::vector<std::uint64_t> shadow_scratch_;
};

}  // namespace araxl

#endif  // ARAXL_MACHINE_TIMING_HPP
