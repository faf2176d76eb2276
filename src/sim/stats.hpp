// Run statistics collected by the timing engine. These counters are the
// measurement interface of the whole reproduction: FPU utilization,
// DP-FLOP/cycle, and the per-unit busy breakdown that the paper's Figures 6
// and 7 are built from.
#ifndef ARAXL_SIM_STATS_HPP
#define ARAXL_SIM_STATS_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sim/cycle.hpp"

namespace araxl {

/// Execution units of a vector cluster (aggregated machine-wide by the
/// timing engine; see DESIGN.md §3).
enum class Unit : std::uint8_t {
  kNone = 0,  // vsetvli and other non-executing ops
  kFpu,       // FMA-capable floating-point pipeline (one per lane)
  kAlu,       // integer/move/merge pipeline (one per lane)
  kLoad,      // VLSU load path (through the GLSU on AraXL)
  kStore,     // VLSU store path
  kSldu,      // slide unit (ring-connected on AraXL)
  kMasku,     // mask unit
};

inline constexpr std::size_t kNumUnits = 7;

/// Human-readable unit name ("fpu", "load", ...).
std::string_view unit_name(Unit u);

/// Why steady-state loop batching declined to fast-forward at a period
/// boundary. Every rejection in the event engine is counted under exactly
/// one of these, which is the diagnosis interface for "batched_iterations
/// is 0 on this row" (see `araxl stats` and the trace markers).
enum class BatchReject : std::uint8_t {
  kAddrProgression = 0,  ///< a mem op's addresses break the single
                         ///< arithmetic-progression gate inside the region
  kLivenessGate,         ///< an in-flight op is still < 1 period into the
                         ///< region, so no whole iteration can retire
  kSnapshotMismatch,     ///< consecutive period-boundary snapshots differ
                         ///< (machine not in steady state yet)
  kVlTail,               ///< the region ends on a smaller vsetvli grant
                         ///< (strip-mine tail iteration)
  kGrantChange,          ///< the region ends on a vsetvli whose vtype/grant
                         ///< changes (not a tail — a different loop shape)
};

inline constexpr std::size_t kNumBatchRejects = 5;

/// Stable short name for a rejection reason ("addr_progression", ...);
/// used as the JSON/CSV column suffix and the metric/trace-marker label.
std::string_view batch_reject_name(BatchReject r);

/// Why a (cycle × lane-FPU byte-slot) did not carry a result. Every slot of
/// every executed cycle is attributed to exactly one reason (or to
/// `fpu_busy_slots` when an FPU was producing into it), so the taxonomy is a
/// partition: sum(stall_cycles[]) + fpu_busy_slots == cycles * total_lanes * 8.
/// Both timing kernels compute the attribution bit-identically (differential
/// tests demand it), which is what lets `araxl report` explain a utilization
/// number instead of merely quoting it.
enum class StallReason : std::uint8_t {
  kIssuePressure = 0,     ///< no FPU work in flight: frontend/issue/dispatch
                          ///< could not keep the FPUs fed (Fig. 7's REQI
                          ///< pressure at scale lands here)
  kRawDependency,         ///< the acting FPU op exists but is rate-limited by
                          ///< a chained non-mem, non-slide producer (RAW)
  kStructuralUnit,        ///< the acting FPU op is dispatched but still in its
                          ///< fixed unit start-up latency, or only non-FPU
                          ///< arithmetic (ALU) work is in flight
  kMemLatency,            ///< waiting on the first beat of an in-flight load
                          ///< (GLSU/L2 latency, not throughput)
  kMemBandwidth,          ///< a load producer is streaming but its byte/cycle
                          ///< rate caps FPU progress (or only mem ops are in
                          ///< flight past their first beat)
  kReductionSlideLatency, ///< inter-lane/inter-cluster reduction or slide
                          ///< phases (ring latency) gate progress
  kDrainTail,             ///< program fully issued and machine empty of
                          ///< FPU-feeding work: the final writeback/retire
                          ///< drain of the last ops
};

inline constexpr std::size_t kNumStallReasons = 7;

/// Stable short name for a stall reason ("issue_pressure", ...); used as the
/// JSON/CSV key, the metric name suffix and the trace-span annotation.
std::string_view stall_reason_name(StallReason r);

/// Counters for one simulated program run.
struct RunStats {
  Cycle cycles = 0;                  ///< total runtime in cycles
  std::uint64_t total_lanes = 0;     ///< lanes × clusters of the machine
  std::uint64_t vinstrs = 0;         ///< vector instructions issued
  std::uint64_t scalar_ops = 0;      ///< scalar (CVA6) operations retired
  std::uint64_t flops = 0;           ///< DP-FLOP executed (FMA counts 2)
  std::uint64_t fpu_result_elems = 0;///< element results produced by FPUs
  std::uint64_t mem_read_bytes = 0;  ///< bytes read from L2
  std::uint64_t mem_write_bytes = 0; ///< bytes written to L2
  std::uint64_t issue_stall_cycles = 0;  ///< CVA6 cycles stalled on REQI ack
  std::uint64_t scalar_wait_cycles = 0;  ///< CVA6 cycles waiting on vector results
  std::array<std::uint64_t, kNumUnits> unit_busy_elems{};  ///< element slots per unit

  // ---- cycle-attribution stall taxonomy (byte-slot units) -----------------
  // One lane-cycle is 8 byte-slots (a lane datapath is 64 bits wide). The
  // two counters below partition the whole slot universe of a run:
  //   sum(stall_cycles[]) + fpu_busy_slots == cycles * total_lanes * 8
  // For a pure-FP64 kernel this divides down to the element-level identity
  // sum/8 + fpu_result_elems == cycles * total_lanes. Byte-slots (not
  // elements) keep the partition exact for SEW<64 and widening ops, where a
  // lane produces more than one element per cycle.
  std::array<std::uint64_t, kNumStallReasons> stall_cycles{};  ///< lost byte-slots per reason
  std::uint64_t fpu_busy_slots = 0;  ///< byte-slots that carried an FPU result

  // ---- engine provenance (how the run was simulated, not what it did) -----
  std::uint64_t wakeups_total = 0;        ///< scheduler wakeups (oracle: cycles)
  std::uint64_t batched_iterations = 0;   ///< loop iterations fast-forwarded
                                          ///< by steady-state batching
  /// Batching rejections by reason, indexed by BatchReject (the oracle
  /// never attempts batching, so its array stays zero).
  std::array<std::uint64_t, kNumBatchRejects> batch_rejects{};
  /// Engagements whose boundary snapshots matched only after canonicalizing
  /// timing-inert fields (warmup fast-forward projected past the fill
  /// transient instead of waiting for it to drain).
  std::uint64_t warmup_projected = 0;
  /// Batches clamped short of the region end by a per-op progression break
  /// (nested-loop row boundary): the batch retires up to the break and the
  /// batcher re-arms on the far side.
  std::uint64_t batch_clamps = 0;

  /// Fraction of lane-FPU slots that produced a valid result — the paper's
  /// FPU-utilization metric (Fig. 6 lines, Fig. 7 drops).
  [[nodiscard]] double fpu_util() const {
    if (cycles == 0 || total_lanes == 0) return 0.0;
    return static_cast<double>(fpu_result_elems) /
           (static_cast<double>(cycles) * static_cast<double>(total_lanes));
  }

  /// Achieved DP-FLOP per cycle (paper's performance metric before the
  /// frequency model is applied).
  [[nodiscard]] double flop_per_cycle() const {
    return cycles == 0 ? 0.0 : static_cast<double>(flops) / static_cast<double>(cycles);
  }

  /// GFLOPS at a given clock frequency in GHz.
  [[nodiscard]] double gflops(double freq_ghz) const { return flop_per_cycle() * freq_ghz; }

  /// Multi-line human-readable dump (used by examples).
  [[nodiscard]] std::string summary() const;
};

// ---- the field table --------------------------------------------------------
//
// Every RunStats member is described exactly once, in kRunStatsFields below;
// equality, batching, the metrics mirror, the reporters, the result store,
// the analysis layer and `araxl stats` all iterate it. Adding a counter is
// one member above plus one table line (tests/test_store.cpp counts the
// members against the table, so a member that skips it fails to build).

/// Attributes of a RunStats field (bit flags of StatField::flags).
enum StatFlag : unsigned {
  /// How the run was simulated, not what it did: the oracle and the event
  /// engine legitimately differ, so the field is outside operator== (every
  /// other field is a measurement they agree on bit for bit). Implies
  /// kReportZeroed.
  kProvenance = 1u << 0,
  /// A batch of K steady-state iterations adds K copies of the recorded
  /// window's delta.
  kPerWindow = 1u << 1,
  /// Reported as 0 unless ReportOptions::live_provenance (`--provenance`).
  kReportZeroed = 1u << 2,
  /// A store record without it is rejected; other fields postdate the seed
  /// schema and read as 0 when missing.
  kStoreRequired = 1u << 3,
  /// A column of the `araxl report` rows table (report.csv).
  kReportRow = 1u << 4,
};

/// Descriptor of one RunStats member: a scalar counter or an array of
/// counters indexed by an enum (Unit, BatchReject, StallReason).
struct StatField {
  /// Stable name: JSON key in reports and store records, CSV column of a
  /// scalar.
  std::string_view name;
  unsigned flags = 0;
  /// Mirrored metric (obs registry counter) name; an array slot appends
  /// ".<slot name>". Empty when not mirrored.
  std::string_view metric;
  /// CSV column stem of an array: slot i is "<column>_<slot name>".
  std::string_view column;
  /// Counter slots: 1 for a scalar, the enum's size for an array.
  std::size_t size = 1;
  /// Array slot name (the enum-name function); nullptr for a scalar.
  std::string_view (*slot_name)(std::size_t) = nullptr;
  std::span<std::uint64_t> (*view)(RunStats&) = nullptr;

  [[nodiscard]] constexpr bool has(unsigned f) const { return (flags & f) != 0; }
  [[nodiscard]] constexpr bool is_array() const { return slot_name != nullptr; }
  [[nodiscard]] std::span<std::uint64_t> values(RunStats& s) const {
    return view(s);
  }
  [[nodiscard]] std::span<const std::uint64_t> values(const RunStats& s) const {
    return view(const_cast<RunStats&>(s));  // read-only use of the view
  }
  /// CSV column of slot i: the name of a scalar, "<column>_<slot>" for an
  /// array.
  [[nodiscard]] std::string csv_column(std::size_t i) const;
  /// Mirrored metric name of slot i ("" when not mirrored).
  [[nodiscard]] std::string metric_name(std::size_t i) const;
};

namespace detail {

template <auto Member>
using MemberType =
    std::remove_reference_t<decltype(std::declval<RunStats&>().*Member)>;

template <auto Member>
std::span<std::uint64_t> member_view(RunStats& s) {
  if constexpr (std::is_same_v<MemberType<Member>, std::uint64_t>) {
    return {&(s.*Member), 1};
  } else {
    return s.*Member;
  }
}

template <class Enum>
Enum enum_of(std::string_view (*)(Enum));  // unevaluated: the name fn's enum

template <auto Name>
std::string_view enum_slot(std::size_t i) {
  return Name(static_cast<decltype(enum_of(Name))>(i));
}

/// Table entry for `Member`: a scalar, or (given the enum-name function
/// `Name`) an array indexed by that enum.
template <auto Member, auto Name = nullptr>
constexpr StatField stat(std::string_view name, unsigned flags,
                         std::string_view metric = {},
                         std::string_view column = {}) {
  if constexpr (std::is_null_pointer_v<decltype(Name)>) {
    return {name, flags, metric, {}, 1, nullptr, &member_view<Member>};
  } else {
    return {name, flags, metric, column, std::tuple_size_v<MemberType<Member>>,
            &enum_slot<Name>, &member_view<Member>};
  }
}

}  // namespace detail

/// The seed schema's per-window measurement counters.
inline constexpr unsigned kSeedCounter = kStoreRequired | kPerWindow;

/// The RunStats field table, in serialization order (report JSON, store
/// records, CSV column blocks).
inline constexpr std::array kRunStatsFields = {
    detail::stat<&RunStats::cycles>("cycles", kStoreRequired, "engine.cycles"),
    detail::stat<&RunStats::total_lanes>("total_lanes", kStoreRequired),
    detail::stat<&RunStats::vinstrs>("vinstrs", kSeedCounter),
    detail::stat<&RunStats::scalar_ops>("scalar_ops", kSeedCounter),
    detail::stat<&RunStats::flops>("flops", kSeedCounter),
    detail::stat<&RunStats::fpu_result_elems>("fpu_result_elems", kSeedCounter),
    detail::stat<&RunStats::mem_read_bytes>("mem_read_bytes", kSeedCounter),
    detail::stat<&RunStats::mem_write_bytes>("mem_write_bytes", kSeedCounter),
    detail::stat<&RunStats::issue_stall_cycles>("issue_stall_cycles", kSeedCounter),
    detail::stat<&RunStats::scalar_wait_cycles>("scalar_wait_cycles", kSeedCounter),
    detail::stat<&RunStats::unit_busy_elems, unit_name>(
        "unit_busy_elems", kSeedCounter, {}, "busy"),
    detail::stat<&RunStats::wakeups_total>(
        "wakeups_total", kProvenance | kReportZeroed, "engine.wakeups"),
    detail::stat<&RunStats::batched_iterations>(
        "batched_iterations", kProvenance | kReportZeroed | kReportRow,
        "engine.batched_iterations"),
    detail::stat<&RunStats::batch_rejects, batch_reject_name>(
        "batch_rejects", kProvenance | kReportZeroed, "engine.batch.reject",
        "reject"),
    detail::stat<&RunStats::batch_clamps>(
        "batch_clamps", kProvenance | kReportZeroed | kReportRow,
        "engine.batch.clamps"),
    detail::stat<&RunStats::warmup_projected>(
        "warmup_projected", kProvenance | kReportZeroed | kReportRow,
        "engine.batch.warmup_projected"),
    detail::stat<&RunStats::stall_cycles, stall_reason_name>(
        "stall_cycles", kPerWindow | kReportZeroed | kReportRow,
        "engine.stall", "stall"),
    detail::stat<&RunStats::fpu_busy_slots>(
        "fpu_busy_slots", kPerWindow | kReportZeroed | kReportRow),
};

static_assert(std::ranges::all_of(kRunStatsFields, [](const StatField& f) {
  return !f.has(kProvenance) || f.has(kReportZeroed);
}));

/// Counter slots over the whole table (a scalar is one slot).
inline constexpr std::size_t kRunStatsSlots = [] {
  std::size_t n = 0;
  for (const StatField& f : kRunStatsFields) n += f.size;
  return n;
}();

/// Field-wise equality over the measurement fields (every field without
/// kProvenance): the event-driven engine must reproduce the cycle-stepped
/// oracle bit for bit (differential tests).
bool operator==(const RunStats& a, const RunStats& b);

}  // namespace araxl

#endif  // ARAXL_SIM_STATS_HPP
