#include "sim/stats.hpp"

#include "common/fmt.hpp"

namespace araxl {

std::string_view unit_name(Unit u) {
  switch (u) {
    case Unit::kNone: return "none";
    case Unit::kFpu: return "fpu";
    case Unit::kAlu: return "alu";
    case Unit::kLoad: return "load";
    case Unit::kStore: return "store";
    case Unit::kSldu: return "sldu";
    case Unit::kMasku: return "masku";
  }
  return "?";
}

std::string_view batch_reject_name(BatchReject r) {
  switch (r) {
    case BatchReject::kAddrProgression: return "addr_progression";
    case BatchReject::kLivenessGate: return "liveness_gate";
    case BatchReject::kSnapshotMismatch: return "snapshot_mismatch";
    case BatchReject::kVlTail: return "vl_tail";
    case BatchReject::kGrantChange: return "grant_change";
  }
  return "?";
}

std::string_view stall_reason_name(StallReason r) {
  switch (r) {
    case StallReason::kIssuePressure: return "issue_pressure";
    case StallReason::kRawDependency: return "raw_dependency";
    case StallReason::kStructuralUnit: return "structural_unit";
    case StallReason::kMemLatency: return "mem_latency";
    case StallReason::kMemBandwidth: return "mem_bandwidth";
    case StallReason::kReductionSlideLatency: return "reduction_slide_latency";
    case StallReason::kDrainTail: return "drain_tail";
  }
  return "?";
}

std::string StatField::csv_column(std::size_t i) const {
  if (!is_array()) return std::string(name);
  return std::string(column) + "_" + std::string(slot_name(i));
}

std::string StatField::metric_name(std::size_t i) const {
  if (metric.empty() || !is_array()) return std::string(metric);
  return std::string(metric) + "." + std::string(slot_name(i));
}

bool operator==(const RunStats& a, const RunStats& b) {
  return std::ranges::all_of(kRunStatsFields, [&](const StatField& f) {
    return f.has(kProvenance) || std::ranges::equal(f.values(a), f.values(b));
  });
}

std::string RunStats::summary() const {
  std::string out;
  out += "cycles:            " + fmt_group(cycles) + "\n";
  out += "vector instrs:     " + fmt_group(vinstrs) + "\n";
  out += "scalar ops:        " + fmt_group(scalar_ops) + "\n";
  out += "DP-FLOP:           " + fmt_group(flops) + "\n";
  out += "DP-FLOP/cycle:     " + fmt_f(flop_per_cycle(), 2) + "\n";
  out += "FPU utilization:   " + fmt_pct(fpu_util(), 1) + "\n";
  out += "L2 read bytes:     " + fmt_group(mem_read_bytes) + "\n";
  out += "L2 write bytes:    " + fmt_group(mem_write_bytes) + "\n";
  for (std::size_t u = 1; u < kNumUnits; ++u) {
    out += "busy[" + std::string(unit_name(static_cast<Unit>(u))) + "]: ";
    out.append(12 - unit_name(static_cast<Unit>(u)).size(), ' ');
    out += fmt_group(unit_busy_elems[u]) + " element-slots\n";
  }
  const std::uint64_t slot_universe = cycles * total_lanes * 8;
  if (slot_universe != 0) {
    for (std::size_t r = 0; r < kNumStallReasons; ++r) {
      if (stall_cycles[r] == 0) continue;
      const std::string_view name = stall_reason_name(static_cast<StallReason>(r));
      out += "stall[" + std::string(name) + "]: ";
      out.append(name.size() < 23 ? 23 - name.size() : 1, ' ');
      out += fmt_pct(static_cast<double>(stall_cycles[r]) /
                         static_cast<double>(slot_universe),
                     1) +
             " of slots\n";
    }
  }
  out += "wakeups:           " + fmt_group(wakeups_total) + "\n";
  out += "batched iters:     " + fmt_group(batched_iterations) + "\n";
  if (batch_clamps != 0) {
    out += "batch clamps:      " + fmt_group(batch_clamps) + "\n";
  }
  if (warmup_projected != 0) {
    out += "warmup projected:  " + fmt_group(warmup_projected) + "\n";
  }
  for (std::size_t r = 0; r < kNumBatchRejects; ++r) {
    if (batch_rejects[r] == 0) continue;
    const std::string_view name = batch_reject_name(static_cast<BatchReject>(r));
    out += "batch reject[" + std::string(name) + "]: ";
    out.append(name.size() < 18 ? 18 - name.size() : 1, ' ');
    out += fmt_group(batch_rejects[r]) + "\n";
  }
  return out;
}

}  // namespace araxl
