// Sweep reporters: JSON and CSV emission of driver results.
//
// Reports are pure functions of the result vector — no timestamps, host
// names, or wall-clock durations — so the same sweep produces byte-
// identical files whether it ran on 1 worker or 8 (the driver's
// reproducibility contract, asserted by tests and CI). Each record carries
// full config provenance (topology, VLEN, latency knobs, timing mode),
// the raw RunStats counters, derived metrics, the PPA-model outputs
// (frequency, area, power, GFLOPS, GFLOPS/W), and verification status.
#ifndef ARAXL_DRIVER_REPORT_HPP
#define ARAXL_DRIVER_REPORT_HPP

#include <string>
#include <vector>

#include "driver/runner.hpp"

namespace araxl::driver {

/// Reporter knobs. Both formats carry a `cache_hit` provenance column
/// (simulated vs replayed-from-store); by default it is zeroed so a warm
/// rerun or a merged shard set stays byte-identical to the cold unsharded
/// report (the `cmp`-based determinism contract). `live_cache_flags`
/// reports the real per-job values instead.
struct ReportOptions {
  bool live_cache_flags = false;
  /// Report the real values of every kReportZeroed RunStats field (engine
  /// provenance and the stall taxonomy) and per-job retry `attempts`
  /// instead of zeros. Like `cache_hit`, these are zeroed by default: the
  /// oracle wakes every cycle and a retried job needed more attempts —
  /// live values would break the byte-identity `cmp`s between warm/cold,
  /// sharded/unsharded and worker-count runs.
  bool live_provenance = false;
};

/// Whole-sweep JSON document: {"results": [...]} ordered by job index.
[[nodiscard]] std::string to_json(const std::vector<JobResult>& results,
                                  const ReportOptions& opts = {});

/// One CSV header line plus one row per job, ordered by job index.
[[nodiscard]] std::string to_csv(const std::vector<JobResult>& results,
                                 const ReportOptions& opts = {});

// Per-record serializers — the exact building blocks of to_json/to_csv,
// exposed so the serve-layer job ledger can persist each finished job's
// record text as a worker completes it and `araxl merge --ledger` can
// reassemble a report byte-identical to a single-process sweep (the same
// bytes, produced by the same code, only stored one record at a time).

/// One JSON record as it appears inside to_json's "results" array (no
/// surrounding framing, no trailing comma/newline).
[[nodiscard]] std::string json_record(const JobResult& r,
                                      const ReportOptions& opts = {});

/// The CSV header line to_csv emits, including the trailing newline.
[[nodiscard]] std::string csv_header();

/// One CSV data row as to_csv emits it, including the trailing newline.
[[nodiscard]] std::string csv_row(const JobResult& r,
                                  const ReportOptions& opts = {});

/// Writes `content` to `path` ("-" means stdout); throws ContractViolation
/// when the file cannot be opened.
void write_report(const std::string& path, const std::string& content);

}  // namespace araxl::driver

#endif  // ARAXL_DRIVER_REPORT_HPP
