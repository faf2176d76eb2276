// Persistent result store — fingerprint → RunStats + verification +
// provenance, one JSON record per line.
//
// The store is what makes sweeps incremental and resumable: the runner
// consults it before simulating, appends after every finished job, and an
// interrupted or repeated sweep therefore only computes what is missing.
// Durability rules:
//   * the file is append-only in steady state: flush() appends the newly
//     put() records as whole lines, so many processes (shards sharing one
//     store) can interleave without clobbering each other, and a crash
//     mid-append loses at most one torn line — which the loader skips;
//   * compaction (gc) rewrites the whole store to `<path>.tmp` and
//     atomically renames it over `<path>`;
//   * loading is corruption-tolerant: unparseable lines, records whose
//     payload checksum fails, and records whose stored fingerprint does
//     not match one recomputed from their own provenance are skipped and
//     counted, never fatal — the affected jobs are simply recomputed;
//   * a duplicate fingerprint is superseded by the later record
//     (append-only semantics: later means newer).
#ifndef ARAXL_STORE_RESULT_STORE_HPP
#define ARAXL_STORE_RESULT_STORE_HPP

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernels/common.hpp"
#include "sim/stats.hpp"
#include "store/fingerprint.hpp"

namespace araxl {
class FaultInjector;
namespace obs {
class MetricsRegistry;
}
}  // namespace araxl

namespace araxl::store {

/// Store file-I/O failure (open, append, rename — real or injected).
/// Typed distinctly from ContractViolation so callers can degrade: the
/// runner turns a failed put()/flush() into a cache-off-with-warning
/// instead of failing a successfully simulated job, and the CLI maps it
/// to the internal/store exit code (3), not the usage code (2).
class StoreIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One cached job result with full provenance.
struct StoredResult {
  std::string fingerprint;  ///< fingerprint() of the key fields below
  std::string version;      ///< build salt that computed this result
  std::string config;       ///< canonical_config() serialization
  std::string label;        ///< display label (provenance only, not keyed)
  std::string kernel;
  std::uint64_t bytes_per_lane = 0;
  std::uint64_t seed = 0;
  RunStats stats;
  bool verified = false;
  double tolerance = 0.0;
  VerifyResult verify;
};

/// What load() saw on disk.
struct LoadReport {
  std::size_t lines = 0;          ///< non-empty lines in the file
  std::size_t loaded = 0;         ///< live records after dedup
  std::size_t bad_lines = 0;      ///< unparseable / checksum-failed lines
  std::size_t fp_mismatches = 0;  ///< fingerprint != recompute(provenance)
  std::size_t superseded = 0;     ///< older duplicates overwritten
};

/// Thread-safe store over one JSONL file. Opening a missing file yields an
/// empty store; the file is created on first flush().
class ResultStore {
 public:
  explicit ResultStore(std::string path);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const LoadReport& load_report() const { return load_report_; }
  [[nodiscard]] std::size_t size() const;

  /// Copy of the record for `fp`, if present (a copy so callers never hold
  /// references across concurrent put()s).
  [[nodiscard]] std::optional<StoredResult> find(const std::string& fp) const;

  /// Inserts or overwrites the record keyed by `r.fingerprint`.
  void put(StoredResult r);

  /// Appends all records put() since the last flush to the backing file,
  /// one line per record in one write. O(new records), not O(store):
  /// the runner calls it after every completed job, and concurrent
  /// writers sharing the file only ever add lines (an overwrite becomes a
  /// later line that supersedes on load). Throws StoreIoError on I/O
  /// failure; the unflushed records stay pending so a later flush retries
  /// them (a torn partial append is skipped by the loader).
  void flush();

  /// Installs a deterministic fault injector on this store's file I/O
  /// (open / short-write / rename sites); nullptr disables injection. Not
  /// owned; must outlive the store. Test/chaos harness only.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// When enabled, every flush() fsyncs the store file before returning
  /// and gc() fsyncs both the compacted temp file and the directory, so an
  /// acked record survives a power loss (not just a process crash). Off by
  /// default: page-cache durability is enough for the common workflows and
  /// fsync per job is measurably slower (`--fsync` / RunnerOptions opt in).
  void set_fsync(bool on) { fsync_ = on; }

  /// Installs an optional metrics sink (obs/metrics.hpp) counting flush
  /// traffic (store.flushes / store.flush_bytes);
  /// nullptr disables. Not owned; must outlive the store.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Drops every record whose version differs from `current_version`
  /// (stale entries can never be served — their fingerprints embed the old
  /// salt — so gc just reclaims the space) and compacts the file in place
  /// via an atomic temp-file + rename. Returns the number removed.
  std::size_t gc(const std::string& current_version);

  /// Snapshot of all live records in insertion order (for `araxl cache`).
  [[nodiscard]] std::vector<StoredResult> entries() const;

  // ---- serialization (exposed for tests) ----------------------------------
  /// One JSONL line (no trailing newline), ending in a `check` field that
  /// hashes the rest of the line.
  [[nodiscard]] static std::string serialize(const StoredResult& r);
  /// Parses and fully validates one line; throws ContractViolation on
  /// syntax, checksum, or fingerprint mismatch (the loader catches and
  /// counts).
  [[nodiscard]] static StoredResult deserialize(std::string_view line);

 private:
  void load();

  std::string path_;
  LoadReport load_report_;

  mutable std::mutex mu_;
  FaultInjector* faults_ = nullptr;                      // not owned
  bool fsync_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;              // not owned
  std::vector<StoredResult> records_;                    // insertion order
  std::unordered_map<std::string, std::size_t> index_;   // fp → records_ slot
  std::string pending_;  // serialized lines not yet appended to disk
};

}  // namespace araxl::store

#endif  // ARAXL_STORE_RESULT_STORE_HPP
