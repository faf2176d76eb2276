// Thread-pooled batch runner with fault tolerance.
//
// Executes expanded jobs on a worker pool, largest problems first (see
// run_jobs). Every job gets its own Machine and Kernel instance (Machines
// are non-movable and self-referencing, so workers construct them in
// place), runs build -> simulate -> verify, and reports into a result slot
// indexed by job order — results are therefore deterministic and
// byte-stable across worker counts.
//
// Failure handling is layered (see driver/errors.hpp for the taxonomy):
//   * every throw — including non-std::exception throws — is isolated
//     into that job's result; the rest of the sweep proceeds;
//   * failures are classified into ErrorKind, and transient kinds are
//     retried with bounded exponential backoff (clock and sleeper are
//     injectable so tests run on a fake clock);
//   * a wall-clock `job_timeout_s` and the liveness watchdog cancel hung
//     or runaway jobs cooperatively at scheduler wakeups (timeout-kind
//     failure, never a stuck worker thread);
//   * a `CancelToken` (SIGINT/SIGTERM on the CLI) cancels queued and
//     running jobs cooperatively; finished results are kept and the store
//     already holds them, so a rerun resumes where the sweep stopped;
//   * store put()/flush() failures degrade to cache-off-with-warning —
//     a successfully simulated result is never failed by cache I/O.
#ifndef ARAXL_DRIVER_RUNNER_HPP
#define ARAXL_DRIVER_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "driver/errors.hpp"
#include "driver/job.hpp"
#include "kernels/common.hpp"
#include "obs/metrics.hpp"
#include "sim/cancel.hpp"
#include "sim/stats.hpp"
#include "store/result_store.hpp"
#include "trace/trace.hpp"

namespace araxl::driver {

/// Outcome of one job. `ok` means simulate + verify (when enabled)
/// succeeded; otherwise `error_kind`/`error` say what went wrong.
struct JobResult {
  Job job;
  bool ok = false;
  RunStats stats;
  VerifyResult verify;
  double tolerance = 0.0;
  bool verified = false;   ///< verification was requested and ran
  bool cache_hit = false;  ///< replayed from the result store, not simulated
  /// Failure classification (kNone iff ok). Reports carry it as the
  /// per-job `status` column; the retry policy keys off it.
  ErrorKind error_kind = ErrorKind::kNone;
  std::string error;
  /// Execution attempts consumed (>1 means retries happened). Provenance:
  /// reports zero it by default so retried runs stay byte-identical.
  unsigned attempts = 1;
  /// The job simulated fine but its store put()/flush() failed; the result
  /// is served without caching (surfaced in the sweep summary, never a
  /// job failure).
  bool store_degraded = false;
  std::string store_warning;  ///< degradation detail (empty when healthy)
  /// Instruction trace captured during simulation; only filled when
  /// RunnerOptions::capture_trace is set and the job actually simulated
  /// (cache replays have no trace). shared_ptr so JobResult stays copyable.
  std::shared_ptr<InstrTrace> trace;
};

struct RunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned workers = 1;
  /// Check machine results against each kernel's golden reference.
  bool verify = true;
  /// Differential mode: re-run every job under TimingMode::kCycleStepped
  /// and fail the job unless RunStats match the event-driven run bit for
  /// bit (the EngineEquivalence contract, driven at sweep scale).
  bool check_oracle = false;
  /// Persistent result store; nullptr disables caching entirely. With a
  /// store, each job first looks up its fingerprint and replays a hit
  /// instead of simulating; every simulated success is put() + flush()ed,
  /// so an interrupted sweep resumes where it stopped.
  store::ResultStore* store = nullptr;
  /// Consult the store before simulating (false = write-only caching).
  bool use_cache = true;
  /// Recompute every job and overwrite its store entry even on a hit.
  bool refresh = false;
  /// Cache salt; empty selects store::build_version(). Tests override it
  /// to model results written by a different build.
  std::string cache_salt;

  // ---- fault tolerance ------------------------------------------------------
  /// Per-job wall-clock deadline in seconds; 0 disables. Checked
  /// cooperatively at scheduler wakeups — an expired job unwinds with a
  /// timeout-kind failure and an intact worker thread.
  double job_timeout_s = 0.0;
  /// Liveness-watchdog override applied to every job's MachineConfig
  /// (wakeups without progress before the engine declares a runaway);
  /// 0 keeps each config's own setting. Excluded from fingerprints.
  std::uint64_t watchdog_budget = 0;
  /// Bounded-attempt retry with exponential backoff for transient kinds.
  RetryPolicy retry;
  /// Sweep-wide cooperative shutdown token (CLI signal handling); jobs
  /// not yet started fail as kCancelled immediately, running jobs unwind
  /// at their next wakeup check. Null = never cancelled.
  const CancelToken* cancel = nullptr;
  /// Deterministic fault injection (store I/O + per-fingerprint job
  /// faults); null = no injection. Not owned.
  FaultInjector* faults = nullptr;
  /// Monotonic clock in milliseconds; defaults to std::chrono::steady_clock.
  /// Tests inject a fake to drive deadlines and observe backoff.
  std::function<std::uint64_t()> clock_ms;
  /// Retry-backoff sleeper; defaults to std::this_thread::sleep_for.
  std::function<void(std::uint64_t ms)> sleep_ms;
  /// Liveness pulse, invoked from the engine's cooperative check cadence
  /// (roughly every `RunControl::check_mask + 1` wakeups) while a job
  /// simulates. This is how a serve-layer worker renews its lease
  /// mid-simulation: a multi-minute job would otherwise look dead to the
  /// fleet and be speculatively re-dispatched. Must be cheap and must not
  /// throw; rate-limit internally (the callee decides when a pulse is due,
  /// on the injectable clock). Null (the default) costs nothing.
  std::function<void()> pulse;

  /// Progress callback; invoked serially (under an internal lock) as jobs
  /// finish, with the number completed so far.
  std::function<void(const JobResult&, std::size_t done, std::size_t total)>
      progress;
  /// Test hook: mutate machine state between simulation and verification
  /// (used to prove the golden verifiers catch corrupted results).
  std::function<void(Machine&, const Job&)> corrupt_before_verify;

  // ---- observability --------------------------------------------------------
  /// Optional metrics sink (not owned; must outlive the sweep). Thread-safe
  /// — all workers share it. Null (the default) disables all instrumentation
  /// at near-zero cost. Metrics are pure observers: simulated results and
  /// reports are identical with or without a registry attached.
  obs::MetricsRegistry* metrics = nullptr;
  /// Capture a per-job InstrTrace (with batching/wakeup markers enabled)
  /// into JobResult::trace for every simulated job — the feed for the
  /// Chrome-trace exporter (obs/trace_export.hpp). Cache hits carry no
  /// trace, so callers wanting complete traces should disable the cache.
  bool capture_trace = false;
};

/// Runs one job synchronously on the calling thread, including the retry
/// loop. Never throws: every failure mode is folded into the result.
JobResult run_job(const Job& job, const RunnerOptions& opts);

/// Runs all jobs on `opts.workers` threads. Workers take jobs largest
/// problem first — descending `cfg.total_lanes() * bytes_per_lane`, ties in
/// job-index order — one fixed order for every worker count. `progress`
/// fires, and the store appends records, in completion order; the result
/// vector is indexed by job order regardless, so reports, store record
/// contents, shards and trace exports do not depend on dispatch order.
std::vector<JobResult> run_jobs(const std::vector<Job>& jobs,
                                const RunnerOptions& opts);

/// expand() + run_jobs() in one call.
std::vector<JobResult> run_sweep(const SweepSpec& spec,
                                 const RunnerOptions& opts);

}  // namespace araxl::driver

#endif  // ARAXL_DRIVER_RUNNER_HPP
