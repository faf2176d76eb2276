// Tests for the fault-tolerance layer: the deterministic fault injector
// (src/common/faults.*), store I/O injection + recovery, the runner's
// typed-error classification, retry/backoff on a fake clock, job
// deadlines and cooperative cancellation, and the byte-identity contract
// under chaos (a fault-injected, retried sweep reports identically to a
// clean one).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/faults.hpp"
#include "driver/errors.hpp"
#include "driver/job.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/spec.hpp"
#include "store/appendio.hpp"
#include "store/result_store.hpp"
#include "store/version.hpp"

namespace araxl {
namespace {

using driver::ErrorKind;
using driver::Job;
using driver::JobResult;
using driver::RunnerOptions;
using driver::SweepSpec;

std::string temp_path(const char* name) {
  // Per-process suffix: concurrent test runs (ctest -j, overlapping CI
  // invocations) must not clobber each other's store files.
  return testing::TempDir() + "araxl_faults_test_" + name + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".jsonl";
}

store::StoredResult record(int i) {
  store::StoredResult r;
  r.version = "v-test";
  r.config = "cfg";
  r.kernel = "exp";
  r.bytes_per_lane = 64;
  r.seed = static_cast<std::uint64_t>(i);
  r.fingerprint = store::fingerprint(
      store::JobKey{r.config, r.kernel, r.bytes_per_lane, r.seed, r.version});
  r.stats.cycles = 100 + static_cast<std::uint64_t>(i);
  return r;
}

// ---- spec parsing -----------------------------------------------------------

TEST(FaultSpec, ParsesAndRoundTripsThroughDescribe) {
  const FaultInjector f("seed=7,store.write=0.25,job=0.5@2,job.hang=0.1");
  EXPECT_EQ(f.seed(), 7u);
  EXPECT_EQ(f.transient_attempts(), 2u);
  EXPECT_EQ(f.describe(), "seed=7,store.write=0.25,job=0.5@2,job.hang=0.1");
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultInjector(""), ContractViolation);
  EXPECT_THROW(FaultInjector("bogus=1"), ContractViolation);
  EXPECT_THROW(FaultInjector("job"), ContractViolation);          // no '='
  EXPECT_THROW(FaultInjector("job=1.5"), ContractViolation);      // rate > 1
  EXPECT_THROW(FaultInjector("job=-0.1"), ContractViolation);     // rate < 0
  EXPECT_THROW(FaultInjector("job=x"), ContractViolation);        // not a number
  EXPECT_THROW(FaultInjector("seed=12x"), ContractViolation);     // not an int
  EXPECT_THROW(FaultInjector("job=0.5@0"), ContractViolation);    // attempts < 1
}

// ---- job-fault determinism --------------------------------------------------

TEST(FaultInjection, JobFaultsArePureFunctionsOfSeedAndFingerprint) {
  const FaultInjector a("seed=3,job=0.5,job.fail=0.2");
  const FaultInjector b("seed=3,job=0.5,job.fail=0.2");
  const FaultInjector other_seed("seed=4,job=0.5,job.fail=0.2");

  int faulted = 0, differs = 0;
  for (int i = 0; i < 256; ++i) {
    const std::string fp = "fp-" + std::to_string(i);
    const auto fa = a.job_fault(fp, 1);
    // Two injectors with the same spec agree on every decision, however
    // many times and in whatever order they are asked.
    EXPECT_EQ(fa, b.job_fault(fp, 1));
    EXPECT_EQ(fa, a.job_fault(fp, 1));
    if (fa != FaultInjector::JobFault::kNone) ++faulted;
    if (fa != other_seed.job_fault(fp, 1)) ++differs;
  }
  // The rates actually bite, and the seed actually matters.
  EXPECT_GT(faulted, 64);
  EXPECT_LT(faulted, 256);
  EXPECT_GT(differs, 0);
}

TEST(FaultInjection, TransientFaultsClearAfterConfiguredAttempts) {
  const FaultInjector f("seed=1,job=1@2");
  EXPECT_EQ(f.job_fault("fp", 1), FaultInjector::JobFault::kTransient);
  EXPECT_EQ(f.job_fault("fp", 2), FaultInjector::JobFault::kTransient);
  EXPECT_EQ(f.job_fault("fp", 3), FaultInjector::JobFault::kNone);

  const FaultInjector permanent("seed=1,job.fail=1");
  for (unsigned attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_EQ(permanent.job_fault("fp", attempt),
              FaultInjector::JobFault::kPermanent);
  }
  // Precedence when rates overlap: hang > permanent > transient.
  const FaultInjector all("seed=1,job=1,job.fail=1,job.hang=1");
  EXPECT_EQ(all.job_fault("fp", 1), FaultInjector::JobFault::kHang);
}

// ---- store I/O injection ----------------------------------------------------

TEST(FaultInjection, StoreOpenFailureKeepsPendingForRetry) {
  const std::string path = temp_path("open_fail");
  std::remove(path.c_str());
  store::ResultStore s(path);
  FaultInjector faults("seed=1,store.open=1");
  s.set_fault_injector(&faults);
  s.put(record(0));
  EXPECT_THROW(s.flush(), store::StoreIoError);
  // Pending survived the failed flush: with the fault gone, everything
  // lands on disk.
  s.set_fault_injector(nullptr);
  s.flush();
  store::ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 1u);
  std::remove(path.c_str());
}

TEST(FaultInjection, ShortWriteTearsTailButLaterFlushRecoversAllRecords) {
  const std::string path = temp_path("short_write");
  std::remove(path.c_str());
  store::ResultStore s(path);
  FaultInjector faults("seed=2,store.write=1");
  s.set_fault_injector(&faults);
  for (int i = 0; i < 3; ++i) s.put(record(i));
  EXPECT_THROW(s.flush(), store::StoreIoError);  // wrote a torn prefix
  s.set_fault_injector(nullptr);
  s.flush();  // re-appends every record as whole lines

  // The corruption-tolerant loader skips the torn line and dedups the
  // doubly-appended records: all three results survive.
  store::ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto hit = reloaded.find(record(i).fingerprint);
    ASSERT_TRUE(hit.has_value()) << "record " << i;
    EXPECT_EQ(hit->stats.cycles, 100u + static_cast<std::uint64_t>(i));
  }
  std::remove(path.c_str());
}

TEST(FaultInjection, ConcurrentWritersSurviveInjectedShortWrites) {
  const std::string path = temp_path("chaos_writers");
  std::remove(path.c_str());
  FaultInjector faults("seed=5,store.write=0.5");

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 8;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      store::ResultStore s(path);  // each writer its own handle, same file
      s.set_fault_injector(&faults);
      for (int i = 0; i < kPerWriter; ++i) {
        s.put(record(w * kPerWriter + i));
        // A failed flush keeps pending; retry until this append survives
        // (rate 0.5 => some sequence number soon passes).
        for (int tries = 0; tries < 1000; ++tries) {
          try {
            s.flush();
            break;
          } catch (const store::StoreIoError&) {
          }
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();

  store::ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), static_cast<std::size_t>(kWriters * kPerWriter));
  for (int i = 0; i < kWriters * kPerWriter; ++i) {
    EXPECT_TRUE(reloaded.find(record(i).fingerprint).has_value())
        << "record " << i << " lost under injected short writes";
  }
  std::remove(path.c_str());
}

TEST(FaultInjection, TornPrefixLandingMidAppendDoesNotSwallowTheRecord) {
  // The interleaving behind the concurrent-writer test, made deterministic
  // with two handles: writer B has opened the file (which ends cleanly),
  // then writer A lands a torn prefix, then B writes. The short-write hook
  // runs after B's open and before its write, so it is where A's torn
  // append is injected. B's record must survive on its own line.
  const std::string path = temp_path("torn_interleave");
  std::remove(path.c_str());
  const auto line = [](int i) {
    return store::ResultStore::serialize(record(i)) + "\n";
  };
  store::append_lines(path, line(0), {}, false);

  store::AppendFaults torn_a;
  torn_a.short_write = [](std::size_t len) -> std::optional<std::size_t> {
    return len / 2;
  };
  store::AppendFaults interleave_b;
  interleave_b.short_write = [&](std::size_t) -> std::optional<std::size_t> {
    EXPECT_THROW(store::append_lines(path, line(1), torn_a, false),
                 store::StoreIoError);
    return std::nullopt;
  };
  store::append_lines(path, line(2), interleave_b, false);

  store::ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.find(record(0).fingerprint).has_value());
  EXPECT_FALSE(reloaded.find(record(1).fingerprint).has_value());  // torn
  EXPECT_TRUE(reloaded.find(record(2).fingerprint).has_value())
      << "B's clean append merged into A's torn line";
  EXPECT_EQ(reloaded.load_report().bad_lines, 1u);
  std::remove(path.c_str());
}

TEST(FaultInjection, GcRenameFailureLeavesOriginalStoreIntact) {
  const std::string path = temp_path("gc_rename");
  std::remove(path.c_str());
  {
    store::ResultStore s(path);
    for (int i = 0; i < 3; ++i) s.put(record(i));
    s.flush();
  }
  store::ResultStore s(path);
  FaultInjector faults("seed=1,store.rename=1");
  s.set_fault_injector(&faults);
  EXPECT_THROW((void)s.gc("v-test"), store::StoreIoError);
  // The compaction temp file was discarded and the original is untouched.
  store::ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 3u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---- retry policy -----------------------------------------------------------

TEST(RetryPolicy, BackoffIsExponentialAndCapped) {
  driver::RetryPolicy p;
  p.backoff_ms = 100;
  p.backoff_mult = 2.0;
  p.max_backoff_ms = 500;
  EXPECT_EQ(p.backoff(1), 100u);
  EXPECT_EQ(p.backoff(2), 200u);
  EXPECT_EQ(p.backoff(3), 400u);
  EXPECT_EQ(p.backoff(4), 500u);  // capped
  EXPECT_EQ(p.backoff(9), 500u);

  EXPECT_TRUE(p.retryable(ErrorKind::kInjected));
  EXPECT_FALSE(p.retryable(ErrorKind::kTimeout));
  p.retry_timeouts = true;
  EXPECT_TRUE(p.retryable(ErrorKind::kTimeout));
  EXPECT_FALSE(p.retryable(ErrorKind::kConfig));
  EXPECT_FALSE(p.retryable(ErrorKind::kVerifyFailed));
  EXPECT_FALSE(p.retryable(ErrorKind::kOracleDivergence));
}

// ---- runner integration -----------------------------------------------------

Job small_job() {
  Job job;
  job.index = 0;
  job.config_label = "araxl:8";
  job.cfg = driver::parse_config_spec("araxl:8").cfg;
  job.kernel = "stream_triad";
  job.bytes_per_lane = 64;
  return job;
}

/// Options with a fake clock (advances 1 ms per read) and a recording
/// sleeper, so retry/backoff and deadlines run instantly and observably.
struct FakeTime {
  std::uint64_t now = 0;
  std::vector<std::uint64_t> sleeps;

  void wire(RunnerOptions& opts) {
    opts.clock_ms = [this] { return ++now; };
    opts.sleep_ms = [this](std::uint64_t ms) {
      sleeps.push_back(ms);
      now += ms;
    };
  }
};

TEST(RunnerFaults, TransientInjectedFaultRetriesWithBackoffThenSucceeds) {
  FaultInjector faults("seed=1,job=1@2");  // every job fails attempts 1-2
  FakeTime time;
  RunnerOptions opts;
  opts.faults = &faults;
  opts.retry.max_attempts = 3;
  opts.retry.backoff_ms = 100;
  time.wire(opts);

  const Job job = small_job();
  const JobResult res = driver::run_job(job, opts);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.attempts, 3u);
  EXPECT_EQ(res.error_kind, ErrorKind::kNone);
  // The backoff schedule is jittered deterministically by the job's store
  // fingerprint (decorrelates a fleet retrying in lockstep); reproduce the
  // key the runner derives and expect the exact dithered values.
  const std::string fp = store::fingerprint(
      store::JobKey{store::canonical_config(job.cfg), job.kernel,
                    job.bytes_per_lane, job.seed, store::build_version()});
  ASSERT_EQ(time.sleeps.size(), 2u);  // backoff between the three attempts
  EXPECT_EQ(time.sleeps[0], opts.retry.backoff_jittered(1, fp));
  EXPECT_EQ(time.sleeps[1], opts.retry.backoff_jittered(2, fp));
  // Jitter factor lives in [0.5, 1.5) of the undithered 100/200 schedule.
  EXPECT_GE(time.sleeps[0], 50u);
  EXPECT_LT(time.sleeps[0], 150u);
  EXPECT_GE(time.sleeps[1], 100u);
  EXPECT_LT(time.sleeps[1], 300u);
}

TEST(RetryPolicy, JitterIsDeterministicBoundedAndKeyedOnFingerprint) {
  driver::RetryPolicy p;
  p.backoff_ms = 100;
  p.max_backoff_ms = 5000;
  // Same (fingerprint, retry index) -> same delay, run to run.
  EXPECT_EQ(p.backoff_jittered(1, "fp-a"), p.backoff_jittered(1, "fp-a"));
  // An empty fingerprint falls back to the undithered schedule.
  EXPECT_EQ(p.backoff_jittered(1, ""), p.backoff(1));
  EXPECT_EQ(p.backoff_jittered(3, ""), p.backoff(3));
  // Different fingerprints decorrelate; different indices re-dither.
  bool any_differs = false;
  for (const char* fp : {"fp-a", "fp-b", "fp-c", "fp-d"}) {
    for (unsigned i = 1; i <= 4; ++i) {
      const std::uint64_t base = p.backoff(i);
      const std::uint64_t jit = p.backoff_jittered(i, fp);
      EXPECT_GE(jit, base / 2) << fp << " i=" << i;
      EXPECT_LE(jit, base + base / 2) << fp << " i=" << i;
      EXPECT_LE(jit, p.max_backoff_ms);
      if (jit != base) any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
  EXPECT_NE(p.backoff_jittered(1, "fp-a"), p.backoff_jittered(1, "fp-b"));
}

TEST(RunnerFaults, PermanentInjectedFaultExhaustsAttempts) {
  FaultInjector faults("seed=1,job.fail=1");
  FakeTime time;
  RunnerOptions opts;
  opts.faults = &faults;
  opts.retry.max_attempts = 3;
  time.wire(opts);

  const JobResult res = driver::run_job(small_job(), opts);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error_kind, ErrorKind::kInjected);
  EXPECT_EQ(res.attempts, 3u);
  EXPECT_EQ(time.sleeps.size(), 2u);
}

TEST(RunnerFaults, DeterministicFailuresAreNotRetried) {
  Job bad = small_job();
  bad.cfg.topo.clusters = 3;  // fails validate()
  FakeTime time;
  RunnerOptions opts;
  opts.retry.max_attempts = 5;
  time.wire(opts);

  const JobResult res = driver::run_job(bad, opts);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error_kind, ErrorKind::kConfig);
  EXPECT_EQ(res.attempts, 1u);
  EXPECT_TRUE(time.sleeps.empty());
}

TEST(RunnerFaults, InjectedHangTimesOutViaDeadlineNotAStuckThread) {
  FaultInjector faults("seed=1,job.hang=1");
  FakeTime time;
  RunnerOptions opts;
  opts.faults = &faults;
  opts.job_timeout_s = 0.005;  // 5 fake milliseconds
  opts.retry.max_attempts = 1;
  time.wire(opts);
  opts.sleep_ms = [&time](std::uint64_t ms) { time.now += ms; };  // silent

  const JobResult res = driver::run_job(small_job(), opts);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error_kind, ErrorKind::kTimeout);
  // The deadline diagnostic must stay wall-clock-free (reports are pure
  // functions of the job set).
  EXPECT_EQ(res.error, "job deadline exceeded");
}

TEST(RunnerFaults, ExpiredDeadlineCancelsARealSimulationAsTimeout) {
  // Cycle-stepped engines poll the deadline from cycle 0, so a deadline
  // that expires on the first clock read cancels the run immediately.
  Job job = small_job();
  job.cfg.timing_mode = TimingMode::kCycleStepped;
  RunnerOptions opts;
  opts.job_timeout_s = 0.001;
  std::uint64_t now = 0;
  opts.clock_ms = [&now] {
    now += 10'000;  // every read jumps 10 s: the budget is gone instantly
    return now;
  };

  const JobResult res = driver::run_job(job, opts);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error_kind, ErrorKind::kTimeout);
}

TEST(RunnerFaults, PreRequestedShutdownCancelsQueuedJobs) {
  CancelToken cancel;
  cancel.request();
  RunnerOptions opts;
  opts.cancel = &cancel;
  const JobResult res = driver::run_job(small_job(), opts);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error_kind, ErrorKind::kCancelled);
  EXPECT_EQ(res.attempts, 1u);
}

TEST(RunnerFaults, MidSweepShutdownKeepsFinishedResults) {
  SweepSpec spec;
  spec.configs = {driver::parse_config_spec("araxl:8")};
  spec.kernels = {"stream_triad", "exp", "fdotproduct"};
  spec.bytes_per_lane = {64};

  CancelToken cancel;
  RunnerOptions opts;
  opts.workers = 1;  // deterministic completion order
  opts.cancel = &cancel;
  opts.progress = [&cancel](const JobResult&, std::size_t done, std::size_t) {
    if (done == 1) cancel.request();  // "Ctrl-C" after the first job
  };

  const std::vector<JobResult> results = driver::run_sweep(spec, opts);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].ok);
    EXPECT_EQ(results[i].error_kind, ErrorKind::kCancelled);
  }
}

TEST(RunnerFaults, EnabledControlDoesNotPerturbCompletedRuns) {
  // The cancellation polls must be pure observers: the same job with and
  // without an (unfired) RunControl yields bit-identical stats.
  RunnerOptions plain;
  const JobResult base = driver::run_job(small_job(), plain);
  ASSERT_TRUE(base.ok) << base.error;

  CancelToken never;
  RunnerOptions watched;
  watched.cancel = &never;
  watched.job_timeout_s = 3600.0;  // real clock, far-future deadline
  const JobResult res = driver::run_job(small_job(), watched);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.stats == base.stats);
}

// Kernel whose build() throws a non-std::exception value: the worker loop
// must isolate it like any other failure instead of letting it unwind
// into std::terminate.
class ThrowingKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "throws_int"; }
  [[nodiscard]] double max_perf_factor() const override { return 0.0; }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul1; }
  Program build(Machine&, std::uint64_t) override { throw 42; }
  [[nodiscard]] std::uint64_t useful_flops() const override { return 0; }
  [[nodiscard]] VerifyResult verify(const Machine&) const override {
    return VerifyResult{};
  }
};

TEST(RunnerFaults, NonStdExceptionThrowIsIsolatedAndClassified) {
  driver::KernelRegistry& reg = driver::KernelRegistry::instance();
  if (reg.find("throws_int") == nullptr) {
    driver::KernelInfo info;
    info.name = "throws_int";
    info.factory = [] { return std::make_unique<ThrowingKernel>(); };
    info.default_bpl_grid = {64};
    info.extension = true;
    reg.add(std::move(info));
  }
  Job job = small_job();
  job.kernel = "throws_int";
  const JobResult res = driver::run_job(job, RunnerOptions{});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error_kind, ErrorKind::kSimulation);
  EXPECT_NE(res.error.find("non-std::exception"), std::string::npos);
}

TEST(RunnerFaults, StoreWriteFailureDegradesToUncachedNotFailed) {
  const std::string path = temp_path("degraded");
  std::remove(path.c_str());
  store::ResultStore s(path);
  FaultInjector faults("seed=1,store.open=1");  // store I/O only, no job faults
  s.set_fault_injector(&faults);
  RunnerOptions opts;
  opts.store = &s;

  const JobResult res = driver::run_job(small_job(), opts);
  EXPECT_TRUE(res.ok) << res.error;  // the simulation itself succeeded
  EXPECT_EQ(res.error_kind, ErrorKind::kNone);
  EXPECT_TRUE(res.store_degraded);
  EXPECT_FALSE(res.store_warning.empty());
  EXPECT_FALSE(res.cache_hit);
  std::remove(path.c_str());
}

// ---- byte-identity under chaos ----------------------------------------------

TEST(RunnerFaults, RetriedSweepReportsByteIdenticalToCleanSweep) {
  SweepSpec spec;
  spec.configs = {driver::parse_config_spec("araxl:8"),
                  driver::parse_config_spec("ara2:8")};
  spec.kernels = {"stream_triad", "exp"};
  spec.bytes_per_lane = {64};

  RunnerOptions clean;
  clean.workers = 2;
  const auto clean_results = driver::run_sweep(spec, clean);
  for (const JobResult& r : clean_results) ASSERT_TRUE(r.ok) << r.error;

  // Every job fails its first attempt, then succeeds on retry. Attempts
  // are provenance (zeroed in reports), so the chaos run's report must be
  // byte-identical to the clean run's — the acceptance contract the CI
  // chaos job enforces end to end.
  FaultInjector faults("seed=9,job=1");
  FakeTime time;
  RunnerOptions chaos;
  chaos.workers = 2;
  chaos.faults = &faults;
  chaos.retry.max_attempts = 3;
  time.wire(chaos);
  const auto chaos_results = driver::run_sweep(spec, chaos);
  for (const JobResult& r : chaos_results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.attempts, 2u);
  }

  EXPECT_EQ(driver::to_json(clean_results), driver::to_json(chaos_results));
  EXPECT_EQ(driver::to_csv(clean_results), driver::to_csv(chaos_results));

  // With live provenance requested, the retries become visible.
  driver::ReportOptions live;
  live.live_provenance = true;
  EXPECT_NE(driver::to_json(clean_results, live),
            driver::to_json(chaos_results, live));
}

TEST(Report, FailedJobsCarryTheirStatusKind) {
  FaultInjector faults("seed=1,job.fail=1");
  RunnerOptions opts;
  opts.faults = &faults;
  opts.retry.max_attempts = 1;
  const std::vector<JobResult> results = {driver::run_job(small_job(), opts)};
  const std::string json = driver::to_json(results);
  EXPECT_NE(json.find("\"status\":\"injected\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  const std::string csv = driver::to_csv(results);
  EXPECT_NE(csv.find(",injected,"), std::string::npos);
}

}  // namespace
}  // namespace araxl
