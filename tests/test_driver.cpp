// Tests for the experiment-driver subsystem (src/driver/): kernel
// registry coverage, sweep expansion, thread-pooled execution with
// worker-count-independent results, golden-verifier enforcement, failure
// isolation, and degenerate (vl==0 / tiny-AVL) jobs.
#include <gtest/gtest.h>

#include <set>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "driver/job.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/spec.hpp"
#include "isa/program.hpp"
#include "kernels/common.hpp"

namespace araxl::driver {
namespace {

// ---- registry ---------------------------------------------------------------

TEST(Registry, CoversEveryKernelInSrcKernels) {
  // Everything src/kernels/ exports must be sweepable by name.
  std::vector<std::string> expected;
  for (const auto& k : make_all_kernels()) expected.emplace_back(k->name());
  for (const auto& k : make_extension_kernels()) expected.emplace_back(k->name());
  ASSERT_EQ(expected.size(), 9u);

  const KernelRegistry& reg = KernelRegistry::instance();
  for (const std::string& name : expected) {
    const KernelInfo* info = reg.find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_FALSE(info->default_bpl_grid.empty()) << name;
    const auto made = reg.make(name);
    ASSERT_NE(made, nullptr) << name;
    EXPECT_EQ(made->name(), name);
    EXPECT_EQ(made->max_perf_factor(), info->max_perf_factor) << name;
  }
  // Paper set is the six Table-I kernels, in paper order.
  EXPECT_EQ(reg.paper_names(),
            (std::vector<std::string>{"fmatmul", "fconv2d", "jacobi2d",
                                      "fdotproduct", "exp", "softmax"}));
}

TEST(Registry, RejectsDuplicatesNullsAndUnknownNames) {
  KernelRegistry& reg = KernelRegistry::instance();
  EXPECT_EQ(reg.find("no_such_kernel"), nullptr);
  EXPECT_THROW((void)reg.at("no_such_kernel"), ContractViolation);

  KernelInfo dup;
  dup.name = "fmatmul";
  dup.factory = [] { return make_kernel("fmatmul"); };
  EXPECT_THROW(reg.add(std::move(dup)), ContractViolation);

  KernelInfo null_factory;
  null_factory.name = "null_factory_kernel";
  EXPECT_THROW(reg.add(std::move(null_factory)), ContractViolation);
}

// ---- splittable RNG ---------------------------------------------------------

TEST(RngFork, IndependentOfForkOrderAndParentUse) {
  const Rng master(42);
  Rng a = master.fork(7);

  // Interleave arbitrary other forks and parent-independent copies: the
  // child stream for index 7 must be bit-identical.
  Rng scratch = master.fork(3);
  (void)scratch.next_u64();
  Rng b = master.fork(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());

  // Distinct streams and distinct bases diverge.
  Rng c = master.fork(8);
  EXPECT_NE(master.fork(7).next_u64(), c.next_u64());
  EXPECT_NE(Rng(1).fork(7).next_u64(), Rng(2).fork(7).next_u64());
}

// ---- expansion --------------------------------------------------------------

SweepSpec small_spec(std::uint64_t base_seed) {
  SweepSpec spec;
  spec.configs = {parse_config_spec("araxl:8"), parse_config_spec("ara2:8")};
  spec.kernels = {"fdotproduct", "exp", "stream_triad"};
  spec.bytes_per_lane = {64};
  spec.base_seed = base_seed;
  return spec;
}

TEST(Expand, FlattensConfigMajorWithStableSeeds) {
  const std::vector<Job> jobs = expand(small_spec(99));
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].config_label, "araxl:8");
  EXPECT_EQ(jobs[0].kernel, "fdotproduct");
  EXPECT_EQ(jobs[3].config_label, "ara2:8");
  EXPECT_EQ(jobs[5].kernel, "stream_triad");
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(jobs[i].index, i);

  // Seeds are a pure function of (base_seed, index): re-expansion agrees,
  // jobs do not share streams, and base 0 keeps legacy inputs.
  const std::vector<Job> again = expand(small_spec(99));
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].seed, again[i].seed);
    EXPECT_NE(jobs[i].seed, 0u);
    seeds.insert(jobs[i].seed);
  }
  EXPECT_EQ(seeds.size(), jobs.size());
  for (const Job& j : expand(small_spec(0))) EXPECT_EQ(j.seed, 0u);
}

TEST(Expand, RejectsUnknownKernelsAndEmptyAxes) {
  SweepSpec spec = small_spec(0);
  spec.kernels.push_back("no_such_kernel");
  EXPECT_THROW((void)expand(spec), ContractViolation);
  spec = small_spec(0);
  spec.bytes_per_lane.clear();
  EXPECT_THROW((void)expand(spec), ContractViolation);
}

// ---- config specs -----------------------------------------------------------

TEST(ConfigSpec, ParsesShapesAndKnobs) {
  EXPECT_EQ(parse_config_spec("araxl:64").cfg.topo.clusters, 16u);
  EXPECT_EQ(parse_config_spec("araxl:8x8").cfg.topo.lanes, 8u);
  EXPECT_EQ(parse_config_spec("ara2:8").cfg.kind, MachineKind::kAra2);

  const ConfigPoint p =
      parse_config_spec("araxl:64:glsu=4:l2=24:vlen=32768:mode=cycle");
  EXPECT_EQ(p.label, "araxl:64:glsu=4:l2=24:vlen=32768:mode=cycle");
  EXPECT_EQ(p.cfg.glsu_regs, 4u);
  EXPECT_EQ(p.cfg.l2_latency, 24u);
  EXPECT_EQ(p.cfg.vlen_bits, 32768u);
  EXPECT_EQ(p.cfg.timing_mode, TimingMode::kCycleStepped);

  for (const char* bad : {"araxl", "araxl:sixty", "frankenmachine:8",
                          "araxl:64:warp=9", "ara2:8x2", "araxl:64:glsu"}) {
    EXPECT_THROW((void)parse_config_spec(bad), ContractViolation) << bad;
  }
}

TEST(ConfigSpec, RejectsOutOfRangeValuesInsteadOfTruncating) {
  // 4294967304 = 2^32 + 8 and 4294967297 = 2^32 + 1: a 32-bit truncation
  // would read them as araxl:8 and glsu=1.
  for (const char* bad :
       {"araxl:4294967304", "ara2:4294967304", "araxl:2x4294967300",
        "araxl:2x2x4294967300", "araxl:8:glsu=4294967297",
        "araxl:8:reqi=4294967297", "araxl:8:ring=4294967297",
        "araxl:8:l2=4294967297", "araxl:64:groups=4294967297",
        // vlen_bits == 0 means "default VLEN"; an explicit 0 is an error.
        "araxl:8:vlen=0"}) {
    EXPECT_THROW((void)parse_config_spec(bad), ContractViolation) << bad;
  }
  EXPECT_THROW((void)parse_shard_spec("4294967297/4294967298"),
               ContractViolation);
  EXPECT_EQ(parse_config_spec("araxl:8:glsu=4294967295").cfg.glsu_regs,
            4294967295u);
}

// ---- runner: determinism across worker counts -------------------------------

TEST(Runner, SweepReportsByteIdenticalFor1And8Workers) {
  // Mixed lane counts and B/lane points, so the largest-first dispatch
  // order differs from job order.
  SweepSpec spec = small_spec(42);
  spec.configs.push_back(parse_config_spec("araxl:64"));
  spec.bytes_per_lane.push_back(256);

  RunnerOptions serial;
  serial.workers = 1;
  const std::vector<JobResult> r1 = run_sweep(spec, serial);

  RunnerOptions pooled;
  pooled.workers = 8;
  const std::vector<JobResult> r8 = run_sweep(spec, pooled);

  ASSERT_EQ(r1.size(), 18u);
  for (const JobResult& r : r1) EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(to_json(r1), to_json(r8));
  EXPECT_EQ(to_csv(r1), to_csv(r8));
}

TEST(Runner, ProgressReportsEveryJobExactlyOnce) {
  const SweepSpec spec = small_spec(0);
  RunnerOptions opts;
  opts.workers = 4;
  std::set<std::size_t> seen;
  std::size_t max_done = 0;
  opts.progress = [&](const JobResult& r, std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 6u);
    EXPECT_TRUE(seen.insert(r.job.index).second);
    EXPECT_GE(done, max_done);  // done counts are monotone under the lock
    max_done = done;
  };
  (void)run_sweep(spec, opts);
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(max_done, 6u);
}

TEST(Runner, DispatchesLargestProblemsFirst) {
  // Job i = (config, kernel, bpl) in config-major order; the work measure
  // is total lanes x B/lane, with ties between both configs.
  SweepSpec spec;
  spec.configs = {parse_config_spec("araxl:16"), parse_config_spec("araxl:64")};
  spec.kernels = {"fdotproduct", "exp"};
  spec.bytes_per_lane = {64, 256};
  const std::vector<Job> jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 8u);

  // With one worker, completion order is dispatch order.
  RunnerOptions opts;
  opts.workers = 1;
  std::vector<std::size_t> finished;
  opts.progress = [&](const JobResult& r, std::size_t, std::size_t) {
    finished.push_back(r.job.index);
  };
  const std::vector<JobResult> results = run_jobs(jobs, opts);

  // 16384 (64L x 256) > 4096 (16L x 256 and 64L x 64) > 1024 (16L x 64),
  // ties in job-index order.
  EXPECT_EQ(finished, (std::vector<std::size_t>{5, 7, 1, 3, 4, 6, 0, 2}));

  // Results stay indexed by job and match running each job on its own.
  std::vector<JobResult> reference;
  for (const Job& j : jobs) reference.push_back(run_job(j, RunnerOptions{}));
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].job.index, i);
    EXPECT_TRUE(results[i].ok) << results[i].error;
  }
  EXPECT_EQ(to_json(results), to_json(reference));
  EXPECT_EQ(to_csv(results), to_csv(reference));
}

// ---- runner: golden verifiers + failure isolation ---------------------------

TEST(Runner, GoldenVerifierCatchesInjectedCorruptionIsolated) {
  // exp verifies from memory; corrupting the machine's memory after the
  // run but before verification must fail that job — and only that job.
  SweepSpec spec;
  spec.configs = {parse_config_spec("araxl:8")};
  spec.kernels = {"fdotproduct", "exp", "stream_triad"};
  spec.bytes_per_lane = {64};

  RunnerOptions opts;
  opts.workers = 2;
  opts.corrupt_before_verify = [](Machine& m, const Job& job) {
    if (job.kernel == "exp") m.mem().fill(0x55);
  };
  const std::vector<JobResult> results = run_sweep(spec, opts);
  ASSERT_EQ(results.size(), 3u);
  for (const JobResult& r : results) {
    if (r.job.kernel == "exp") {
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find("verification failed"), std::string::npos)
          << r.error;
    } else {
      EXPECT_TRUE(r.ok) << r.job.kernel << ": " << r.error;
    }
  }
  // The failed job still reports provenance in both report formats.
  const std::string json = to_json(results);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("verification failed"), std::string::npos);
  EXPECT_NE(to_csv(results).find("verification failed"), std::string::npos);
}

TEST(Runner, ProblemLargerThanMemoryFailsAsConfigBeforeSimulating) {
  // Every kernel lays its buffers out from 1 MiB, so none fits 1 MiB + 4 KiB.
  std::vector<std::unique_ptr<Kernel>> kernels = make_all_kernels();
  for (auto& k : make_extension_kernels()) kernels.push_back(std::move(k));
  for (const auto& kernel : kernels) {
    Job job;
    job.config_label = "tiny-mem";
    job.cfg = MachineConfig::araxl(8);
    job.cfg.mem_size_bytes = (1u << 20) + 4096;
    job.kernel = std::string(kernel->name());
    job.bytes_per_lane = 64;
    const JobResult r = run_job(job, RunnerOptions{});
    EXPECT_FALSE(r.ok) << job.kernel;
    EXPECT_EQ(r.error_kind, ErrorKind::kConfig) << job.kernel << ": " << r.error;
    EXPECT_NE(r.error.find("kernel " + job.kernel + " needs "), std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find("mem_size_bytes is 1052672"), std::string::npos) << r.error;
    EXPECT_EQ(r.stats.cycles, 0u) << job.kernel;
  }
}

TEST(Runner, InvalidConfigJobIsIsolatedNotFatal) {
  // Hand-build jobs so one carries a config that fails validate(): the
  // bad job must error out while its neighbours complete.
  std::vector<Job> jobs(2);
  jobs[0].index = 0;
  jobs[0].config_label = "good";
  jobs[0].cfg = MachineConfig::araxl(8);
  jobs[0].kernel = "stream_triad";
  jobs[0].bytes_per_lane = 64;
  jobs[1] = jobs[0];
  jobs[1].index = 1;
  jobs[1].config_label = "bad";
  jobs[1].cfg.topo.clusters = 3;  // not a power of two

  RunnerOptions opts;
  opts.workers = 2;
  const std::vector<JobResult> results = run_jobs(jobs, opts);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_FALSE(results[1].error.empty());
}

// ---- degenerate jobs --------------------------------------------------------

/// Synthetic kernel whose program runs with vl == 0: vsetvli grants zero
/// elements, the load/compute/store bodies must all retire as no-ops.
class Vl0ProbeKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "vl0_probe"; }
  [[nodiscard]] double max_perf_factor() const override { return 0.0; }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul1; }
  [[nodiscard]] std::uint64_t useful_flops() const override { return 0; }

 private:
  Program build_program(Machine& m, std::uint64_t) override {
    ProgramBuilder pb(m.config().effective_vlen(), "vl0_probe");
    const std::uint64_t addr = 1u << 20;
    pb.vsetvli(0, Sew::k64, kLmul1);
    pb.vle(1, addr);
    pb.vfadd_vf(2, 1, 1.0);
    pb.vse(2, addr + 4096);
    return pb.take();
  }

  [[nodiscard]] VerifyResult verify_outputs(const Machine&) const override {
    return VerifyResult{};  // nothing to check; the run completing is the test
  }
};

TEST(Runner, ZeroVlAndTinyAvlJobsRunClean) {
  KernelRegistry& reg = KernelRegistry::instance();
  if (reg.find("vl0_probe") == nullptr) {
    KernelInfo info;
    info.name = "vl0_probe";
    info.factory = [] { return std::make_unique<Vl0ProbeKernel>(); };
    info.default_bpl_grid = {8};
    info.extension = true;  // keep paper_names() stable for other tests
    reg.add(std::move(info));
  }

  SweepSpec spec;
  spec.configs = {parse_config_spec("araxl:8"), parse_config_spec("ara2:8")};
  spec.kernels = reg.names();  // every registered kernel, probe included
  spec.bytes_per_lane = {8};   // tiny AVL: one element per lane
  RunnerOptions opts;
  opts.workers = 4;
  for (const JobResult& r : run_sweep(spec, opts)) {
    EXPECT_TRUE(r.ok) << r.job.config_label << "/" << r.job.kernel << ": "
                      << r.error;
    if (r.job.kernel == "vl0_probe") {
      EXPECT_EQ(r.stats.flops, 0u);
      EXPECT_EQ(r.stats.mem_read_bytes, 0u);
      EXPECT_EQ(r.stats.mem_write_bytes, 0u);
    }
  }
}

// ---- differential oracle at sweep scale -------------------------------------

TEST(Runner, OracleCheckConfirmsEventEngineOnDriverJobs) {
  SweepSpec spec;
  spec.configs = {parse_config_spec("araxl:8"),
                  parse_config_spec("araxl:16:glsu=4:reqi=1:ring=1")};
  spec.kernels = {"fdotproduct", "softmax"};
  spec.bytes_per_lane = {64};
  spec.base_seed = 7;  // fresh inputs, not the legacy fixed ones
  RunnerOptions opts;
  opts.workers = 4;
  opts.check_oracle = true;
  for (const JobResult& r : run_sweep(spec, opts)) {
    EXPECT_TRUE(r.ok) << r.job.config_label << "/" << r.job.kernel << ": "
                      << r.error;
  }
}

}  // namespace
}  // namespace araxl::driver
