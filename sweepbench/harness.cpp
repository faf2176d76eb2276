// End-to-end sweep benchmark harness; run.py drives it (see README.md).
//
// Every subcommand is one fresh process, as every `araxl` invocation is, so
// no pass reuses program state (caches, the kernel registry, allocator
// warmth) from an earlier one. Each prints one JSON object on stdout.
//
//   pass   --workload W --seed S --dir D [--variant V] [--smoke]
//          one timed cold pass through driver::run_jobs
//   traced --workload W --seed S --dir D --spans F [--smoke]
//          the same pass driven layer by layer from here, one span per
//          layer entry-point call; spans go to F once the pass ends
//   setup  --workload replay --seed S --dir D [--smoke]
//          populates D/replay.jsonl, the store the replay passes read
//   table3 --seed S
//          untimed Table III probe, for grids that lack its four jobs
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/analysis.hpp"
#include "common/fmt.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/spec.hpp"
#include "machine/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "ppa/freq_model.hpp"
#include "ppa/power_model.hpp"
#include "store/fingerprint.hpp"
#include "store/result_store.hpp"
#include "store/version.hpp"

namespace {

using namespace araxl;
namespace fs = std::filesystem;

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

double seconds_since(std::uint64_t t_ns) { return (now_ns() - t_ns) * 1e-9; }

// ---- arguments ---------------------------------------------------------------

struct Args {
  std::string cmd;
  std::string workload;
  std::string dir = ".";
  std::string spans;
  std::string variant;
  std::uint64_t seed = 0;
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::runtime_error("usage: sweepbench <pass|traced|setup|table3> ...");
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--dir") {
      a.dir = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--variant") {
      a.variant = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  return a;
}

// ---- workloads ---------------------------------------------------------------

/// One `araxl sweep` invocation's grid: the CLI preset it mirrors.
struct Sweep {
  const char* name;
  std::vector<driver::Job> jobs;
  unsigned workers = 1;
};

driver::SweepSpec make_spec(std::initializer_list<const char*> configs,
                            std::vector<std::uint64_t> bpl, std::uint64_t seed) {
  driver::SweepSpec spec;
  for (const char* c : configs) spec.configs.push_back(driver::parse_config_spec(c));
  spec.kernels = driver::KernelRegistry::instance().paper_names();
  spec.bytes_per_lane = std::move(bpl);
  spec.base_seed = seed;
  return spec;
}

// `--smoke` shrinks every grid to a few seconds for the self-tests while
// keeping each workload's code path (hierarchical topologies included).
Sweep fig6_sweep(std::uint64_t seed, bool smoke) {
  const driver::SweepSpec spec =
      smoke ? make_spec({"ara2:8", "araxl:8"}, {64}, seed)
            : make_spec({"ara2:8", "araxl:8", "ara2:16", "araxl:16", "araxl:32",
                         "araxl:64"},
                        {64, 128, 256, 512}, seed);
  return {"fig6", driver::expand(spec)};
}

Sweep scaling_sweep(std::uint64_t seed, bool smoke) {
  const driver::SweepSpec spec =
      smoke ? make_spec({"araxl:16", "araxl:128"}, {64}, seed)
            : make_spec({"araxl:16", "araxl:32", "araxl:64", "araxl:128",
                         "araxl:256"},
                        {256}, seed);
  return {"scaling", driver::expand(spec)};
}

Sweep observed_sweep(std::uint64_t seed, bool smoke) {
  const driver::SweepSpec spec =
      smoke ? make_spec({"araxl:16"}, {64}, seed)
            : make_spec({"araxl:16", "araxl:64"}, {64, 128, 256}, seed);
  return {"observed", driver::expand(spec)};
}

unsigned pool_workers() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/// How a workload's passes drive the sweeps.
struct Mode {
  bool use_cache = true;  ///< false: every job simulates (observed)
  bool metrics = false;   ///< MetricsRegistry attached (observed)
  bool capture = false;   ///< capture_trace + export_chrome_trace (observed)
  bool report_bundle = false;  ///< `araxl report` after the sweeps (replay)
  bool fresh_store = true;     ///< cold: each pass starts from an empty store
};

struct Workload {
  std::vector<Sweep> sweeps;
  Mode mode;
};

Workload make_workload(const Args& a) {
  Workload w;
  if (a.workload == "fig6") {
    w.sweeps.push_back(fig6_sweep(a.seed, a.smoke));
  } else if (a.workload == "scaling") {
    w.sweeps.push_back(scaling_sweep(a.seed, a.smoke));
    w.sweeps.back().workers = pool_workers();
  } else if (a.workload == "replay") {
    w.sweeps.push_back(fig6_sweep(a.seed, a.smoke));
    w.sweeps.push_back(scaling_sweep(a.seed, a.smoke));
    w.mode.report_bundle = true;
    w.mode.fresh_store = false;
  } else if (a.workload == "observed") {
    w.sweeps.push_back(observed_sweep(a.seed, a.smoke));
    // The CLI's --trace-out turns the cache off: a replayed job has no trace.
    w.mode.use_cache = false;
    w.mode.metrics = a.variant.empty() || a.variant == "metrics";
    w.mode.capture = a.variant.empty() || a.variant == "trace";
    if (!a.variant.empty() && a.variant != "metrics" && a.variant != "trace" &&
        a.variant != "plain") {
      throw std::runtime_error("unknown variant " + a.variant);
    }
  } else {
    throw std::runtime_error("unknown workload '" + a.workload + "'");
  }
  return w;
}

std::string store_path(const Args& a, const Mode& mode) {
  if (!mode.fresh_store) return a.dir + "/replay.jsonl";
  return strprintf("%s/cold-%d.jsonl", a.dir.c_str(), static_cast<int>(getpid()));
}

// ---- paper reference: Table III ---------------------------------------------

// fmatmul at 512 B/lane, from the AraXL paper's Table III (22 nm, TT/0.8 V);
// bench/table3_ppa_comparison.cpp reproduces the same rows. The PPA model is
// not validated on held-out data: its constants may have been fit to these
// very rows, so the error below guards the model's accuracy against drift
// but does not validate it.
struct Table3Row {
  const char* label;
  double ghz;
  double gflops;
  double gflops_per_w;
};
constexpr Table3Row kTable3[] = {
    {"ara2:16", 1.08, 34.2, 30.3},
    {"araxl:16", 1.40, 44.3, 39.6},
    {"araxl:32", 1.40, 87.2, 40.4},
    {"araxl:64", 1.15, 146.0, 40.1},
};

/// Max relative error of simulated GFLOPS and GFLOPS/W against kTable3, or
/// nullopt when `results` lacks one of the four fmatmul 512 B/lane jobs.
std::optional<double> table3_max_rel_err(const std::vector<driver::JobResult>& results) {
  const FreqModel freq;
  const PowerModel power;
  double worst = 0.0;
  for (const Table3Row& row : kTable3) {
    const auto it = std::find_if(results.begin(), results.end(), [&](const auto& r) {
      return r.ok && r.job.kernel == "fmatmul" && r.job.bytes_per_lane == 512 &&
             r.job.config_label == row.label;
    });
    if (it == results.end()) return std::nullopt;
    const double f = freq.freq_ghz(it->job.cfg);
    const double gflops = it->stats.gflops(f);
    const double eff = power.gflops_per_w(it->job.cfg, f, it->stats.flop_per_cycle(),
                                          it->stats.fpu_util());
    worst = std::max({worst, std::abs(gflops - row.gflops) / row.gflops,
                      std::abs(eff - row.gflops_per_w) / row.gflops_per_w});
  }
  return worst;
}

// ---- output ------------------------------------------------------------------

/// Flat JSON object writer for the one line each subcommand prints.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    return raw(key, strprintf("%.17g", v));
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    out_ += (out_.empty() ? "{\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_ + "}"; }

 private:
  std::string out_;
};

std::string json_list(const std::vector<std::string>& quoted) {
  std::string out = "[";
  for (std::size_t i = 0; i < quoted.size(); ++i) out += (i ? "," : "") + quoted[i];
  return out + "]";
}

std::string json_map(const std::map<std::string, std::string>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) out += (out.size() > 1 ? ",\"" : "\"") + k + "\":\"" + v + "\"";
  return out + "}";
}

std::string digest(std::string_view data) {
  return strprintf("%016llx:%zu", static_cast<unsigned long long>(store::hash64(data)),
                   data.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

bool job_failed(const driver::JobResult& r) {
  return !r.ok || !r.verified || !r.verify.ok(r.tolerance);
}

/// Golden-reference reuse among the jobs that ran Kernel::verify. A golden
/// is fixed by (kernel, problem size, input seed), and the problem size by
/// total lanes x B/lane.
struct GoldenTally {
  std::size_t calls = 0;
  std::set<std::tuple<std::string, std::uint64_t, std::uint64_t>> goldens;

  void add(const driver::Job& job) {
    ++calls;
    goldens.emplace(job.kernel, job.cfg.total_lanes() * job.bytes_per_lane, job.seed);
  }
  [[nodiscard]] double reuse_ratio() const {
    return calls == 0 ? 0.0 : 1.0 - static_cast<double>(goldens.size()) / calls;
  }
};

/// What every pass reports about its jobs and outputs, traced or not.
struct Tally {
  std::size_t jobs = 0;
  std::size_t failed = 0;
  std::uint64_t sim_cycles = 0;
  std::vector<std::string> job_digests;   ///< quoted, one per job in order
  std::map<std::string, std::string> reports;  ///< sweep -> JSON report digest
  std::string outputs;  ///< digests of every deterministic rendered output
  std::optional<double> table3;
  GoldenTally golden;

  void add_results(const Sweep& sweep, const std::vector<driver::JobResult>& results) {
    driver::ReportOptions live;
    live.live_cache_flags = true;
    live.live_provenance = true;
    for (const driver::JobResult& r : results) {
      ++jobs;
      if (job_failed(r)) ++failed;
      sim_cycles += r.stats.cycles;
      if (r.verified && !r.cache_hit) golden.add(r.job);
      job_digests.push_back("\"" + digest(driver::json_record(r, live)) + "\"");
    }
    reports[sweep.name] = digest(driver::to_json(results));
    if (const std::optional<double> err = table3_max_rel_err(results)) table3 = err;
  }

  void add_common(JsonLine& j) const {
    j.num("jobs", static_cast<double>(jobs))
        .num("failed", static_cast<double>(failed))
        .num("sim_cycles", static_cast<double>(sim_cycles))
        .raw("reports", json_map(reports))
        .str("outputs", digest(outputs))
        .raw("job_digests", json_list(job_digests))
        .num("verify_calls", static_cast<double>(golden.calls))
        .num("distinct_goldens", static_cast<double>(golden.goldens.size()))
        .num("golden_reuse_ratio", golden.reuse_ratio())
        .raw("table3", table3 ? strprintf("%.17g", *table3) : "null");
  }
};

std::vector<obs::TraceExportJob> trace_jobs(const std::vector<driver::JobResult>& results) {
  std::vector<obs::TraceExportJob> tjobs;
  tjobs.reserve(results.size());
  for (const driver::JobResult& r : results) {
    obs::TraceExportJob tj;
    tj.name = strprintf("%s %s bpl=%llu seed=%llu", r.job.config_label.c_str(),
                        r.job.kernel.c_str(),
                        static_cast<unsigned long long>(r.job.bytes_per_lane),
                        static_cast<unsigned long long>(r.job.seed));
    tj.trace = r.trace.get();
    tjobs.push_back(std::move(tj));
  }
  return tjobs;
}

// ---- pass: the untraced, timed pass -------------------------------------------

int cmd_pass(const Args& a) {
  const std::uint64_t t_start = now_ns();
  (void)driver::KernelRegistry::instance();
  const Workload w = make_workload(a);
  const double setup_s = seconds_since(t_start);

  const std::string path = store_path(a, w.mode);
  if (w.mode.fresh_store) fs::remove(path);
  std::vector<std::vector<driver::JobResult>> results;
  std::vector<double> job_ms;
  std::string outputs;

  const std::uint64_t t0 = now_ns();
  for (const Sweep& sweep : w.sweeps) {
    // A job's time runs from its worker's previous completion, or for its
    // first job from the invocation start: a replayed sweep's first result
    // waits for the store to load.
    const std::uint64_t t_sweep = now_ns();
    store::ResultStore store(path);
    obs::MetricsRegistry metrics;
    driver::RunnerOptions opts;
    opts.workers = sweep.workers;
    opts.store = &store;
    opts.use_cache = w.mode.use_cache;
    opts.capture_trace = w.mode.capture;
    if (w.mode.metrics) {
      opts.metrics = &metrics;
      store.set_metrics(&metrics);
    }
    // The runner calls `progress` under its own lock, so `last` needs no
    // other guard.
    std::map<std::thread::id, std::uint64_t> last;
    opts.progress = [&](const driver::JobResult&, std::size_t, std::size_t) {
      const std::uint64_t t = now_ns();
      const auto it = last.try_emplace(std::this_thread::get_id(), t_sweep).first;
      job_ms.push_back((t - it->second) * 1e-6);
      it->second = t;
    };
    results.push_back(driver::run_jobs(sweep.jobs, opts));
    const std::vector<driver::JobResult>& res = results.back();
    // Digesting an output stands in for the CLI writing it to a file.
    outputs += digest(driver::to_json(res)) + digest(driver::to_csv(res));
    if (w.mode.capture) outputs += digest(obs::export_chrome_trace(trace_jobs(res)));
    // Rendered as the CLI's --metrics-out would; host-time counters make it
    // nondeterministic, so it is not digested.
    if (w.mode.metrics) (void)metrics.to_json();
  }
  if (w.mode.report_bundle) {
    const store::ResultStore store(path);
    const analysis::Dataset ds =
        analysis::dataset_from_store(store.entries(), store::build_version(), {});
    for (const analysis::Artifact& art : analysis::build_report(ds)) {
      outputs += digest(art.content);
    }
  }
  const double wall_s = seconds_since(t0);

  Tally tally;
  tally.outputs = outputs;
  for (std::size_t s = 0; s < w.sweeps.size(); ++s) tally.add_results(w.sweeps[s], results[s]);
  if (w.mode.fresh_store) fs::remove(path);

  std::vector<std::string> ms;
  ms.reserve(job_ms.size());
  for (const double v : job_ms) ms.push_back(strprintf("%.6f", v));
  JsonLine j;
  j.num("setup_s", setup_s).num("wall_s", wall_s).num("peak_rss_mb", peak_rss_mb());
  j.raw("job_ms", json_list(ms));
  tally.add_common(j);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// ---- traced: the same pass, one span per layer call ---------------------------

/// In-memory span log. A span records its name, the job it belongs to
/// (sweep + job index, shared by every span of that job), start, end, the
/// span that caused it, and the worker thread.
class SpanLog {
 public:
  struct Rec {
    const char* name = "";
    const char* sweep = "";
    long job = -1;
    std::string kernel;
    unsigned workers = 0;  ///< pool size, on driver.run_jobs spans only
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    unsigned thread = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };

  std::uint32_t next_id() { return next_.fetch_add(1) + 1; }
  void add(Rec r) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(r));
  }
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (const Rec& r : spans_) {
      out << strprintf(
          "{\"name\":\"%s\",\"sweep\":\"%s\",\"job\":%ld,\"kernel\":\"%s\","
          "\"workers\":%u,\"id\":%u,\"parent\":%u,\"thread\":%u,"
          "\"start_ns\":%llu,\"end_ns\":%llu}\n",
          r.name, r.sweep, r.job, r.kernel.c_str(), r.workers, r.id, r.parent,
          r.thread, static_cast<unsigned long long>(r.start),
          static_cast<unsigned long long>(r.end));
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  std::atomic<std::uint32_t> next_{0};
  std::mutex mu_;
  std::vector<Rec> spans_;
};

thread_local std::uint32_t t_parent = 0;
thread_local unsigned t_thread = 0;

/// The job a span belongs to.
struct JobRef {
  const char* sweep = "";
  long index = -1;
  std::string kernel;
};

/// RAII span: opens on construction (becoming the calling thread's parent
/// span), closes and logs on destruction.
class Span {
 public:
  Span(SpanLog& log, const char* name, const JobRef* job = nullptr, unsigned workers = 0)
      : log_(log) {
    rec_.name = name;
    if (job != nullptr) {
      rec_.sweep = job->sweep;
      rec_.job = job->index;
      rec_.kernel = job->kernel;
    }
    rec_.workers = workers;
    rec_.id = log.next_id();
    rec_.parent = t_parent;
    rec_.thread = t_thread;
    t_parent = rec_.id;
    rec_.start = now_ns();
  }
  ~Span() {
    rec_.end = now_ns();
    t_parent = rec_.parent;
    log_.add(std::move(rec_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const { return rec_.id; }

 private:
  SpanLog& log_;
  SpanLog::Rec rec_;
};

/// Exact counts the traced pass takes at the layer boundaries.
struct LayerCounts {
  std::mutex mu;  // workers of one pool update these concurrently
  std::size_t simulated = 0;
  std::size_t batch_engaged = 0;
  std::uint64_t sim_cycles_simulated = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t batched = 0;
  std::uint64_t clamps = 0;
  std::uint64_t warmup_projected = 0;
  std::array<std::uint64_t, kNumBatchRejects> rejects{};
  std::size_t finds = 0;
  std::size_t hits = 0;
  std::size_t trace_records = 0;
};

struct TracedCtx {
  SpanLog& log;
  const Mode& mode;
  store::ResultStore& store;
  obs::MetricsRegistry* metrics;
  LayerCounts& counts;
};

/// One job through the same layer calls, in the same order, as
/// driver::run_job's cacheable path with verify on and no retries,
/// deadlines or fault injection.
driver::JobResult traced_job(TracedCtx& ctx, const Sweep& sweep, const driver::Job& job) {
  const JobRef ref{sweep.name, static_cast<long>(job.index), job.kernel};
  const Span job_span(ctx.log, "driver.job", &ref);
  driver::JobResult res;
  res.job = job;

  store::JobKey key;
  key.config = store::canonical_config(job.cfg);
  key.kernel = job.kernel;
  key.bytes_per_lane = job.bytes_per_lane;
  key.seed = job.seed;
  key.version = store::build_version();
  std::string fp;
  {
    const Span s(ctx.log, "store.fingerprint", &ref);
    fp = store::fingerprint(key);
  }
  if (ctx.mode.use_cache) {
    std::optional<store::StoredResult> hit;
    {
      const Span s(ctx.log, "store.find", &ref);
      hit = ctx.store.find(fp);
    }
    const std::lock_guard<std::mutex> lock(ctx.counts.mu);
    ++ctx.counts.finds;
    if (hit && hit->verified) {
      ++ctx.counts.hits;
      res.stats = hit->stats;
      res.cache_hit = true;
      res.verified = true;
      res.verify = hit->verify;
      res.tolerance = hit->tolerance;
      res.ok = true;
      return res;
    }
  }

  try {
    std::optional<Machine> m;
    {
      const Span s(ctx.log, "machine.init", &ref);
      m.emplace(job.cfg);
    }
    std::unique_ptr<Kernel> kernel;
    Program prog;
    {
      const Span s(ctx.log, "kernels.build", &ref);
      kernel = driver::KernelRegistry::instance().make(job.kernel);
      kernel->seed_inputs(job.seed);
      prog = kernel->build(*m, job.bytes_per_lane);
    }
    if (ctx.mode.capture) {
      res.trace = std::make_shared<InstrTrace>();
      res.trace->enable_markers();
    }
    {
      const Span s(ctx.log, "machine.run", &ref);
      res.stats = m->run(prog, res.trace.get(), nullptr, ctx.metrics);
    }
    {
      const Span s(ctx.log, "kernels.verify", &ref);
      res.verified = true;
      res.tolerance = kernel->tolerance();
      res.verify = kernel->verify(*m);
    }
    if (!res.verify.ok(res.tolerance)) {
      const double err = res.verify.max_rel_err;
      const double tol = res.tolerance;
      res = driver::JobResult{};
      res.job = job;
      res.error_kind = driver::ErrorKind::kVerifyFailed;
      res.error = strprintf("golden verification failed: max_rel_err=%.3e > tol=%.3e",
                            err, tol);
      return res;
    }
    res.ok = true;
  } catch (const std::exception& e) {
    res = driver::JobResult{};
    res.job = job;
    res.error_kind = driver::ErrorKind::kSimulation;
    res.error = e.what();
    return res;
  }
  {
    const std::lock_guard<std::mutex> lock(ctx.counts.mu);
    LayerCounts& c = ctx.counts;
    ++c.simulated;
    if (res.stats.batched_iterations > 0) ++c.batch_engaged;
    c.sim_cycles_simulated += res.stats.cycles;
    c.wakeups += res.stats.wakeups_total;
    c.batched += res.stats.batched_iterations;
    c.clamps += res.stats.batch_clamps;
    c.warmup_projected += res.stats.warmup_projected;
    for (std::size_t i = 0; i < kNumBatchRejects; ++i) c.rejects[i] += res.stats.batch_rejects[i];
    if (res.trace) c.trace_records += res.trace->size();
  }

  store::StoredResult rec;
  rec.fingerprint = fp;
  rec.version = key.version;
  rec.config = key.config;
  rec.label = job.config_label;
  rec.kernel = job.kernel;
  rec.bytes_per_lane = job.bytes_per_lane;
  rec.seed = job.seed;
  rec.stats = res.stats;
  rec.verified = res.verified;
  rec.tolerance = res.tolerance;
  rec.verify = res.verify;
  try {
    {
      const Span s(ctx.log, "store.put", &ref);
      ctx.store.put(std::move(rec));
    }
    const Span s(ctx.log, "store.flush", &ref);
    ctx.store.flush();
  } catch (const store::StoreIoError& e) {
    res.store_degraded = true;
    res.store_warning = e.what();
  }
  return res;
}

/// The runner's pool: `sweep.workers` threads pulling the next job index
/// as soon as they finish one.
std::vector<driver::JobResult> traced_run_jobs(TracedCtx& ctx, const Sweep& sweep) {
  const Span pool_span(ctx.log, "driver.run_jobs", nullptr, sweep.workers);
  std::vector<driver::JobResult> results(sweep.jobs.size());
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto worker = [&](unsigned thread) {
    t_parent = pool_span.id();
    t_thread = thread;
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= sweep.jobs.size()) break;
        results[i] = traced_job(ctx, sweep, sweep.jobs[i]);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      error = std::current_exception();
    }
  };
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(sweep.workers, sweep.jobs.size()));
  if (workers <= 1) {
    worker(t_thread);
  } else {
    std::vector<std::jthread> pool;  // joins on every exit path
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker, w + 1);
  }
  if (error) std::rethrow_exception(error);
  return results;
}

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

int cmd_traced(const Args& a) {
  if (a.spans.empty()) throw std::runtime_error("traced needs --spans <file>");
  SpanLog log;
  (void)driver::KernelRegistry::instance();
  Workload w;
  {
    const Span s(log, "driver.expand");
    w = make_workload(a);
  }
  const std::string path = store_path(a, w.mode);
  if (w.mode.fresh_store) fs::remove(path);

  LayerCounts counts;
  std::vector<std::vector<driver::JobResult>> results;
  std::size_t lines_loaded = 0;
  std::size_t lines_rejected = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t report_bytes = 0;
  std::uint64_t trace_bytes = 0;
  std::size_t artifacts = 0;
  std::uint64_t artifact_bytes = 0;
  std::string outputs;
  // Digesting an output stands in for the CLI writing it to a file.
  const auto sink = [&](const std::string& content) {
    const Span s(log, "bench.sink");
    outputs += digest(content);
  };
  {
    const Span root(log, "bench.pass");
    for (const Sweep& sweep : w.sweeps) {
      const std::uint64_t size_before = file_size_or_zero(path);
      std::optional<store::ResultStore> store;
      {
        const Span s(log, "store.open");
        store.emplace(path);
      }
      lines_loaded += store->load_report().lines;
      lines_rejected += store->load_report().bad_lines + store->load_report().fp_mismatches;
      obs::MetricsRegistry metrics;
      if (w.mode.metrics) store->set_metrics(&metrics);
      TracedCtx ctx{log, w.mode, *store, w.mode.metrics ? &metrics : nullptr, counts};
      results.push_back(traced_run_jobs(ctx, sweep));
      const std::vector<driver::JobResult>& res = results.back();
      std::string json;
      std::string csv;
      {
        const Span s(log, "driver.report.json");
        json = driver::to_json(res);
      }
      {
        const Span s(log, "driver.report.csv");
        csv = driver::to_csv(res);
      }
      report_bytes += json.size() + csv.size();
      sink(json);
      sink(csv);
      if (w.mode.capture) {
        std::string trace;
        {
          const Span s(log, "obs.trace_export");
          trace = obs::export_chrome_trace(trace_jobs(res));
        }
        trace_bytes += trace.size();
        sink(trace);
      }
      if (w.mode.metrics) {
        const Span s(log, "obs.metrics_json");
        (void)metrics.to_json();
      }
      bytes_appended += file_size_or_zero(path) - size_before;
    }
    if (w.mode.report_bundle) {
      std::optional<store::ResultStore> store;
      {
        const Span s(log, "store.open");
        store.emplace(path);
      }
      lines_loaded += store->load_report().lines;
      lines_rejected += store->load_report().bad_lines + store->load_report().fp_mismatches;
      analysis::Dataset ds;
      {
        const Span s(log, "analysis.dataset");
        ds = analysis::dataset_from_store(store->entries(), store::build_version(), {});
      }
      std::vector<analysis::Artifact> arts;
      {
        const Span s(log, "analysis.build_report");
        arts = analysis::build_report(ds);
      }
      for (const analysis::Artifact& art : arts) {
        ++artifacts;
        artifact_bytes += art.content.size();
        sink(art.content);
      }
    }
  }
  if (w.mode.fresh_store) fs::remove(path);
  log.write(a.spans);

  Tally tally;
  tally.outputs = outputs;
  double util_sum = 0.0;
  std::uint64_t vinstrs = 0;
  std::array<std::uint64_t, kNumStallReasons> stalls{};
  for (std::size_t s = 0; s < w.sweeps.size(); ++s) {
    tally.add_results(w.sweeps[s], results[s]);
    for (const driver::JobResult& r : results[s]) {
      util_sum += r.stats.fpu_util();
      vinstrs += r.stats.vinstrs;
      for (std::size_t i = 0; i < kNumStallReasons; ++i) stalls[i] += r.stats.stall_cycles[i];
    }
  }

  const auto frac = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  JsonLine c;
  c.num("machine.batched_iterations", static_cast<double>(counts.batched))
      .num("machine.batch_engaged_frac", frac(counts.batch_engaged, counts.simulated))
      .num("machine.batch_clamps", static_cast<double>(counts.clamps))
      .num("machine.warmup_projected", static_cast<double>(counts.warmup_projected))
      .num("machine.wakeups_per_sim_cycle", frac(counts.wakeups, counts.sim_cycles_simulated))
      .num("machine.simulated_cycles", static_cast<double>(counts.sim_cycles_simulated));
  for (std::size_t i = 0; i < kNumBatchRejects; ++i) {
    c.num("machine.batch_rejects." +
              std::string(batch_reject_name(static_cast<BatchReject>(i))),
          static_cast<double>(counts.rejects[i]));
  }
  c.num("driver.report.bytes", static_cast<double>(report_bytes))
      .num("store.lines_loaded", static_cast<double>(lines_loaded))
      .num("store.lines_rejected", static_cast<double>(lines_rejected))
      .num("store.hit_ratio", frac(counts.hits, counts.finds))
      .num("store.bytes_appended", static_cast<double>(bytes_appended))
      .num("analysis.artifacts", static_cast<double>(artifacts))
      .num("analysis.artifact_bytes", static_cast<double>(artifact_bytes))
      .num("obs.trace_bytes", static_cast<double>(trace_bytes))
      .num("trace.records", static_cast<double>(counts.trace_records))
      .num("sim.cycles_total", static_cast<double>(tally.sim_cycles))
      .num("sim.vinstrs_total", static_cast<double>(vinstrs))
      .num("sim.fpu_util_mean", frac(util_sum, tally.jobs));
  for (std::size_t i = 0; i < kNumStallReasons; ++i) {
    c.num("sim.stall_cycles." +
              std::string(stall_reason_name(static_cast<StallReason>(i))),
          static_cast<double>(stalls[i]));
  }

  JsonLine j;
  j.raw("counts", c.done());
  tally.add_common(j);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// ---- setup: the store the replay passes read ----------------------------------

// Stale build salts in the replay store: the file holds this many full
// copies of the live records under older salts, like a store that has
// never been garbage-collected across builds.
constexpr unsigned kStaleSalts = 4;

int cmd_setup(const Args& a) {
  if (a.workload != "replay") throw std::runtime_error("setup is for --workload replay");
  const std::uint64_t t_start = now_ns();
  (void)driver::KernelRegistry::instance();
  const Workload w = make_workload(a);
  const std::string path = store_path(a, w.mode);
  const std::string live_path = a.dir + "/live.jsonl";
  fs::remove(path);
  fs::remove(live_path);

  Tally tally;
  {
    store::ResultStore store(live_path);
    driver::RunnerOptions opts;
    opts.workers = pool_workers();
    opts.store = &store;
    for (const Sweep& sweep : w.sweeps) {
      tally.add_results(sweep, driver::run_jobs(sweep.jobs, opts));
    }
  }

  std::string stale;
  const store::ResultStore live(live_path);
  for (unsigned k = 1; k <= kStaleSalts; ++k) {
    for (store::StoredResult rec : live.entries()) {
      rec.version = strprintf("stale%u+schema%u", k, store::kConfigSchemaVersion);
      rec.fingerprint = store::fingerprint(
          {rec.config, rec.kernel, rec.bytes_per_lane, rec.seed, rec.version});
      stale += store::ResultStore::serialize(rec) + "\n";
    }
  }
  {
    std::ifstream in(live_path);
    std::stringstream live_lines;
    live_lines << in.rdbuf();
    std::ofstream out(path, std::ios::trunc);
    out << stale << live_lines.str();
    if (!out) throw std::runtime_error("cannot write " + path);
  }
  fs::remove(live_path);
  const double setup_s = seconds_since(t_start);

  JsonLine j;
  j.num("setup_s", setup_s).num("store_bytes", static_cast<double>(file_size_or_zero(path)));
  tally.add_common(j);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// ---- table3: untimed Table III probe -----------------------------------------

int cmd_table3(const Args& a) {
  driver::SweepSpec spec;
  for (const Table3Row& row : kTable3) {
    spec.configs.push_back(driver::parse_config_spec(row.label));
  }
  spec.kernels = {"fmatmul"};
  spec.bytes_per_lane = {512};
  spec.base_seed = a.seed;
  driver::RunnerOptions opts;
  opts.workers = pool_workers();
  const std::vector<driver::JobResult> res = driver::run_sweep(spec, opts);
  std::size_t failed = 0;
  for (const driver::JobResult& r : res) failed += job_failed(r) ? 1 : 0;
  const std::optional<double> err = table3_max_rel_err(res);
  JsonLine j;
  j.num("jobs", static_cast<double>(res.size()))
      .num("failed", static_cast<double>(failed))
      .raw("table3", err ? strprintf("%.17g", *err) : "null");
  std::printf("%s\n", j.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  (void)now_ns();  // pin the clock epoch to process start
  try {
    const Args a = parse_args(argc, argv);
    if (a.cmd == "pass") return cmd_pass(a);
    if (a.cmd == "traced") return cmd_traced(a);
    if (a.cmd == "setup") return cmd_setup(a);
    if (a.cmd == "table3") return cmd_table3(a);
    throw std::runtime_error("unknown subcommand '" + a.cmd + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepbench: %s\n", e.what());
    return 2;
  }
}
