// Observability-layer tests: metrics registry semantics, the engine
// metrics' exact RunStats mirror (summed over a sweep, equal between the
// oracle and the event engine), Chrome-trace export validity and
// determinism, and the metrics-are-pure-observers contract (attaching a
// registry must not change a single report byte).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>

#include "driver/job.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "kernels/common.hpp"
#include "machine/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "store/json.hpp"

namespace araxl {
namespace {

using driver::JobResult;
using driver::ReportOptions;
using driver::RunnerOptions;
using driver::SweepSpec;

// ---- metrics registry -------------------------------------------------------

TEST(Metrics, FindOrCreateReturnsStablePointers) {
  obs::MetricsRegistry reg;
  obs::Counter* c1 = reg.counter("x");
  // Registering many more instruments must not invalidate c1.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(reg.counter("x"), c1);
  c1->inc();
  EXPECT_EQ(reg.counter("x")->value(), 1u);
}

TEST(Metrics, JsonIsNameSortedAndIndependentOfRegistrationOrder) {
  obs::MetricsRegistry a;
  a.counter("zeta")->add(1);
  a.counter("alpha")->add(2);
  obs::MetricsRegistry b;
  b.counter("alpha")->add(2);
  b.counter("zeta")->add(1);
  EXPECT_EQ(a.to_json(), b.to_json());
  // Valid JSON, with both instruments present.
  const store::JsonValue doc = store::parse_json(a.to_json());
  ASSERT_NE(doc.get("alpha"), nullptr);
  EXPECT_EQ(doc.get("alpha")->as_u64(), 2u);
  EXPECT_EQ(doc.get("zeta")->as_u64(), 1u);
}

TEST(Metrics, ConcurrentFindOrCreateAndCountIsSafe) {
  obs::MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 1000; ++i) {
        reg.counter("shared")->inc();
        reg.counter("per_thread." + std::to_string(i % 8))->add(2);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter("shared")->value(), 4000u);
  EXPECT_EQ(reg.counter("per_thread.0")->value(), 4u * 125u * 2u);
}

// ---- sweep helpers ----------------------------------------------------------

SweepSpec smoke_spec() {
  SweepSpec spec;
  spec.configs.push_back({"araxl:8", MachineConfig::araxl(8)});
  spec.kernels = {"axpy", "fdotproduct"};
  spec.bytes_per_lane = {2048, 4096};
  return spec;
}

// ---- metrics are pure observers --------------------------------------------

TEST(Observability, MetricsOnReportsByteIdenticalToMetricsOff) {
  // The reproducibility contract extended to observability: attaching a
  // registry must not change a single byte of the default JSON/CSV
  // reports — metrics mirror what the engine already counts, they never
  // perturb it.
  const SweepSpec spec = smoke_spec();
  RunnerOptions off;
  off.workers = 2;
  const std::vector<JobResult> r_off = driver::run_sweep(spec, off);

  obs::MetricsRegistry reg;
  RunnerOptions on = off;
  on.metrics = &reg;
  const std::vector<JobResult> r_on = driver::run_sweep(spec, on);

  EXPECT_EQ(driver::to_json(r_off), driver::to_json(r_on));
  EXPECT_EQ(driver::to_csv(r_off), driver::to_csv(r_on));

  // And the registry actually observed the sweep.
  EXPECT_GT(reg.counter("runner.jobs_simulated")->value(), 0u);
  EXPECT_GT(reg.counter("engine.wakeups")->value(), 0u);
}

TEST(Observability, MetricsCaptureEngineAndRunnerPhases) {
  obs::MetricsRegistry reg;
  RunnerOptions opts;
  opts.workers = 2;
  opts.metrics = &reg;
  const std::vector<JobResult> results = driver::run_sweep(smoke_spec(), opts);
  for (const JobResult& r : results) EXPECT_TRUE(r.ok);

  // Every engine counter is the sum of its RunStats field over the jobs,
  // whichever worker ran them and whether or not their windows batched.
  EXPECT_EQ(reg.counter("engine.runs")->value(), results.size());
  std::size_t mirrored = 0;
  for (const StatField& f : kRunStatsFields) {
    for (std::size_t i = 0; i < f.size; ++i) {
      const std::string name = f.metric_name(i);
      if (name.empty()) continue;
      ++mirrored;
      std::uint64_t sum = 0;
      for (const JobResult& r : results) sum += f.values(r.stats)[i];
      EXPECT_EQ(reg.counter(name)->value(), sum) << name;
    }
  }
  EXPECT_GT(mirrored, 0u);
  EXPECT_GT(reg.counter("engine.cycles")->value(), 0u);
  // Runner phase timers ran (wall-clock, so only > 0 is assertable).
  EXPECT_GT(reg.counter("runner.phase.simulate_ns")->value(), 0u);
  EXPECT_GT(reg.counter("runner.phase.verify_ns")->value(), 0u);
}

/// The `engine.*` counters of `reg` that measure the simulated run: every
/// one except the mirrors of provenance fields, which record how the run
/// was simulated (wakeups, batching) and legitimately differ by engine.
std::map<std::string, std::uint64_t> engine_measurements(
    const obs::MetricsRegistry& reg) {
  std::set<std::string> provenance;
  for (const StatField& f : kRunStatsFields) {
    if (!f.has(kProvenance)) continue;
    for (std::size_t i = 0; i < f.size; ++i) provenance.insert(f.metric_name(i));
  }
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : store::parse_json(reg.to_json()).fields) {
    if (name.starts_with("engine.") && !provenance.contains(name)) {
      out[name] = v.as_u64();
    }
  }
  return out;
}

TEST(Observability, EngineMetricsAgreeBetweenOracleAndEventEngine) {
  // The engine's metrics are the RunStats mirror, so they inherit the
  // engines' bit-for-bit agreement, batched windows included.
  const auto metered = [](TimingMode mode, obs::MetricsRegistry* reg) {
    std::uint64_t batched = 0;
    for (const char* name : {"fmatmul", "fdotproduct", "softmax"}) {
      MachineConfig cfg = MachineConfig::araxl(16);
      cfg.timing_mode = mode;
      Machine m(cfg);
      auto kernel = make_kernel(name);
      batched += m.run(kernel->build(m, 256), nullptr, nullptr, reg)
                     .batched_iterations;
    }
    return batched;
  };
  obs::MetricsRegistry ev;
  obs::MetricsRegistry oracle;
  EXPECT_GT(metered(TimingMode::kEventDriven, &ev), 0u);
  metered(TimingMode::kCycleStepped, &oracle);
  const std::map<std::string, std::uint64_t> ev_m = engine_measurements(ev);
  EXPECT_EQ(ev_m, engine_measurements(oracle));
  ASSERT_TRUE(ev_m.contains("engine.cycles"));
  EXPECT_GT(ev_m.at("engine.cycles"), 0u);
  EXPECT_EQ(ev_m.at("engine.runs"), 3u);
}

// ---- Chrome-trace export ----------------------------------------------------

std::vector<obs::TraceExportJob> export_jobs(
    const std::vector<JobResult>& results) {
  std::vector<obs::TraceExportJob> jobs;
  for (const JobResult& r : results) {
    jobs.push_back({r.job.kernel, r.trace.get()});
  }
  return jobs;
}

TEST(Observability, TraceExportIsValidJsonWithSpansAndMarkers) {
  RunnerOptions opts;
  opts.capture_trace = true;
  const std::vector<JobResult> results = driver::run_sweep(smoke_spec(), opts);
  const std::string doc_text = export_chrome_trace(export_jobs(results));

  const store::JsonValue doc = store::parse_json(doc_text);
  const store::JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, store::JsonValue::Kind::kArray);

  std::size_t spans = 0;
  std::size_t instants = 0;
  std::size_t metadata = 0;
  bool saw_wakeup = false;
  for (const store::JsonValue& ev : events->items) {
    const std::string& ph = ev.get("ph")->as_string();
    if (ph == "X") {
      ++spans;
      // Spans carry cycle timestamps and a duration.
      EXPECT_NE(ev.get("ts"), nullptr);
      EXPECT_NE(ev.get("dur"), nullptr);
    } else if (ph == "i") {
      ++instants;
      if (ev.get("name")->as_string() == "wakeup") saw_wakeup = true;
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(instants, 0u);
  EXPECT_GT(metadata, 0u);
  EXPECT_TRUE(saw_wakeup);
}

TEST(Observability, TraceExportDeterministicAcrossWorkerCounts) {
  const SweepSpec spec = smoke_spec();
  RunnerOptions opts;
  opts.capture_trace = true;
  opts.workers = 1;
  const std::string doc1 = export_chrome_trace(
      export_jobs(driver::run_sweep(spec, opts)));
  opts.workers = 4;
  const std::string doc4 = export_chrome_trace(
      export_jobs(driver::run_sweep(spec, opts)));
  EXPECT_EQ(doc1, doc4);
}

TEST(Observability, BatchedTraceExportByteIdenticalToOracle) {
  // fconv2d batches in super-periods of its drifting row loads; the trace
  // records replayed for the batched windows must export exactly what the
  // cycle-stepped oracle records instruction by instruction.
  for (const unsigned lanes : {16u, 64u}) {
    const auto traced = [&](TimingMode mode, RunStats* stats) {
      MachineConfig cfg = MachineConfig::araxl(lanes);
      cfg.timing_mode = mode;
      Machine m(cfg);
      auto kernel = make_kernel("fconv2d");
      InstrTrace trace;
      *stats = m.run(kernel->build(m, 64), &trace);
      return obs::export_chrome_trace({{"fconv2d", &trace}});
    };
    RunStats ev;
    RunStats oracle;
    const std::string ev_doc = traced(TimingMode::kEventDriven, &ev);
    const std::string oracle_doc = traced(TimingMode::kCycleStepped, &oracle);
    EXPECT_GT(ev.batched_iterations, 0u) << lanes << " lanes";
    EXPECT_TRUE(ev_doc == oracle_doc) << lanes << " lanes";
  }
}

TEST(Observability, TraceExportHandlesNullTraces) {
  // Cache-replayed jobs carry no trace; the exporter must still emit their
  // process metadata so job indices stay dense.
  std::vector<obs::TraceExportJob> jobs;
  jobs.push_back({"replayed", nullptr});
  const store::JsonValue doc =
      store::parse_json(export_chrome_trace(jobs));
  const store::JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->items.empty());
  EXPECT_EQ(events->items[0].get("ph")->as_string(), "M");
}

// ---- provenance columns -----------------------------------------------------

TEST(Observability, ProvenanceColumnsZeroedByDefaultLiveOnRequest) {
  RunnerOptions opts;
  const std::vector<JobResult> results = driver::run_sweep(smoke_spec(), opts);

  const store::JsonValue dflt = store::parse_json(driver::to_json(results));
  const store::JsonValue* row = &dflt.get("results")->items[0];
  const store::JsonValue* stats = row->get("stats");
  ASSERT_NE(stats->get("batch_rejects"), nullptr);
  for (const auto& [name, v] : stats->get("batch_rejects")->fields) {
    EXPECT_EQ(v.as_u64(), 0u) << name;
  }
  EXPECT_EQ(stats->get("wakeups_total")->as_u64(), 0u);
  // The stall taxonomy follows the same convention: keys always present,
  // zeroed unless live provenance is requested.
  ASSERT_NE(stats->get("stall_cycles"), nullptr);
  for (const auto& [name, v] : stats->get("stall_cycles")->fields) {
    EXPECT_EQ(v.as_u64(), 0u) << name;
  }
  EXPECT_EQ(stats->get("fpu_busy_slots")->as_u64(), 0u);

  ReportOptions live;
  live.live_provenance = true;
  const store::JsonValue ldoc =
      store::parse_json(driver::to_json(results, live));
  const store::JsonValue* lstats = ldoc.get("results")->items[0].get("stats");
  EXPECT_GT(lstats->get("wakeups_total")->as_u64(), 0u);
  EXPECT_GT(lstats->get("fpu_busy_slots")->as_u64(), 0u);
  std::uint64_t live_stalls = 0;
  for (const auto& [name, v] : lstats->get("stall_cycles")->fields) {
    live_stalls += v.as_u64();
  }
  EXPECT_GT(live_stalls, 0u);
}

TEST(Observability, TraceSpansCarryDominantStallAnnotation) {
  // Every FPU instruction the attributor charged gets its argmax stall
  // reason on the Perfetto span; unattributed (non-FPU) spans stay clean.
  const SweepSpec spec = smoke_spec();
  RunnerOptions opts;
  opts.capture_trace = true;
  const std::vector<JobResult> results = driver::run_sweep(spec, opts);
  const store::JsonValue doc = store::parse_json(
      export_chrome_trace(export_jobs(results)));
  std::size_t annotated = 0;
  for (const store::JsonValue& ev : doc.get("traceEvents")->items) {
    if (ev.get("ph")->as_string() != "X") continue;
    const store::JsonValue* args = ev.get("args");
    const store::JsonValue* stall = args->get("stall");
    if (stall == nullptr) continue;
    ++annotated;
    // The reason is one of the taxonomy names, with a positive slot count.
    bool known = false;
    for (std::size_t r = 0; r < kNumStallReasons; ++r) {
      if (stall->as_string() == stall_reason_name(static_cast<StallReason>(r))) {
        known = true;
      }
    }
    EXPECT_TRUE(known) << stall->as_string();
    EXPECT_GT(args->get("stall_slots")->as_u64(), 0u);
  }
  EXPECT_GT(annotated, 0u);
}

}  // namespace
}  // namespace araxl
