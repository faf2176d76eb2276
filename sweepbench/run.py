#!/usr/bin/env python3
"""End-to-end sweep benchmark for the AraXL simulator.

Run from the repository root:

    python3 sweepbench/run.py --workload fig6 --seed 0 --seconds 20 --trace 0

Builds the harness (harness.cpp) and the simulator library from src/ into
$CARGO_TARGET_DIR (default .bench_build), then runs one workload. With
--trace 0 it runs cold timed passes for --seconds, each in a fresh harness
process, and reports the end-to-end metrics; with --trace 1 it runs one
untraced and one traced pass and reports the per-layer metrics. Every metric
is printed by name with its unit; the last stdout line is the JSON result.
A failed correctness gate prints "correct": false and exits 1. See README.md.
"""
import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from statistics import NormalDist

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seed 0 keeps every kernel's fixed legacy inputs (the committed figures);
# CONFIRM_SEED is the second seed a claimed gain must also hold on.
DEFAULT_SEED = 0
CONFIRM_SEED = 7

# min_passes fixes the pooled sample count that picks job_ms_tail's
# percentile, so the percentile never depends on how fast a pass runs.
WORKLOADS = {
    "fig6": {"min_passes": 3, "setups": 0},
    "scaling": {"min_passes": 10, "setups": 0},
    "replay": {"min_passes": 60, "setups": 3},
    "observed": {"min_passes": 6, "setups": 0},
}

PAPER_KERNELS = ["fmatmul", "fconv2d", "jacobi2d", "fdotproduct", "exp", "softmax"]
BATCH_REJECTS = ["addr_progression", "liveness_gate", "snapshot_mismatch",
                 "vl_tail", "grant_change"]
STALL_REASONS = ["issue_pressure", "raw_dependency", "structural_unit",
                 "mem_latency", "mem_bandwidth", "reduction_slide_latency",
                 "drain_tail"]

# (name, unit, better, bound) for each end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("sim_cycles_per_s", "1/s", "higher", 0.25),
    ("job_ms_p50", "ms", "lower", 0.25),
    ("job_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_frac", "ratio", "higher", 0.001),
    ("table3_max_rel_err", "ratio", "lower", 0.01),
]


def _per_kernel(name, unit, better):
    return [(name, unit, better)] + [(f"{name}.{k}", unit, better)
                                     for k in PAPER_KERNELS]


# (name, unit, better) for each per-layer metric, by module.
PER_LAYER = (
    _per_kernel("kernels.build_s", "s", "lower")
    + _per_kernel("kernels.verify_s", "s", "lower")
    + [("kernels.verify_calls", "count", "lower"),
       ("kernels.distinct_goldens", "count", "lower"),
       ("kernels.golden_reuse_ratio", "ratio", "higher"),
       ("machine.init_s", "s", "lower")]
    + _per_kernel("machine.run_s", "s", "lower")
    + [("machine.host_ns_per_sim_cycle", "ns", "lower"),
       ("machine.wakeups_per_sim_cycle", "ratio", "lower"),
       ("machine.batched_iterations", "count", "higher"),
       ("machine.batch_engaged_frac", "ratio", "higher")]
    + [(f"machine.batch_rejects.{r}", "count", "lower") for r in BATCH_REJECTS]
    + [("machine.batch_clamps", "count", "lower"),
       ("machine.warmup_projected", "count", "higher"),
       ("driver.expand_s", "s", "lower"),
       ("driver.runner.idle_frac", "ratio", "lower"),
       ("driver.report.json_s", "s", "lower"),
       ("driver.report.csv_s", "s", "lower"),
       ("driver.report.bytes", "bytes", "lower"),
       ("store.fingerprint_s", "s", "lower"),
       ("store.open_s", "s", "lower"),
       ("store.lines_loaded", "count", "lower"),
       ("store.lines_rejected", "count", "lower"),
       ("store.find_s", "s", "lower"),
       ("store.hit_ratio", "ratio", "higher"),
       ("store.put_s", "s", "lower"),
       ("store.flush_s", "s", "lower"),
       ("store.bytes_appended", "bytes", "lower"),
       ("analysis.dataset_s", "s", "lower"),
       ("analysis.build_report_s", "s", "lower"),
       ("analysis.artifacts", "count", "higher"),
       ("analysis.artifact_bytes", "bytes", "lower"),
       ("obs.metrics_overhead_ratio", "ratio", "lower"),
       ("trace.capture_overhead_ratio", "ratio", "lower"),
       ("obs.trace_export_s", "s", "lower"),
       ("obs.trace_bytes", "bytes", "lower"),
       ("trace.records", "count", "lower"),
       ("sim.cycles_total", "count", "lower"),
       ("sim.vinstrs_total", "count", "lower"),
       ("sim.fpu_util_mean", "ratio", "higher")]
    + [(f"sim.stall_cycles.{r}", "count", "lower") for r in STALL_REASONS]
    + [("failed_frac", "ratio", "lower"),
       ("bench.trace_overhead_ratio", "ratio", "lower"),
       ("bench.unattributed_frac", "ratio", "lower")]
)

# Span name -> per-layer time metric (self time summed over the pass).
SPAN_METRICS = {
    "kernels.build": "kernels.build_s",
    "kernels.verify": "kernels.verify_s",
    "machine.init": "machine.init_s",
    "machine.run": "machine.run_s",
    "driver.expand": "driver.expand_s",
    "driver.report.json": "driver.report.json_s",
    "driver.report.csv": "driver.report.csv_s",
    "store.fingerprint": "store.fingerprint_s",
    "store.open": "store.open_s",
    "store.find": "store.find_s",
    "store.put": "store.put_s",
    "store.flush": "store.flush_s",
    "analysis.dataset": "analysis.dataset_s",
    "analysis.build_report": "analysis.build_report_s",
    "obs.trace_export": "obs.trace_export_s",
}
PER_KERNEL_SPANS = {"kernels.build", "kernels.verify", "machine.run"}
# Spans that group layer calls rather than being one.
GROUPING_SPANS = {"bench.pass", "driver.run_jobs", "driver.job"}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
CHILD_TIMEOUT_S = 100
RUN_DEADLINE_S = 100


# ---- statistics ---------------------------------------------------------------

def quantile(samples, p):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) distribution over
    ranks, here by its normal approximation (runs pool hundreds of samples).
    A sweep's job times are lumpy, a few dozen distinct job sizes, and a
    single order statistic jumps between neighbouring sizes from run to run;
    the weighted mean does not."""
    s = sorted(samples)
    n = len(s)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    dist = NormalDist(a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1))))
    cdf = [dist.cdf(i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(s)) / (cdf[n] - cdf[0])


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it."""
    best = None
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            best = pct
    return best


def tail(samples, guaranteed_n):
    """(value, percentile) of the tail metric. The percentile is chosen from
    the sample count every run reaches, the value from all samples."""
    pct = tail_percentile(guaranteed_n)
    if pct is None:
        raise ValueError(f"{guaranteed_n} samples cannot give a tail percentile")
    return quantile(samples, pct / 100.0), pct


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans):
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    return children


def self_times(spans):
    """span id -> duration minus the part of it its children cover. Children
    of one span may overlap (parallel workers under one pool span)."""
    children = children_of(spans)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = union_length(
            (max(lo, c["start_ns"]), min(hi, c["end_ns"]))
            for c in children.get(s["id"], ())
            if c["end_ns"] > lo and c["start_ns"] < hi)
        out[s["id"]] = (hi - lo) - covered
    return out


def descendants(spans, root_id):
    children = children_of(spans)
    out, stack = [], [root_id]
    while stack:
        for c in children.get(stack.pop(), ()):
            out.append(c)
            stack.append(c["id"])
    return out


def ratio(num, den):
    return num / den if den else 0.0


# ---- build and harness --------------------------------------------------------

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds the harness; returns the executable path."""
    out = os.path.join(build_dir(), "sweepbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=850)
    return os.path.join(out, "sweepbench")


def harness(exe, *args):
    # Address-space randomisation stays on: each pass gets a fresh layout and
    # the medians average over layouts. (A fixed layout made peak RSS repeat
    # exactly but measurably slowed replay passes, a bias a layout-shifting
    # change could flip either way.)
    proc = subprocess.run([exe, *map(str, args)], stdout=subprocess.PIPE,
                          check=True, text=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def differing(passes, keys):
    """Gate messages for each key whose value is not the same in every pass."""
    return [f"'{key}' differs between passes" for key in keys
            if len({json.dumps(p[key], sort_keys=True) for p in passes}) != 1]


# ---- the untraced run: end-to-end metrics -------------------------------------

def run_untraced(exe, workload, seed, seconds, work, smoke):
    spec = WORKLOADS[workload]
    common = ["--workload", workload, "--seed", seed, "--dir", work]
    if smoke:
        common.append("--smoke")
    setups = [harness(exe, "setup", *common) for _ in range(spec["setups"])]
    t0 = time.monotonic()
    passes = [harness(exe, "pass", *common)]
    # Enough passes for a tail percentile even on the smallest grid.
    min_passes = max(spec["min_passes"], math.ceil(20 / passes[0]["jobs"]))
    while time.monotonic() - t0 < seconds or len(passes) < min_passes:
        if time.monotonic() - t0 > RUN_DEADLINE_S:
            break
        passes.append(harness(exe, "pass", *common))

    # Gate (a): every pass renders the same bytes.
    gates = differing(passes, ("outputs", "reports", "job_digests", "table3"))
    if setups:
        gates += differing(setups, ("reports",))
        # Gate (c): the warm replay reports equal the cold reports.
        if passes[0]["reports"] != setups[0]["reports"]:
            gates.append("replayed reports differ from the cold reports")
    table3 = passes[0]["table3"]
    if table3 is None:
        table3 = harness(exe, "table3", "--seed", seed)["table3"]

    job_ms = [ms for p in passes for ms in p["job_ms"]]
    guaranteed = min(min_passes, len(passes)) * passes[0]["jobs"]
    tail_ms, tail_pct = tail(job_ms, guaranteed)
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    setup_samples = [s["setup_s"] for s in setups] or [p["setup_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": statistics.median(p["jobs"] / p["wall_s"] for p in passes),
        "sim_cycles_per_s": statistics.median(p["sim_cycles"] / p["wall_s"]
                                              for p in passes),
        "job_ms_p50": quantile(job_ms, 0.5),
        "job_ms_tail": tail_ms,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": 1.0 - failed / attempted,
        "table3_max_rel_err": table3,
    }
    notes = {
        "table3_max_rel_err": "fmatmul 512 B/lane vs paper Table III; the PPA "
                              "model is not validated on held-out data",
        "job_ms_tail": f"p{tail_pct:g} of {len(job_ms)} job samples",
        "job_ms_p50": f"{len(job_ms)} job samples over {len(passes)} passes",
        "setup_s": f"median of {len(setup_samples)} set-ups",
    }
    return metrics, notes, attempted, failed, passes[0], gates


# ---- the traced run: per-layer metrics ----------------------------------------

def layer_metrics(spans, counts, untraced_wall_s):
    """Per-layer metrics from the traced pass's spans and exact counts."""
    selfs = self_times(spans)
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    for s in spans:
        metric = SPAN_METRICS.get(s["name"])
        if metric is None:
            continue
        secs = selfs[s["id"]] * 1e-9
        m[metric] += secs
        if s["name"] in PER_KERNEL_SPANS and s["kernel"] in PAPER_KERNELS:
            m[f"{metric}.{s['kernel']}"] += secs
    for key, value in counts.items():
        if key in m:
            m[key] = value

    pool = [s for s in spans if s["name"] == "driver.run_jobs"]
    job_time = sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "driver.job")
    capacity = sum(s["workers"] * (s["end_ns"] - s["start_ns"]) for s in pool)
    m["driver.runner.idle_frac"] = max(0.0, 1.0 - ratio(job_time, capacity))
    m["machine.host_ns_per_sim_cycle"] = ratio(
        m["machine.run_s"] * 1e9, counts["machine.simulated_cycles"])

    root = next(s for s in spans if s["name"] == "bench.pass")
    root_ns = root["end_ns"] - root["start_ns"]
    layer = [(s["start_ns"], s["end_ns"]) for s in descendants(spans, root["id"])
             if s["name"] not in GROUPING_SPANS]
    m["bench.unattributed_frac"] = 1.0 - ratio(union_length(layer), root_ns)
    m["bench.trace_overhead_ratio"] = ratio(root_ns * 1e-9, untraced_wall_s)
    return m


def read_spans(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def run_traced(exe, workload, seed, work, smoke):
    common = ["--workload", workload, "--seed", seed, "--dir", work]
    if smoke:
        common.append("--smoke")
    setup = harness(exe, "setup", *common) if WORKLOADS[workload]["setups"] else None
    # The first pass after the host idles runs slow; it only warms up and
    # joins the gates, and the overhead ratio compares the next two.
    warmup = harness(exe, "pass", *common)
    untraced = harness(exe, "pass", *common)
    # Kept after the run (the work directory is not) for inspection.
    spans_path = os.path.join(build_dir(), "spans", f"{workload}-seed{seed}.jsonl")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    traced = harness(exe, "traced", *common, "--spans", spans_path)

    # Gate (b): the harness's own layer-call sequence reproduces the runner's
    # RunStats and report bytes job by job.
    gates = differing([warmup, untraced, traced],
                      ("outputs", "reports", "job_digests", "table3"))
    if setup is not None and traced["reports"] != setup["reports"]:
        gates.append("replayed reports differ from the cold reports")

    m = layer_metrics(read_spans(spans_path), traced["counts"], untraced["wall_s"])
    m["kernels.verify_calls"] = traced["verify_calls"]
    m["kernels.distinct_goldens"] = traced["distinct_goldens"]
    m["kernels.golden_reuse_ratio"] = traced["golden_reuse_ratio"]
    attempted = warmup["jobs"] + untraced["jobs"] + traced["jobs"]
    failed = warmup["failed"] + untraced["failed"] + traced["failed"]
    m["failed_frac"] = failed / attempted
    if workload == "observed":
        walls = {v: harness(exe, "pass", *common, "--variant", v)["wall_s"]
                 for v in ("plain", "metrics", "trace")}
        m["obs.metrics_overhead_ratio"] = walls["metrics"] / walls["plain"]
        m["trace.capture_overhead_ratio"] = walls["trace"] / walls["plain"]
    notes = {"kernels.golden_reuse_ratio":
             f"{traced['distinct_goldens']:g} distinct goldens over "
             f"{traced['verify_calls']:g} verify calls",
             "bench.unattributed_frac": f"spans in {spans_path}"}
    return m, notes, attempted, failed, traced, gates


# ---- entry point --------------------------------------------------------------

def print_table(workload, seed, metrics, units, notes, first_pass):
    print(f"sweepbench {workload} seed={seed}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>16.6g} {units[name]}{note}")
    if "kernels.golden_reuse_ratio" not in metrics:
        print(f"  {'kernels.golden_reuse_ratio':<40} "
              f"{first_pass['golden_reuse_ratio']:>16.6g} ratio  "
              f"({first_pass['distinct_goldens']:g} distinct goldens over "
              f"{first_pass['verify_calls']:g} verify calls, one pass)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-scale grids (self-tests only)")
    args = ap.parse_args(argv)

    try:
        exe = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"sweepbench: build failed: {e}", file=sys.stderr)
        return 2
    work = os.path.join(build_dir(), "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.trace:
            metrics, notes, attempted, failed, first, gates = run_traced(
                exe, args.workload, args.seed, work, args.smoke)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, notes, attempted, failed, first, gates = run_untraced(
                exe, args.workload, args.seed, args.seconds, work, args.smoke)
            units = {name: unit for name, unit, _, _ in END_TO_END}
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"sweepbench: harness failed: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if failed:
        gates.append(f"{failed} of {attempted} jobs failed or missed tolerance")
    for gate in gates:
        print(f"sweepbench: correctness gate failed: {gate}", file=sys.stderr)
    correct = not gates
    print_table(args.workload, args.seed, metrics, units, notes, first)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
