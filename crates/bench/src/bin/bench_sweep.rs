//! Sweep-engine throughput benchmark: the pooled [`SweepEngine`] with
//! tracing off on the E1 grid, and what each observability layer
//! (causal tracing, an unarmed fault campaign, phase profiling) costs on
//! top of it, plus critical-path scaling lanes at 1/2/4/8 workers.
//! Writes `BENCH_sweep.json` in the current directory, and appends one
//! schema-versioned record — lane metrics plus the profiled lane's
//! per-phase cost breakdown (each phase's median share over the reps) —
//! to `BENCH_history.jsonl`, the durable trajectory `bench_gate`
//! compares fresh runs against.

use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use stp_bench::history::{self, HistoryRecord, HISTORY_FILE};
use stp_bench::{e1, host};
use stp_channel::campaign::FaultPlan;
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_core::event::TraceMode;
use stp_protocols::{ResendPolicy, TightFamily};
use stp_sim::{PhaseProfiler, ProfRecord, SweepEngine, SweepSpec, TelemetryLine};

/// Worker widths for the parallel scaling lanes.
const PARALLEL_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Sampling period for the profiled lane. The E1 grid's cells are tiny
/// (a couple of microseconds each), so a fully profiled cell pays the
/// per-step timer cost against almost no useful work — dense sampling
/// would price the instrumentation, not the engine. One window every 128
/// cells still lands windows in every rep while keeping the lane inside
/// the same ≤5% budget the session engines meet at their default period.
const PROF_PERIOD: u64 = 128;

/// One parallel scaling lane, measured by `SweepEngine::run_isolated`:
/// each worker's statically-dealt chunks run sequentially with a
/// per-worker busy clock, and the lane's time is the slowest worker's —
/// what `workers` real cores would need, judged honestly from however
/// many cores the host grants (the `bench_sessions` churn convention).
#[derive(Debug, Serialize)]
struct ParallelLaneReport {
    /// Worker count (and thread count on a wide-enough host).
    workers: usize,
    /// Fastest critical-path seconds across the timed reps.
    critical_path_secs: f64,
    /// Aggregate runs per second over that critical path.
    runs_per_sec: f64,
}

// All `*_secs` are each lane's *fastest* per-sweep wall time across the
// timed reps; rates and overheads derive from those minima.
#[derive(Debug, Serialize)]
struct SweepBenchReport {
    grid: String,
    runs_per_sweep: usize,
    sweeps_timed: usize,
    /// Worker threads per lane. Each lane records what it actually ran
    /// with — there is deliberately no global `threads` scalar, which
    /// used to misreport the parallel lanes' widths.
    lane_threads: BTreeMap<String, usize>,
    /// Parallelism actually granted to this process (affinity/cgroup
    /// aware) — what the lanes were *measured* on. `lane_threads` above
    /// is what was asked for; on a pinned CI runner the two differ.
    host_cores_effective: usize,
    /// CPUs the kernel reports as present, `>= host_cores_effective`.
    host_cores_present: usize,
    engine_secs: f64,
    engine_runs_per_sec: f64,
    traced_secs: f64,
    traced_runs_per_sec: f64,
    traced_overhead: f64,
    unarmed_secs: f64,
    unarmed_runs_per_sec: f64,
    unarmed_overhead: f64,
    profiled_secs: f64,
    profiled_runs_per_sec: f64,
    prof_overhead: f64,
    /// How the parallel lanes below were timed (`critical-path`), to
    /// keep them from being read as wall-clock numbers.
    parallel_timing: &'static str,
    /// Parallel scaling lanes at [`PARALLEL_WIDTHS`] workers.
    parallel_lanes: Vec<ParallelLaneReport>,
    /// 4-worker lane throughput over the 1-worker lane — the scaling
    /// headline `PARALLEL_FLOOR` gates in CI.
    parallel_scaling_4_over_1: f64,
}

fn main() {
    let m = 4u16;
    let family = TightFamily::new(m, ResendPolicy::Once);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let seeds: Vec<u64> = (0..8).collect();

    // The E1 adversary panel.
    let adversaries = e1::adversaries();
    let mut spec = SweepSpec::new(ChannelSpec::Dup, adversaries[0].1.clone())
        .max_steps(4_000 * m as u64)
        .seeds(seeds.iter().copied())
        .threads(threads);
    for (_, sched) in adversaries.iter().skip(1) {
        spec = spec.also_scheduler(sched.clone());
    }
    let engine = SweepEngine::new(spec.clone().trace_mode(TraceMode::Off));
    // The traced lane measures causal tracing over the bare engine:
    // TraceProbe + channel provenance (stats still come from the world's
    // incremental counters).
    let traced_engine = SweepEngine::new(spec.clone().trace_mode(TraceMode::Off).traced(true));
    // The unarmed lane prices the corruption machinery itself: every
    // adversary wrapped in a campaign whose plan has no clauses, so the
    // scheduler indirection and per-step clause scan run but no fault
    // (and no corruption hook) ever fires.
    let mut unarmed_spec = spec.clone().trace_mode(TraceMode::Off);
    unarmed_spec.schedulers = unarmed_spec
        .schedulers
        .iter()
        .map(|s| SchedulerSpec::Campaign {
            inner: Box::new(s.clone()),
            plan: FaultPlan::new(0),
        })
        .collect();
    let unarmed_engine = SweepEngine::new(unarmed_spec);
    // The profiled lane prices phase-scoped profiling at its sampling
    // period. Every rep gets its own profiler, and the recorded phase
    // shares are the per-phase medians over the reps' reports, so a
    // window preempted on a shared host inflates one rep's shares, not
    // the record.
    let runs_per_sweep = spec.grid_size(&family);
    // Enough reps that every lane gets several preemption-free shots; the
    // minimum estimator below only sharpens with more samples.
    let reps = 100usize;
    let mut prof_reports = Vec::with_capacity(reps);

    // Warm-up and sanity: the engine completes every cell, and every
    // other lane's runs are bit-identical to the bare engine's.
    let pooled = engine.run(&family);
    assert_eq!(pooled.len(), runs_per_sweep);
    assert!(pooled.all_complete());
    let traced = traced_engine.run(&family);
    assert_eq!(traced.runs, pooled.runs, "tracing must not perturb results");
    assert_eq!(traced.report, pooled.report);
    let unarmed = unarmed_engine.run(&family);
    assert_eq!(
        unarmed.runs, pooled.runs,
        "an unarmed campaign must not perturb results"
    );
    assert_eq!(unarmed.report, pooled.report);
    let profiled = engine.run_profiled(&family, &PhaseProfiler::new(PROF_PERIOD));
    assert_eq!(
        profiled.runs, pooled.runs,
        "profiling must not perturb results"
    );
    assert_eq!(profiled.report, pooled.report);
    // The parallel lanes share the engine lane's spec at their own
    // widths; a real-threaded 4-worker sweep must be bit-identical to the
    // pooled engine before any lane is timed.
    let parallel_spec = spec.clone().trace_mode(TraceMode::Off);
    let parallel = SweepEngine::new(parallel_spec.clone().threads(4)).run(&family);
    assert_eq!(
        parallel.runs, pooled.runs,
        "the worker count must not perturb results"
    );
    assert_eq!(parallel.report, pooled.report);

    // Interleave the lanes rep by rep so slow clock / thermal drift
    // lands on all equally instead of biasing whichever ran last, and keep
    // per-rep timings: overheads come from each lane's *fastest* rep.
    // Scheduler preemption on a shared box only ever adds time — a single
    // hiccup inflates a ~3ms lane by double digits — so the minimum is the
    // one estimator of the true cost that noise cannot push around (a sum
    // or median smears hiccups straight into the gate).
    let mut engine_reps = Vec::with_capacity(reps);
    let mut traced_reps = Vec::with_capacity(reps);
    let mut unarmed_reps = Vec::with_capacity(reps);
    let mut profiled_reps = Vec::with_capacity(reps);
    let parallel_engines: Vec<SweepEngine> = PARALLEL_WIDTHS
        .iter()
        .map(|&w| SweepEngine::new(parallel_spec.clone().threads(w)))
        .collect();
    let mut parallel_reps: Vec<Vec<f64>> = PARALLEL_WIDTHS.iter().map(|_| Vec::new()).collect();
    for _ in 0..reps {
        let t = Instant::now();
        let out = engine.run(&family);
        engine_reps.push(t.elapsed().as_secs_f64());
        assert_eq!(out.len(), runs_per_sweep);

        let t = Instant::now();
        let out = traced_engine.run(&family);
        traced_reps.push(t.elapsed().as_secs_f64());
        assert_eq!(out.len(), runs_per_sweep);

        let t = Instant::now();
        let out = unarmed_engine.run(&family);
        unarmed_reps.push(t.elapsed().as_secs_f64());
        assert_eq!(out.len(), runs_per_sweep);

        let prof = PhaseProfiler::new(PROF_PERIOD);
        let t = Instant::now();
        let out = engine.run_profiled(&family, &prof);
        profiled_reps.push(t.elapsed().as_secs_f64());
        assert_eq!(out.len(), runs_per_sweep);
        prof_reports.push(prof.report("bench_sweep", "e1_grid"));

        // Parallel lanes time each worker's busy loop in isolation, so
        // the recorded critical path is core-count honest.
        for (engine, lane_reps) in parallel_engines.iter().zip(&mut parallel_reps) {
            let report = engine.run_isolated(&family);
            assert_eq!(report.outcome.len(), runs_per_sweep);
            lane_reps.push(report.critical_path_secs());
        }
    }

    fn fastest(samples: &[f64]) -> f64 {
        samples.iter().copied().fold(f64::INFINITY, f64::min)
    }
    let sweep_runs = runs_per_sweep as f64;
    let engine_secs = fastest(&engine_reps);
    let traced_secs = fastest(&traced_reps);
    let unarmed_secs = fastest(&unarmed_reps);
    let profiled_secs = fastest(&profiled_reps);
    let traced_overhead = traced_secs / engine_secs - 1.0;
    let unarmed_overhead = unarmed_secs / engine_secs - 1.0;
    let prof_overhead = profiled_secs / engine_secs - 1.0;
    let parallel_lanes: Vec<ParallelLaneReport> = PARALLEL_WIDTHS
        .iter()
        .zip(&parallel_reps)
        .map(|(&workers, lane_reps)| {
            let critical_path_secs = fastest(lane_reps);
            ParallelLaneReport {
                workers,
                critical_path_secs,
                runs_per_sec: sweep_runs / critical_path_secs,
            }
        })
        .collect();
    // Scaling is judged against the 1-worker lane — serial
    // execution over the same pooled machinery — so the ratio isolates
    // the partition quality rather than executor constant factors.
    let lane_rps = |w: usize| {
        parallel_lanes
            .iter()
            .find(|l| l.workers == w)
            .map(|l| l.runs_per_sec)
            .expect("lane present")
    };
    let parallel_scaling_4_over_1 = lane_rps(4) / lane_rps(1);
    let parallel_scaling_8_over_1 = lane_rps(8) / lane_rps(1);
    let (host_cores_effective, host_cores_present) = host::host_parallelism();
    // Wall-clock lanes all ran at the configured thread count; the
    // parallel lanes record their own widths inline in `parallel_lanes`.
    let mut lane_threads = BTreeMap::new();
    for lane in ["engine", "traced", "unarmed", "profiled"] {
        lane_threads.insert(lane.to_string(), threads);
    }
    for &w in &PARALLEL_WIDTHS {
        lane_threads.insert(format!("parallel_{w}"), w);
    }
    let report = SweepBenchReport {
        grid: format!("E1: tight-dup m={m} x {{dup-storm, reorder-max, random-0.5}} x 8 seeds"),
        runs_per_sweep,
        sweeps_timed: reps,
        lane_threads,
        host_cores_effective,
        host_cores_present,
        engine_secs,
        engine_runs_per_sec: sweep_runs / engine_secs,
        traced_secs,
        traced_runs_per_sec: sweep_runs / traced_secs,
        traced_overhead,
        unarmed_secs,
        unarmed_runs_per_sec: sweep_runs / unarmed_secs,
        unarmed_overhead,
        profiled_secs,
        profiled_runs_per_sec: sweep_runs / profiled_secs,
        prof_overhead,
        parallel_timing: "critical-path",
        parallel_lanes,
        parallel_scaling_4_over_1,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_sweep.json", &json).expect("BENCH_sweep.json written");
    println!("{json}");

    // Durable trajectory: one schema-versioned record per run, appended
    // to the history file bench_gate reads its baselines from.
    // The `{"prof": …}` line carries the rep whose busy time is the
    // median, a real report rather than a blend of reps.
    let mut by_busy: Vec<&ProfRecord> = prof_reports.iter().collect();
    by_busy.sort_by_key(|r| r.busy_ns);
    let prof_record = by_busy[by_busy.len() / 2].clone();
    // `parallel_scaling_*` deliberately does not start with `scaling_`:
    // the ratio is gated by the PARALLEL_FLOOR static floor, and keeping
    // it out of the baseline direction inference means a *better* deal
    // (higher ratio) can never arm a median that later noise trips.
    let mut record = HistoryRecord::new("bench_sweep")
        .metric("engine_secs", engine_secs)
        .metric("engine_runs_per_sec", sweep_runs / engine_secs)
        .metric("traced_overhead", traced_overhead)
        .metric("unarmed_overhead", unarmed_overhead)
        .metric("prof_overhead", prof_overhead)
        .metric("parallel_scaling_4_over_1", parallel_scaling_4_over_1)
        .metric("parallel_scaling_8_over_1", parallel_scaling_8_over_1)
        .phases_from(&prof_reports);
    for lane in &report.parallel_lanes {
        record = record.metric(
            &format!("parallel_runs_per_sec_{}", lane.workers),
            lane.runs_per_sec,
        );
    }
    if let Err(e) = history::append(Path::new(HISTORY_FILE), &record) {
        eprintln!("bench_sweep: cannot append {HISTORY_FILE}: {e}");
    }
    stp_bench::telemetry::export("bench_sweep", [TelemetryLine::Prof(prof_record)]);

    // Budget gates: full causal tracing stays within 25% of the bare
    // engine, an unarmed fault campaign — the corruption machinery with
    // nothing to fire — within 10%, and sampled phase profiling within 5%.
    stp_bench::telemetry::export_summary(
        "bench_sweep",
        1,
        traced_overhead <= 0.25 && unarmed_overhead <= 0.10 && prof_overhead <= 0.05,
    );
}
