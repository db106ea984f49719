//! The CI benchmark gate: static budgets plus noise-aware baselines.
//!
//! Reads `BENCH_history.jsonl` (or the path given as the first
//! argument), takes the **newest** record of each bench as the run under
//! test and everything before it as that bench's history, then applies
//! two layers of gates from [`stp_bench::gate`]:
//!
//! - absolute budgets and floors injected by CI as environment
//!   variables (a gate whose variable is unset is off — the numbers
//!   live in the workflow file so loosening one is a reviewed change);
//! - baseline comparison against the median of the bench's own prior
//!   records, within `BASELINE_TOLERANCE` (default ±30%), including
//!   per-phase busy-time shares so a regression names the offending
//!   phase.
//!
//! Prints one line per check and exits nonzero if anything failed. For
//! each bench with a failed gate it then prints the record's phase
//! shares beside their history medians, largest move first, so the
//! report says which phase moved.
//!
//! Usage: `bench_gate [BENCH_history.jsonl]`

use std::process::ExitCode;
use stp_bench::gate::{
    baseline_violations, check_budget, check_floor, env_bound, phase_moves, Violation,
};
use stp_bench::history::{self, HistoryRecord, HISTORY_FILE};

/// The static gates: `(bench, metric, env var, floor?)`. A floor gate
/// requires the metric to stay **at or above** the bound; a budget gate
/// at or below it.
const STATIC_GATES: &[(&str, &str, &str, bool)] = &[
    ("bench_sweep", "traced_overhead", "TRACED_BUDGET", false),
    ("bench_sweep", "unarmed_overhead", "UNARMED_BUDGET", false),
    ("bench_sweep", "prof_overhead", "PROF_BUDGET", false),
    (
        "bench_sweep",
        "parallel_scaling_4_over_1",
        "PARALLEL_FLOOR",
        true,
    ),
    (
        "bench_sessions",
        "sessions_completed",
        "SESSIONS_FLOOR",
        true,
    ),
    (
        "bench_sessions",
        "sessions_per_sec_4",
        "SESSIONS_RATE_FLOOR",
        true,
    ),
    ("bench_sessions", "scaling_4_over_1", "SCALING_FLOOR", true),
    (
        "bench_sessions",
        "metered_overhead",
        "METERED_BUDGET",
        false,
    ),
    ("bench_sessions", "prof_overhead", "PROF_BUDGET", false),
];

fn report(v: &Option<Violation>, bench: &str, metric: &str, bound: f64, floor: bool) {
    match v {
        Some(v) => println!("bench_gate: FAIL {v}"),
        None => {
            let rel = if floor {
                "above floor"
            } else {
                "within budget"
            };
            println!("bench_gate: ok   {bench}:{metric} {rel} {bound}");
        }
    }
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| HISTORY_FILE.to_string());
    let records = history::load(std::path::Path::new(&path));
    if records.is_empty() {
        eprintln!("bench_gate: {path} has no readable records — run the benches first");
        return ExitCode::FAILURE;
    }

    let tolerance = env_bound("BASELINE_TOLERANCE").unwrap_or(stp_bench::gate::DEFAULT_TOLERANCE);
    let mut benches: Vec<String> = Vec::new();
    for r in &records {
        if !benches.contains(&r.bench) {
            benches.push(r.bench.clone());
        }
    }

    let mut failed = false;
    for bench in &benches {
        let runs: Vec<HistoryRecord> = records
            .iter()
            .filter(|r| &r.bench == bench)
            .cloned()
            .collect();
        let (current, prior) = runs.split_last().expect("bench has a record");
        let mut bench_failed = false;
        println!(
            "bench_gate: {bench} @ {} on {} effective core(s), {} prior run(s)",
            current.commit,
            current.host_cores_effective,
            prior.len()
        );

        for &(gate_bench, metric, var, floor) in STATIC_GATES {
            if gate_bench != bench {
                continue;
            }
            let Some(bound) = env_bound(var) else {
                println!("bench_gate: off  {bench}:{metric} ({var} unset)");
                continue;
            };
            let v = if floor {
                check_floor(current, metric, bound)
            } else {
                check_budget(current, metric, bound)
            };
            bench_failed |= v.is_some();
            report(&v, bench, metric, bound, floor);
        }

        let baseline = baseline_violations(prior, current, tolerance);
        if baseline.is_empty() {
            println!(
                "bench_gate: ok   {bench} within ±{:.0}% of its history median",
                tolerance * 100.0
            );
        }
        for v in &baseline {
            println!("bench_gate: FAIL {v}");
            bench_failed = true;
        }
        if bench_failed && !current.phases.is_empty() {
            println!(
                "bench_gate: {bench} phase shares, largest move from the history median first:"
            );
            for m in phase_moves(prior, current) {
                println!("bench_gate:   {m}");
            }
        }
        failed |= bench_failed;
    }

    if failed {
        eprintln!("bench_gate: regression detected — see FAIL lines above");
        return ExitCode::FAILURE;
    }
    println!("bench_gate: all gates passed");
    ExitCode::SUCCESS
}
