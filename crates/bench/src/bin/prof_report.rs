//! Per-phase cost attribution for the two hot paths: the E1 sweep grid
//! and the session-churn workload, run under the phase-scoped profiler
//! with the counting allocator installed.
//!
//! For each workload the binary prints the profiler's cost table —
//! busy-time share, call counts, p50/p99 window times, and allocation
//! traffic per phase — followed by the top-N allocation sites (phases
//! ranked by bytes). It exits nonzero unless the profiler attributed at
//! least 95% of measured busy time to named phases on **both**
//! workloads, so CI running this binary *is* the coverage gate: a new
//! engine phase that nobody instruments shows up here as unattributed
//! time and fails the build, not as a silent hole in the flamegraph.
//!
//! `--folded PATH` additionally writes both workloads' folded stacks
//! (`stp;<workload>;<phase> <ns>`) to `PATH`, ready for
//! `inferno-flamegraph` / `flamegraph.pl`. With `STP_TELEMETRY` set,
//! each workload emits one `{"prof": …}` line.
//!
//! Usage: `prof_report [--sessions N] [--period N] [--top N]
//! [--folded PATH]`

use std::process::ExitCode;
use std::sync::Arc;
use stp_bench::{e1, table};
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_core::event::TraceMode;
use stp_prof::CountingAlloc;
use stp_protocols::{FamilySpec, ResendPolicy, TightFamily};
use stp_sim::sessions::{run_churn, ChurnRun, ChurnSpec, ServerSpec, SessionTemplate};
use stp_sim::{folded, PhaseProfiler, ProfRecord, SweepEngine, SweepSpec, NO_SAMPLES};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The acceptance bar: at least this fraction of busy time must land in
/// named phases on every workload or the binary exits nonzero.
const COVERAGE_FLOOR: f64 = 0.95;

struct Args {
    sessions: u64,
    period: u64,
    top: usize,
    folded: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        sessions: 200_000,
        // Period 1: this is the attribution tool, so profile *every*
        // window. The benches keep the sparse default period instead.
        period: 1,
        top: 5,
        folded: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--sessions" => {
                args.sessions = value("--sessions").parse().unwrap_or_else(|e| {
                    die(&format!("--sessions: {e}"));
                })
            }
            "--period" => {
                args.period = value("--period").parse().unwrap_or_else(|e| {
                    die(&format!("--period: {e}"));
                })
            }
            "--top" => {
                args.top = value("--top").parse().unwrap_or_else(|e| {
                    die(&format!("--top: {e}"));
                })
            }
            "--folded" => args.folded = Some(value("--folded")),
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!(
        "prof_report: {msg}\nusage: prof_report [--sessions N] [--period N] [--top N] \
         [--folded PATH]"
    );
    std::process::exit(2);
}

/// The E1 benchmark grid (same shape as `bench_sweep`), run once under
/// the profiler: every cell a profiled window.
fn profile_e1_grid(period: u64) -> ProfRecord {
    let m = 4u16;
    let family = TightFamily::new(m, ResendPolicy::Once);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let adversaries = e1::adversaries();
    let mut spec = SweepSpec::new(ChannelSpec::Dup, adversaries[0].1.clone())
        .max_steps(4_000 * u64::from(m))
        .seeds(0..8)
        .threads(threads);
    for (_, sched) in adversaries.iter().skip(1) {
        spec = spec.also_scheduler(sched.clone());
    }
    let engine = SweepEngine::new(spec.trace_mode(TraceMode::Off));
    let prof = PhaseProfiler::new(period);
    let outcome = engine.run_profiled(&family, &prof);
    assert!(outcome.all_complete(), "E1 grid must complete");
    prof.report("prof_report", "e1_grid")
}

/// The churn workload (same mix as `sessions_top`), stepped in
/// isolation under the profiler.
fn profile_churn(sessions: u64, period: u64) -> ProfRecord {
    let spec = ChurnSpec {
        sessions,
        arrivals_per_round: 1_024,
        server: ServerSpec {
            shards: 4,
            capacity_per_shard: 2_048,
            quantum: 8,
            watchdog: None,
        },
        max_steps: 2_000,
        seed: 0x70_5E55,
        disconnect_rate: 0.05,
        disconnect_after: 2,
        mix: vec![
            SessionTemplate {
                family: FamilySpec::Tight {
                    d: 3,
                    policy: ResendPolicy::Once,
                },
                channel: ChannelSpec::Dup,
                scheduler: SchedulerSpec::DupStorm { p_deliver: 0.9 },
            },
            SessionTemplate {
                family: FamilySpec::Abp {
                    domain: 2,
                    max_len: 3,
                },
                channel: ChannelSpec::LossyFifo,
                scheduler: SchedulerSpec::Random { p_deliver: 0.8 },
            },
        ],
    };
    let prof = Arc::new(PhaseProfiler::new(period));
    let report = run_churn(
        &spec,
        &ChurnRun {
            profiler: Some(&prof),
            isolated: true,
            ..ChurnRun::default()
        },
    );
    assert_eq!(report.fleet.submitted, sessions);
    prof.report("prof_report", "churn")
}

fn fmt_ns(ns: f64) -> String {
    if ns == NO_SAMPLES {
        "-".to_string()
    } else {
        format!("{ns:.0}")
    }
}

fn print_record(rec: &ProfRecord, top: usize) {
    println!("== {} ==", rec.workload);
    println!(
        "windows {} (period {}), busy {:.2} ms, coverage {:.2}%, allocs {} ({} KiB)",
        rec.windows,
        rec.period,
        rec.busy_ns as f64 / 1e6,
        rec.coverage * 100.0,
        rec.allocs_total,
        rec.alloc_bytes_total / 1024,
    );
    let rows: Vec<Vec<String>> = rec
        .phases
        .iter()
        .map(|p| {
            vec![
                p.phase.clone(),
                format!("{:.1}%", p.share * 100.0),
                format!("{:.3}", p.total_ns as f64 / 1e6),
                p.calls.to_string(),
                fmt_ns(p.p50_window_ns),
                fmt_ns(p.p99_window_ns),
                p.allocs.to_string(),
                (p.alloc_bytes / 1024).to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table::render(
            &["PHASE", "SHARE", "TOTAL_MS", "CALLS", "P50_NS", "P99_NS", "ALLOCS", "ALLOC_KB"],
            &rows
        )
    );

    if rec.alloc_metered {
        let mut sites: Vec<_> = rec.phases.iter().filter(|p| p.allocs > 0).collect();
        sites.sort_by_key(|s| std::cmp::Reverse(s.alloc_bytes));
        sites.truncate(top);
        println!("top {} allocation sites:", sites.len());
        let rows: Vec<Vec<String>> = sites
            .iter()
            .map(|p| {
                vec![
                    p.phase.clone(),
                    p.allocs.to_string(),
                    (p.alloc_bytes / 1024).to_string(),
                    format!("{:.1}", p.alloc_bytes as f64 / (p.allocs.max(1)) as f64),
                ]
            })
            .collect();
        print!(
            "{}",
            table::render(&["PHASE", "ALLOCS", "ALLOC_KB", "BYTES/ALLOC"], &rows)
        );
    } else {
        println!("allocation metering inactive (counting allocator not installed)");
    }
    println!();
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.period == 0 {
        die("--period must be >= 1");
    }

    eprintln!("prof_report: profiling E1 sweep grid…");
    let grid = profile_e1_grid(args.period);
    eprintln!(
        "prof_report: profiling churn workload ({} sessions)…",
        args.sessions
    );
    let churn = profile_churn(args.sessions, args.period);

    for rec in [&grid, &churn] {
        print_record(rec, args.top);
    }

    if let Some(path) = &args.folded {
        let stacks = format!("{}{}", folded(&grid), folded(&churn));
        if let Err(e) = std::fs::write(path, &stacks) {
            eprintln!("prof_report: cannot write folded stacks to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "prof_report: wrote {} folded stack lines to {path}",
            stacks.lines().count()
        );
    }

    stp_bench::telemetry::export(
        "prof_report",
        [grid.clone(), churn.clone()].map(stp_sim::TelemetryLine::Prof),
    );

    let mut failed = false;
    for rec in [&grid, &churn] {
        if rec.coverage < COVERAGE_FLOOR {
            eprintln!(
                "prof_report: FAIL {}: only {:.2}% of busy time attributed (floor {:.0}%)",
                rec.workload,
                rec.coverage * 100.0,
                COVERAGE_FLOOR * 100.0
            );
            failed = true;
        }
        if !rec.alloc_metered {
            eprintln!(
                "prof_report: FAIL {}: allocation metering inactive despite CountingAlloc",
                rec.workload
            );
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "prof_report: coverage {:.2}% (grid) / {:.2}% (churn) — all phases accounted",
        grid.coverage * 100.0,
        churn.coverage * 100.0
    );
    ExitCode::SUCCESS
}
