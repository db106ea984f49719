//! `top` for the session fleet: runs a seeded churn workload on the
//! sharded session store and renders a live, refreshing per-shard table
//! (throughput, p50/p99 latency, queue depth, oldest-active-age, stall
//! flags) sampled from the [`FleetRegistry`] — the row each shard
//! publishes at the end of every round — while the shards step: the
//! dashboard the `stp-sim::fleet` module exists to feed.
//!
//! Modes:
//!
//! * default — live view: the workload runs on worker threads, the main
//!   thread redraws the table every `--interval` milliseconds from
//!   [`FleetWatch`](stp_sim::fleet::FleetWatch) deltas until the run
//!   completes.
//! * `--once` — non-interactive: run the workload to completion, print
//!   the final table exactly once (no ANSI escapes), for CI and scripts.
//! * `--prometheus` — additionally print the final snapshot in the
//!   Prometheus text exposition format, followed by the per-phase cost
//!   metrics from the phase-scoped profiler that rides along with every
//!   run (`stp_prof_*` families).
//!
//! With `STP_TELEMETRY` set, every refresh emits an aggregate
//! `{"fleet": …}` line, the final snapshot adds one line per shard, and
//! every watchdog flag becomes a `{"stall": …}` line — all validated by
//! `validate_telemetry`.
//!
//! Usage: `sessions_top [--once] [--prometheus] [--shards N]
//! [--sessions N] [--interval MS]`

use std::sync::Arc;
use std::time::Duration;
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_protocols::{FamilySpec, ResendPolicy};
use stp_sim::fleet::{
    prometheus_text, FleetDelta, FleetRegistry, FleetSnapshot, WatchdogSpec, NO_SAMPLES,
};
use stp_sim::sessions::{run_churn, ChurnRun, ChurnSpec, ServerSpec, SessionTemplate};
use stp_sim::{PhaseProfiler, TelemetryLine};

struct Args {
    once: bool,
    prometheus: bool,
    shards: u16,
    sessions: u64,
    interval: Duration,
}

fn parse_args() -> Args {
    let mut args = Args {
        once: false,
        prometheus: false,
        shards: 4,
        sessions: 200_000,
        interval: Duration::from_millis(500),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--once" => args.once = true,
            "--prometheus" => args.prometheus = true,
            "--shards" => {
                args.shards = value("--shards").parse().unwrap_or_else(|e| {
                    die(&format!("--shards: {e}"));
                })
            }
            "--sessions" => {
                args.sessions = value("--sessions").parse().unwrap_or_else(|e| {
                    die(&format!("--sessions: {e}"));
                })
            }
            "--interval" => {
                let ms: u64 = value("--interval").parse().unwrap_or_else(|e| {
                    die(&format!("--interval: {e}"));
                });
                args.interval = Duration::from_millis(ms.max(50));
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!(
        "sessions_top: {msg}\nusage: sessions_top [--once] [--prometheus] [--shards N] \
         [--sessions N] [--interval MS]"
    );
    std::process::exit(2);
}

// The same mix the churn bench runs, scaled to a dashboard-sized
// workload, with the default watchdog armed so the STALLS column is
// live.
fn workload(args: &Args) -> ChurnSpec {
    ChurnSpec {
        sessions: args.sessions,
        arrivals_per_round: 1_024,
        server: ServerSpec {
            shards: args.shards,
            capacity_per_shard: 2_048,
            quantum: 8,
            watchdog: Some(WatchdogSpec::default()),
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
    }
}

fn fmt_quantile(q: f64) -> String {
    if q == NO_SAMPLES {
        "-".to_string()
    } else {
        format!("{q:.0}")
    }
}

fn fmt_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) if r >= 0.0 => format!("{r:.0}"),
        _ => "-".to_string(),
    }
}

// One table: a header, one row per shard, and an aggregate row. Rates
// come from the watch delta when there is one (live view); the final
// `--once` table reports the whole-run average instead.
fn render(snapshot: &FleetSnapshot, deltas: Option<&FleetDelta>, avg_rate: Option<f64>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>5} {:>8} {:>7} {:>7} {:>9} {:>9} {:>6} {:>6} {:>7} {:>7}\n",
        "SHARD", "ROUND", "ACTIVE", "QUEUE", "DONE", "RATE/s", "p50", "p99", "OLDEST", "STALLS"
    ));
    let rate = |shard: Option<u16>| {
        deltas
            .filter(|d| d.secs > 0.0)
            .map(|d| d.sessions_per_sec(shard))
    };
    for (i, s) in (0u16..).zip(&snapshot.shards) {
        out.push_str(&format!(
            "{:>5} {:>8} {:>7} {:>7} {:>9} {:>9} {:>6} {:>6} {:>7} {:>7}\n",
            i,
            s.round,
            s.active,
            s.queued,
            s.completed,
            fmt_rate(rate(Some(i))),
            fmt_quantile(s.p50_latency_rounds()),
            fmt_quantile(s.p99_latency_rounds()),
            s.oldest_active_age,
            s.stalls,
        ));
    }
    let stats = snapshot.stats();
    out.push_str(&format!(
        "{:>5} {:>8} {:>7} {:>7} {:>9} {:>9} {:>6} {:>6} {:>7} {:>7}\n",
        "ALL",
        stats.round,
        stats.active,
        stats.queued,
        stats.completed,
        fmt_rate(rate(None).or(avg_rate)),
        fmt_quantile(stats.p50_latency_rounds()),
        fmt_quantile(stats.p99_latency_rounds()),
        stats.oldest_active_age,
        stats.stalls,
    ));
    out
}

fn main() {
    let args = parse_args();
    let spec = workload(&args);
    let fleet = FleetRegistry::new(args.shards);
    // The profiler rides along on every run (sparse sampling, so the
    // dashboard numbers are unperturbed); its report feeds the
    // --prometheus page and the {"prof": …} telemetry line.
    let prof = Arc::new(PhaseProfiler::new(PhaseProfiler::DEFAULT_PERIOD));
    let mut telemetry = stp_bench::telemetry::writer();
    let mut emit = |line: TelemetryLine| {
        if let Some(w) = telemetry.as_mut() {
            if let Err(e) = w.emit(&line) {
                eprintln!("sessions_top: telemetry failed: {e}");
            }
        }
    };

    let report = if args.once {
        run_churn(
            &spec,
            &ChurnRun {
                fleet: Some(&fleet),
                profiler: Some(&prof),
                ..ChurnRun::default()
            },
        )
    } else {
        // Live view: the workload runs on its own thread (which spawns
        // one worker per shard); this thread samples and redraws.
        let mut watch = fleet.watch();
        let worker = {
            let spec = spec.clone();
            let fleet = fleet.clone();
            let prof = Arc::clone(&prof);
            std::thread::spawn(move || {
                let run = ChurnRun {
                    fleet: Some(&fleet),
                    profiler: Some(&prof),
                    ..ChurnRun::default()
                };
                run_churn(&spec, &run)
            })
        };
        while !worker.is_finished() {
            std::thread::sleep(args.interval);
            let delta = watch.tick();
            emit(TelemetryLine::Fleet(
                delta.snapshot.stats().record("sessions_top"),
            ));
            // Clear screen + home, then the table — plain ANSI, no TUI
            // dependency.
            print!(
                "\x1b[2J\x1b[H{}",
                render(&delta.snapshot, Some(&delta), None)
            );
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        worker.join().expect("churn worker panicked")
    };

    // Final state: the definitive table and summary line (printed once,
    // no escapes), both read from the final snapshot, the per-shard +
    // aggregate telemetry lines, and any watchdog flags.
    let snapshot = fleet.snapshot();
    let stats = snapshot.stats();
    let avg_rate = (report.wall_secs > 0.0).then(|| stats.completed as f64 / report.wall_secs);
    print!("{}", render(&snapshot, None, avg_rate));
    println!(
        "{} sessions: {} completed, {} disconnected, {} exhausted, {} stalled in {:.2}s",
        stats.submitted,
        stats.completed,
        stats.disconnected,
        stats.exhausted,
        stats.stalls,
        report.wall_secs,
    );
    for shard in &snapshot.shards {
        emit(TelemetryLine::Fleet(shard.record("sessions_top")));
    }
    emit(TelemetryLine::Fleet(stats.record("sessions_top")));
    let prof_record = prof.report("sessions_top", "churn");
    emit(TelemetryLine::Prof(prof_record.clone()));
    for mut stall in report.stalls.iter().cloned() {
        stall.experiment = "sessions_top".to_string();
        emit(TelemetryLine::Stall(stall));
    }
    if let Some(Err(e)) = telemetry.as_mut().map(|w| w.flush()) {
        eprintln!("sessions_top: telemetry failed: {e}");
    }

    if args.prometheus {
        print!("{}", prometheus_text(&snapshot, &prof_record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_sim::fleet::FleetStats;

    // A small but real exposition page: a registry with traffic on two
    // shards (shard 1 left idle so NO_SAMPLES quantiles are in play) and
    // a profiler with one timed window.
    fn sample_page() -> String {
        let fleet = FleetRegistry::new(2);
        let mut row = FleetStats {
            submitted: 1,
            admitted: 1,
            recycle_misses: 1,
            completed: 1,
            ..FleetStats::new(0)
        };
        row.latency.record(3.0);
        fleet.shard(0).publish(&row);
        let prof = PhaseProfiler::new(1);
        prof.time(stp_sim::Phase::SenderStep, || std::hint::black_box(1));
        prometheus_text(&fleet.snapshot(), &prof.report("sessions_top", "churn"))
    }

    #[test]
    fn exposition_page_parses_as_prometheus_text_format() {
        let page = sample_page();
        assert!(page.ends_with('\n'), "exposition must end in a newline");
        for line in page.lines() {
            assert!(!line.trim().is_empty(), "no blank lines in the page");
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment form: {line}");
            // Sample lines: `name{labels} value` or `name value`.
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(!series.is_empty());
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in: {line}"
            );
        }
    }

    #[test]
    fn help_and_type_are_emitted_once_per_family() {
        let page = sample_page();
        let mut helps = std::collections::BTreeMap::new();
        let mut types = std::collections::BTreeMap::new();
        for line in page.lines() {
            for (prefix, counts) in [("# HELP ", &mut helps), ("# TYPE ", &mut types)] {
                if let Some(rest) = line.strip_prefix(prefix) {
                    let family = rest.split(' ').next().expect("family name").to_string();
                    *counts.entry(family).or_insert(0usize) += 1;
                }
            }
        }
        assert!(!helps.is_empty() && !types.is_empty());
        for (family, count) in helps.iter().chain(types.iter()) {
            assert_eq!(*count, 1, "duplicate HELP/TYPE for {family}");
        }
        // The fleet and prof halves must not collide on family names.
        assert!(helps.keys().any(|f| f.starts_with("stp_prof_")));
    }

    #[test]
    fn no_samples_sentinel_never_leaks_into_the_page() {
        let page = sample_page();
        for line in page.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let v: f64 = value.parse().expect("numeric sample");
            assert!(
                v != NO_SAMPLES,
                "NO_SAMPLES sentinel leaked as a sample: {series}"
            );
        }
    }
}
