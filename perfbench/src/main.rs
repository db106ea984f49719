//! End-to-end and per-layer benchmark of the STP sweep engine and session
//! server.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrument in the
//! program's path. `--trace 1` is a separate run that replays the same
//! inputs through decorated components and spans around the server and
//! engine calls, and reports the per-layer metrics. Human-readable lines go
//! to standard output first; the last line of standard output is the JSON
//! result; a one-line JSON `detail` record (per-lap figures, host facts,
//! digests, profiler shares) goes to standard error. The process exits 1
//! when a correctness check fails and 2 on a usage error. See `README.md`
//! for the design.

mod churn;
mod host;
mod layers;
mod replay;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "sweep" | "churn" | "serve") {
        return Err(format!(
            "unknown workload '{workload}' (sweep, churn, serve)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub broken: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    detail: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.broken.push(what.to_string());
        }
    }

    /// Adds a field to the standard-error detail record; `json` must be a
    /// JSON value.
    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    pub fn has_metric(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    pub fn correct(&self) -> bool {
        self.broken.is_empty() && self.failed == 0
    }
}

/// A JSON number (non-finite values, which JSON cannot carry, become 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON array of numbers.
pub fn nums(xs: &[f64]) -> String {
    let body: Vec<String> = xs.iter().map(|&x| num(x)).collect();
    format!("[{}]", body.join(","))
}

/// Times the workload's set-up `SETUP_SAMPLES` times before the run and
/// reports the median, each sample scaled to nominal host speed (see
/// `host`). Each sample repeats the build until 20 ms have passed, so a
/// microsecond set-up is timed over many builds. Sampling before the run
/// keeps the heap history, and so `peak_rss_mb`, the same on every run of
/// a seed.
pub fn time_setup<T>(report: &mut Report, mut build: impl FnMut() -> T) {
    const SETUP_SAMPLES: usize = 8;
    let mut wall = Vec::new();
    let mut samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let mut n = 0u32;
            while n == 0 || t.elapsed() < Duration::from_millis(20) {
                std::hint::black_box(build());
                n += 1;
            }
            let secs = t.elapsed().as_secs_f64() / f64::from(n);
            wall.push(secs);
            secs * host::speed()
        })
        .collect();
    report.detail("setup_wall_samples_s", nums(&wall));
    report.metric("setup_s", stats::median(&mut samples), "s");
}

/// Per-lap figures and their aggregation: each lap's rate and latency
/// quantiles, scaled to nominal host speed by the speed measured right
/// after the lap, then reduced to their fast decile over laps.
#[derive(Debug, Default)]
pub struct Laps {
    rates: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    speeds: Vec<f64>,
}

impl Laps {
    /// Records one lap: its rate (per second) and latency quantiles (ms),
    /// all as measured on the wall clock.
    pub fn push(&mut self, rate: f64, p50_ms: f64, p99_ms: f64) {
        self.rates.push(rate);
        self.p50.push(p50_ms);
        self.p99.push(p99_ms);
        self.speeds.push(host::speed());
    }

    pub fn report(self, report: &mut Report) {
        let scale = |xs: &[f64], rate: bool| -> Vec<f64> {
            xs.iter()
                .zip(&self.speeds)
                .map(|(x, h)| if rate { x / h } else { x * h })
                .collect()
        };
        let (mut rates, mut p50, mut p99) = (
            scale(&self.rates, true),
            scale(&self.p50, false),
            scale(&self.p99, false),
        );
        let (mut wr, mut w50, mut w99) = (self.rates.clone(), self.p50.clone(), self.p99.clone());
        report.detail(
            "wall_clock",
            format!(
                "{{\"runs_per_sec\":{},\"latency_p50_ms\":{},\"latency_p99_ms\":{}}}",
                num(stats::fast_decile_rate(&mut wr)),
                num(stats::fast_decile_time(&mut w50)),
                num(stats::fast_decile_time(&mut w99))
            ),
        );
        report.detail("laps", self.rates.len().to_string());
        report.detail("lap_runs_per_sec", nums(&self.rates));
        report.detail("lap_latency_p50_ms", nums(&self.p50));
        report.detail("lap_latency_p99_ms", nums(&self.p99));
        report.detail("lap_host_speed", nums(&self.speeds));
        report.metric("runs_per_sec", stats::fast_decile_rate(&mut rates), "1/s");
        report.metric("latency_p50_ms", stats::fast_decile_time(&mut p50), "ms");
        report.metric("latency_p99_ms", stats::fast_decile_time(&mut p99), "ms");
    }
}

/// Process high-water resident set, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_facts() -> String {
    let (effective, present) = stp_bench::host::host_parallelism();
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load: Vec<&str> = load.split_whitespace().take(3).collect();
    format!(
        "{{\"cores_effective\":{effective},\"cores_present\":{present},\"loadavg\":[{}]}}",
        load.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <sweep|churn> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host_start = host_facts();
    let mut report = match (args.workload.as_str(), args.trace) {
        ("sweep", false) => sweep::end_to_end(&args),
        ("sweep", true) => sweep::traced(&args),
        (_, false) => churn::end_to_end(&args),
        (_, true) => churn::traced(&args),
    };
    if args.trace {
        layers::fill_missing(&mut report);
    } else {
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    report.detail("host_start", host_start);
    report.detail("host_end", host_facts());
    report.detail("broken_checks", format!("{:?}", report.broken));

    let mut detail = String::from("{\"detail\":{");
    let _ = write!(
        detail,
        "\"workload\":\"{}\",\"seed\":{},\"trace\":{}",
        args.workload, args.seed, args.trace
    );
    for (k, v) in &report.detail {
        let _ = write!(detail, ",\"{k}\":{v}");
    }
    detail.push_str("}}");
    eprintln!("{detail}");

    println!(
        "workload {}: attempted {} failed {}{}",
        args.workload,
        report.attempted,
        report.failed,
        if report.broken.is_empty() {
            String::new()
        } else {
            format!("; FAILED CHECKS: {}", report.broken.join("; "))
        }
    );
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        println!("  {name:<32} {value:>16.6} {unit}");
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(*value)
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.correct(),
        report.attempted,
        report.failed
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
