//! `sweep`: the E1 table's m = 5 row — `TightFamily::new(5, Once)` under
//! the three E1 adversaries on the dup channel, trace off, probe on
//! (`e1::spec_for`) — through `SweepEngine::run` with two workers.
//!
//! A request is one engine run over the three-adversary grid at one seed
//! (978 cells). A lap is 64 requests on 64 seeds derived from `--seed`, the
//! same 64 every lap, so every lap's outcome digest must be the lap-0 one.

use crate::layers;
use crate::replay::{Pool, Recipe};
use crate::stats::{self, fold, stats_digest};
use crate::trace::{span, Calibration, Recorder};
use crate::{time_setup, Args, Laps, Report};
use std::time::Instant;
use stp_bench::e1;
use stp_channel::ChannelSpec;
use stp_protocols::{FamilySpec, ProtocolFamily, ResendPolicy, TightFamily};
use stp_sim::{PhaseProfiler, SweepEngine, SweepOutcome};

const M: u16 = 5;
const SEEDS_PER_LAP: u64 = 64;
const WORKERS: usize = 2;
/// The traced run's four laps per cycle: the engine with two workers and
/// serially, then the lap's cells replayed plain and decorated.
const LAPS: [&str; 4] = [
    "engine.lap2",
    "engine.lap1",
    "replay.plain",
    "replay.decorated",
];

struct Setup {
    family: TightFamily,
    /// One engine per request seed.
    engines: Vec<SweepEngine>,
    cells_per_lap: u64,
}

fn setup(seed: u64, workers: usize) -> Setup {
    let family = TightFamily::new(M, ResendPolicy::Once);
    let adversaries = e1::adversaries();
    let base = stats::SplitMix::new(seed).next_u64() >> 2;
    let engines: Vec<SweepEngine> = (0..SEEDS_PER_LAP)
        .map(|i| {
            let mut spec = e1::spec_for(M, 1, adversaries[0].1.clone())
                .seeds([base + i])
                .threads(workers);
            for (_, s) in &adversaries[1..] {
                spec = spec.also_scheduler(s.clone());
            }
            SweepEngine::new(spec)
        })
        .collect();
    let cells_per_lap = engines
        .iter()
        .map(|e| e.spec().grid_size(&family) as u64)
        .sum();
    Setup {
        family,
        engines,
        cells_per_lap,
    }
}

/// Folds one request's outcome into the lap digest; returns failed cells.
fn absorb(outcome: &SweepOutcome, digest: &mut u64) -> u64 {
    let mut failed = outcome.failures.len() as u64;
    for run in &outcome.runs {
        *digest = fold(*digest, stats_digest(&run.stats));
        if !run.stats.safe {
            failed += 1;
        }
    }
    failed
}

/// One lap through the engine: per-request wall times, digest, failures.
fn engine_lap(s: &Setup) -> (Vec<f64>, u64, u64) {
    let mut times = Vec::with_capacity(s.engines.len());
    let mut digest = 0;
    let mut failed = 0;
    for engine in &s.engines {
        let t = Instant::now();
        let outcome = engine.run(&s.family);
        times.push(t.elapsed().as_secs_f64());
        failed += absorb(&outcome, &mut digest);
    }
    (times, digest, failed)
}

pub fn end_to_end(args: &Args) -> Report {
    let mut report = Report::default();
    time_setup(&mut report, || setup(args.seed, WORKERS));
    let s = setup(args.seed, WORKERS);

    // Warm-up lap: fills caches and fixes the reference digest.
    let (_, reference, failed) = engine_lap(&s);
    report.attempted += s.cells_per_lap;
    report.failed += failed;

    let mut laps = Laps::default();
    let mut digests_ok = true;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let (mut times, digest, failed) = engine_lap(&s);
        report.attempted += s.cells_per_lap;
        report.failed += failed;
        digests_ok &= digest == reference;
        let rate = s.cells_per_lap as f64 / times.iter().sum::<f64>();
        let p50 = stats::quantile(&mut times, 0.5) * 1e3;
        laps.push(rate, p50, stats::quantile(&mut times, 0.99) * 1e3);
    }
    report.check(
        "every lap's outcome digest equals the warm-up lap's",
        digests_ok,
    );
    report.detail("digest", format!("\"{reference:016x}\""));
    report.detail("requests_per_lap", SEEDS_PER_LAP.to_string());
    laps.report(&mut report);
    report
}

/// The untraced and decorated replays of a lap: the same cells, in the
/// engine's grid order, through pooled worlds on this thread.
fn replay_lap(s: &Setup, pool: &mut Pool, keep_rows: bool) -> (u64, u64, u64) {
    let claimed = s.family.claimed_family();
    let mut digest = 0;
    let mut failed = 0;
    let mut steps = 0;
    let mut cell = 0u64;
    for engine in &s.engines {
        let spec = engine.spec();
        for sched in 0..spec.schedulers.len() {
            for x in claimed.seqs() {
                for &seed in &spec.seeds {
                    let stats = pool.run(sched, x, seed, spec.max_steps, (cell, keep_rows));
                    digest = fold(digest, stats_digest(&stats));
                    steps += stats.steps;
                    failed += u64::from(!(stats.safe && stats.written == stats.input_len));
                    cell += 1;
                }
            }
        }
    }
    (digest, failed, steps)
}

fn recipes() -> Vec<Recipe> {
    let family = FamilySpec::Tight {
        d: M,
        policy: ResendPolicy::Once,
    };
    e1::adversaries()
        .iter()
        .map(|(_, sched)| Recipe::new(&family, &ChannelSpec::Dup, sched))
        .collect()
}

pub fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let s = setup(args.seed, WORKERS);
    let serial = setup(args.seed, 1);
    let rec = Recorder::shared();
    let mut cal = Calibration::new();
    let names = {
        let mut r = rec.borrow_mut();
        LAPS.map(|n| r.name(n))
    };
    let mut plain = Pool::new(recipes(), true, None);
    let mut decorated = Pool::new(recipes(), true, Some(&rec));

    let (_, reference, _) = engine_lap(&s);
    let mut cycles = 0u64;
    let mut steps = 0u64;
    let mut digests_ok = true;
    let start = Instant::now();
    while cycles == 0 || start.elapsed().as_secs_f64() < args.seconds {
        cal.sample();
        rec.borrow_mut().begin_item(u64::MAX, false);
        let (_, d2, f2) = span(&rec, names[0], || engine_lap(&s));
        let (_, d1, f1) = span(&rec, names[1], || engine_lap(&serial));
        let (dr, fr, _) = span(&rec, names[2], || replay_lap(&s, &mut plain, false));
        let (dt, ft, st) = span(&rec, names[3], || {
            replay_lap(&s, &mut decorated, cycles == 0)
        });
        steps += st;
        digests_ok &= [d2, d1, dr, dt].iter().all(|&x| x == reference);
        report.attempted += 4 * s.cells_per_lap;
        report.failed += f2 + f1 + fr + ft;
        cycles += 1;
    }
    report.check(
        "engine (2 workers, serial) and replayed (plain, decorated) laps match the reference digest",
        digests_ok,
    );

    // The profiler's view of the same grid, for comparison with the
    // decorator shares below.
    let prof = PhaseProfiler::new(1);
    for engine in &s.engines {
        engine.run_profiled(&s.family, &prof);
    }
    let prof = prof.report("perfbench", "sweep");

    let cost = cal.cost();
    let laps = cycles as f64;
    let rec_ref = rec.borrow();
    let [w2, w1, r, t] = LAPS.map(|n| rec_ref.agg(n).total_ns as f64);
    let layers = layers::layer_metrics(&mut report, &rec_ref, &cost, laps, steps);
    let shares = layers.shares_json(w1);
    report.metric(
        "engine.dispatch_ns_per_cell",
        (w1 - r) / (s.cells_per_lap as f64 * laps),
        "ns",
    );
    report.metric(
        "engine.worker_idle_share",
        1.0 - w1 / (WORKERS as f64 * w2),
        "share",
    );
    report.metric("unattributed_share", (r - layers.total_ns) / w1, "share");
    report.metric("trace_overhead", t / r - 1.0, "share");

    report.detail("cycles", cycles.to_string());
    report.detail(
        "span_cost_ns",
        format!(
            "{{\"inside\":{},\"total\":{}}}",
            cost.inside_ns, cost.total_ns
        ),
    );
    report.detail(
        "lap_seconds",
        format!(
            "{{\"engine_2_workers\":{},\"engine_serial\":{},\"replay_plain\":{},\"replay_decorated\":{}}}",
            w2 / laps / 1e9,
            w1 / laps / 1e9,
            r / laps / 1e9,
            t / laps / 1e9
        ),
    );
    report.detail("decorator_shares", shares);
    report.detail("profiler_shares", layers::profiler_shares_json(&prof));
    layers::write_spans(&mut report, &rec_ref, "sweep");
    report
}
