//! Parity: profiling is an observer, never a participant.
//!
//! The contract the profiler rests on: a profiled run is **bit-identical**
//! to an unprofiled one — the sampled windows run the same generic step
//! body, just observed — so every digest, stat and outcome must match
//! with profiling on versus off. The grid discipline mirrors
//! `sessions_parity`: 32 seeds × {dup, del, timed} × {tight, abp,
//! stabilizing} under two adversaries, plus the churn workload end to
//! end. A loose overhead ceiling rides along; the tight ≤5% budget is
//! gated in CI on the release-mode bench lanes (`PROF_BUDGET`).

use std::sync::Arc;
use std::time::Instant;
use stp_protocols::ResendPolicy;
use stp_sim::prelude::*;
use stp_sim::sessions::{run_churn, ChurnRun, ChurnSpec, SessionTemplate};
use stp_sim::PhaseProfiler;

const SEEDS: u64 = 32;
const MAX_STEPS: u64 = 2_000;

fn families() -> Vec<(&'static str, FamilySpec)> {
    vec![
        (
            "tight",
            FamilySpec::Tight {
                d: 3,
                policy: ResendPolicy::Once,
            },
        ),
        (
            "abp",
            FamilySpec::Abp {
                domain: 2,
                max_len: 3,
            },
        ),
        ("stabilizing", FamilySpec::Stabilizing { d: 2, max_len: 3 }),
    ]
}

fn channels() -> Vec<(&'static str, ChannelSpec)> {
    vec![
        ("dup", ChannelSpec::Dup),
        ("del", ChannelSpec::Del),
        ("timed", ChannelSpec::Timed { deadline: 4 }),
    ]
}

fn sweep_spec(channel: ChannelSpec) -> SweepSpec {
    SweepSpec::new(channel, SchedulerSpec::DupStorm { p_deliver: 0.9 })
        .also_scheduler(SchedulerSpec::Random { p_deliver: 0.7 })
        .max_steps(MAX_STEPS)
        .seeds(0..SEEDS)
        .trace_mode(TraceMode::Off)
        .threads(1)
}

#[test]
fn profiled_sweep_is_bit_identical_to_unprofiled() {
    for (fname, family) in families() {
        for (cname, channel) in channels() {
            let spec = sweep_spec(channel);
            let engine = SweepEngine::new(spec);
            let built = family.build();
            let plain = engine.run(&*built);
            // Period 1: every cell is a profiled window — the hardest
            // case for parity, since nothing runs the unobserved path.
            let prof = PhaseProfiler::new(1);
            let profiled = engine.run_profiled(&*built, &prof);
            assert_eq!(
                plain.runs, profiled.runs,
                "{fname}/{cname}: profiled runs must be bit-identical"
            );
            assert_eq!(plain.report(), profiled.report(), "{fname}/{cname}: report");
            let record = prof.report("prof_parity", "sweep");
            assert!(record.windows > 0, "{fname}/{cname}: windows recorded");
            assert!(
                record.coverage >= 0.95,
                "{fname}/{cname}: coverage {:.3} below floor",
                record.coverage
            );
        }
    }
}

#[test]
fn profiled_parallel_lane_keeps_coverage_and_parity() {
    // The parallel lane must not dilute attribution: each worker samples
    // every period-th of its own cells, so aggregate coverage stays ≥95%
    // however many workers split the grid — and profiling a parallel
    // sweep changes nothing about its results.
    for (fname, family) in families() {
        for (cname, channel) in channels() {
            let engine = SweepEngine::new(sweep_spec(channel).threads(4));
            let built = family.build();
            let plain = engine.run(&*built);
            let prof = PhaseProfiler::new(1);
            let profiled = engine.run_profiled(&*built, &prof);
            assert_eq!(
                plain.runs, profiled.runs,
                "{fname}/{cname}: profiled parallel lane must be bit-identical"
            );
            let record = prof.report("prof_parity", "parallel");
            assert!(record.windows > 0, "{fname}/{cname}: windows recorded");
            assert!(
                record.coverage >= 0.95,
                "{fname}/{cname}: parallel-lane coverage {:.3} below floor",
                record.coverage
            );
        }
    }
}

fn engine_lap(engine: &mut SessionEngine, specs: &[SessionSpec]) -> Vec<RunStats> {
    let serials: Vec<u64> = specs.iter().map(|s| engine.submit(s.clone())).collect();
    assert!(
        engine.run_until_idle(10 * MAX_STEPS * specs.len() as u64),
        "grid must drain"
    );
    let stats = serials
        .iter()
        .map(|&serial| match engine.poll(serial) {
            SessionStatus::Done { outcome } => outcome.stats.clone(),
            other => panic!("serial {serial} did not retire: {other:?}"),
        })
        .collect();
    engine.drain_completed();
    stats
}

#[test]
fn profiled_session_engine_matches_unprofiled() {
    for (fname, family) in families() {
        for (cname, channel) in channels() {
            let specs = sweep_spec(channel).session_specs(&family);
            let mut plain = SessionEngine::new(0, 8, 16);
            let mut profiled = SessionEngine::new(0, 8, 16);
            profiled.attach_profiler(Arc::new(PhaseProfiler::new(1)));
            assert_eq!(
                engine_lap(&mut plain, &specs),
                engine_lap(&mut profiled, &specs),
                "{fname}/{cname}: profiled slots must retire identically"
            );
        }
    }
}

fn churn_spec() -> ChurnSpec {
    ChurnSpec {
        sessions: 20_000,
        arrivals_per_round: 256,
        server: ServerSpec {
            shards: 4,
            capacity_per_shard: 512,
            quantum: 8,
            watchdog: None,
        },
        max_steps: MAX_STEPS,
        seed: 0x9_D16E57,
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

#[test]
fn profiled_churn_digest_matches_unprofiled() {
    let spec = churn_spec();
    let plain = run_churn(&spec, &ChurnRun::default());
    let prof = Arc::new(PhaseProfiler::new(PhaseProfiler::DEFAULT_PERIOD));
    let profiled = run_churn(
        &spec,
        &ChurnRun {
            profiler: Some(&prof),
            ..ChurnRun::default()
        },
    );
    assert_eq!(
        plain.digest, profiled.digest,
        "profiling must not change any session's outcome"
    );
    assert_eq!(plain.fleet.completed, profiled.fleet.completed);
    assert_eq!(plain.fleet.exhausted, profiled.fleet.exhausted);
    assert_eq!(plain.fleet.disconnected, profiled.fleet.disconnected);
    let record = prof.report("prof_parity", "churn");
    assert!(record.windows > 0, "sampled windows recorded");
    assert!(
        record.coverage >= 0.95,
        "coverage {:.3} below floor",
        record.coverage
    );
}

#[test]
fn sampled_profiling_overhead_stays_loosely_bounded() {
    // The real ≤5% budget is gated on the release-mode bench lanes
    // (PROF_BUDGET in CI); this debug-mode canary only catches the
    // catastrophic failure modes — sampling accidentally always-on, or
    // a window costing orders of magnitude more than the quantum it
    // wraps. Min-of-laps on both sides keeps scheduler noise out.
    let spec = ChurnSpec {
        sessions: 8_000,
        ..churn_spec()
    };
    const LAPS: usize = 3;
    let mut plain_secs = f64::INFINITY;
    let mut profiled_secs = f64::INFINITY;
    let prof = Arc::new(PhaseProfiler::new(PhaseProfiler::DEFAULT_PERIOD));
    for _ in 0..LAPS {
        let t = Instant::now();
        let plain = run_churn(&spec, &ChurnRun::default());
        plain_secs = plain_secs.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let profiled = run_churn(
            &spec,
            &ChurnRun {
                profiler: Some(&prof),
                ..ChurnRun::default()
            },
        );
        profiled_secs = profiled_secs.min(t.elapsed().as_secs_f64());

        assert_eq!(plain.digest, profiled.digest);
    }
    let overhead = profiled_secs / plain_secs - 1.0;
    assert!(
        overhead <= 0.50,
        "sampled profiling cost {:+.1}% — far beyond any plausible \
         sampling overhead (release budget is 5%)",
        overhead * 100.0
    );
}
