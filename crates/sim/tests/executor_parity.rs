//! Parity: parallelism redistributes work, never results.
//!
//! [`SweepEngine::run`]'s contract is that its outcome is
//! **bit-identical** to the serial engine's, whatever the worker count
//! and however the workers interleave on the shared cursor. The grid
//! discipline mirrors `prof_parity`: 32 seeds × {dup, del, timed} ×
//! {tight, abp, stabilizing} under two adversaries, checked at 1/2/8
//! workers, plus a second lap over recycled pooled worlds and the timed
//! isolated mode the scaling bench lanes are built on.

use stp_protocols::ResendPolicy;
use stp_sim::prelude::*;

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
        .probe(true)
        .threads(1)
}

#[test]
fn parallel_sweeps_are_bit_identical_to_serial_at_every_width() {
    for (fname, family) in families() {
        for (cname, channel) in channels() {
            let spec = sweep_spec(channel);
            let built = family.build_sync();
            let serial = SweepEngine::new(spec.clone()).run_serial(&*built);
            for workers in [1, 2, 8] {
                let parallel = SweepEngine::new(spec.clone().threads(workers)).run(&*built);
                assert_eq!(
                    serial.runs, parallel.runs,
                    "{fname}/{cname}: {workers}-worker run diverged from serial"
                );
                assert_eq!(
                    serial.report, parallel.report,
                    "{fname}/{cname}: {workers}-worker report"
                );
            }
        }
    }
}

#[test]
fn second_lap_over_recycled_worlds_is_bit_identical() {
    // Workers pool worlds per scheduler recipe exactly like the serial
    // engine; a second run() on the same engine must rebuild the pools
    // from scratch, and repeated laps must never drift. (Campaign
    // schedulers carry the most per-run state, so use one.)
    use stp_channel::campaign::{FaultAction, FaultClause, FaultPlan, Trigger};
    let plan = FaultPlan::new(5).with(
        FaultClause::new(
            FaultAction::DeletionBurst { copies: 1 },
            Trigger::EveryK {
                period: 7,
                offset: 3,
            },
        )
        .repeats(2),
    );
    let spec = SweepSpec::new(
        ChannelSpec::Del,
        SchedulerSpec::Campaign {
            inner: Box::new(SchedulerSpec::Eager),
            plan,
        },
    )
    .max_steps(MAX_STEPS)
    .seeds(0..SEEDS)
    .threads(1);
    let family = stp_protocols::TightFamily::new(3, ResendPolicy::EveryTick);
    let serial = SweepEngine::new(spec.clone()).run_serial(&family);
    let engine = SweepEngine::new(spec.threads(4));
    let first = engine.run(&family);
    let second = engine.run(&family);
    assert_eq!(serial.runs, first.runs, "first parallel lap diverged");
    assert_eq!(first.runs, second.runs, "second parallel lap diverged");
}

#[test]
fn isolated_mode_matches_real_threads_and_times_every_worker() {
    // run_isolated is the scaling bench's measurement mode: a static
    // deal, run worker by worker with busy clocks. Its outcome must match
    // both the real-threaded run and the serial engine, or the recorded
    // runs/sec describe a different computation.
    let family = stp_protocols::TightFamily::new(3, ResendPolicy::Once);
    let spec = sweep_spec(ChannelSpec::Dup);
    let serial = SweepEngine::new(spec.clone()).run_serial(&family);
    for workers in [1, 2, 8] {
        let engine = SweepEngine::new(spec.clone().threads(workers));
        let threaded = engine.run(&family);
        let report = engine.run_isolated(&family);
        assert_eq!(serial.runs, threaded.runs, "{workers} workers: threaded");
        assert_eq!(
            serial.runs, report.outcome.runs,
            "{workers} workers: isolated"
        );
        assert_eq!(report.worker_busy_secs.len(), workers);
        assert!(
            report.worker_busy_secs.iter().all(|&s| s > 0.0),
            "{workers} workers: every worker must have run something"
        );
        assert!(report.runs_per_sec() > 0.0);
        assert!(report.critical_path_secs() <= report.wall_secs);
    }
}
