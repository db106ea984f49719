//! Parity: parallelism redistributes work, never results.
//!
//! [`SweepEngine::run`]'s contract is that its outcome is
//! **bit-identical** to the serial engine's, whatever the worker count
//! and however the workers interleave on the shared deal. The grid
//! discipline mirrors `prof_parity`: 32 seeds × {dup, del, timed} ×
//! {tight, abp, stabilizing} under two adversaries, checked at 1/2/8
//! workers, plus a second lap over recycled pooled worlds and the timed
//! isolated mode the scaling bench lanes are built on. The edge grids —
//! empty, a single cell, sizes that are not a multiple of the 16-cell
//! deal chunk, more workers than chunks, and mostly failing runs — check
//! `failures` as well.

use stp_core::data::DataSeq;
use stp_core::proto::{Receiver, Sender};
use stp_core::sequence::SequenceFamily;
use stp_protocols::{ProtocolFamily, ResendPolicy, TightFamily};
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
        .threads(1)
}

#[test]
fn parallel_sweeps_are_bit_identical_to_serial_at_every_width() {
    for (fname, family) in families() {
        for (cname, channel) in channels() {
            let spec = sweep_spec(channel);
            let built = family.build();
            let serial = SweepEngine::new(spec.clone()).run(&*built);
            for workers in [1, 2, 8] {
                let parallel = SweepEngine::new(spec.clone().threads(workers)).run(&*built);
                assert_eq!(
                    serial.runs, parallel.runs,
                    "{fname}/{cname}: {workers}-worker run diverged from serial"
                );
                assert_eq!(
                    serial.report(),
                    parallel.report(),
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
    let serial = SweepEngine::new(spec.clone()).run(&family);
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
    let serial = SweepEngine::new(spec.clone()).run(&family);
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

/// The tight family, claiming only the last `count` of its sequences (the
/// longest ones), so a grid can have any size.
#[derive(Debug)]
struct LastClaimed {
    inner: TightFamily,
    count: usize,
}

impl ProtocolFamily for LastClaimed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn claimed_family(&self) -> SequenceFamily {
        let all = self.inner.claimed_family();
        let skip = all.len() - self.count;
        SequenceFamily::from_seqs(all.seqs()[skip..].iter().cloned()).expect("distinct sequences")
    }

    fn sender_alphabet_size(&self) -> u16 {
        self.inner.sender_alphabet_size()
    }

    fn sender_for(&self, x: &DataSeq) -> Box<dyn Sender> {
        self.inner.sender_for(x)
    }

    fn receiver(&self) -> Box<dyn Receiver> {
        self.inner.receiver()
    }
}

fn last_claimed(count: usize) -> LastClaimed {
    LastClaimed {
        inner: TightFamily::new(3, ResendPolicy::Once),
        count,
    }
}

/// The three E1 adversaries on the dup channel.
fn e1_spec() -> SweepSpec {
    SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
        .also_scheduler(SchedulerSpec::Reorder)
        .also_scheduler(SchedulerSpec::Random { p_deliver: 0.5 })
        .max_steps(MAX_STEPS)
        .seeds([0])
        .trace_mode(TraceMode::Off)
}

/// Runs `spec` at 1, 2 and 8 workers and isolated at the same widths,
/// checks each outcome's runs, report and failures against the serial
/// engine's, and returns the serial outcome.
fn assert_every_executor_matches_serial(
    label: &str,
    family: &dyn ProtocolFamily,
    spec: &SweepSpec,
    cells: usize,
) -> SweepOutcome {
    assert_eq!(spec.grid_size(family), cells, "{label}: grid size");
    let serial = SweepEngine::new(spec.clone().threads(1)).run(family);
    assert_eq!(serial.len(), cells, "{label}: serial run count");
    for workers in [1, 2, 8] {
        let engine = SweepEngine::new(spec.clone().threads(workers));
        let threaded = engine.run(family);
        let isolated = engine.run_isolated(family);
        assert_eq!(isolated.worker_busy_secs.len(), workers);
        for (mode, outcome) in [("run", threaded), ("isolated", isolated.outcome)] {
            let at = format!("{label}, {workers} workers, {mode}");
            assert_eq!(serial.runs, outcome.runs, "{at}: runs");
            assert_eq!(serial.report(), outcome.report(), "{at}: report");
            assert_eq!(serial.failures, outcome.failures, "{at}: failures");
        }
    }
    serial
}

#[test]
fn an_empty_grid_runs_nothing_at_every_width() {
    let family = last_claimed(16);
    let outcome =
        assert_every_executor_matches_serial("no seeds", &family, &e1_spec().seeds([]), 0);
    assert!(outcome.is_empty() && outcome.all_complete());
}

#[test]
fn a_single_cell_grid_runs_once_at_every_width() {
    let spec = SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
        .max_steps(MAX_STEPS)
        .seeds([5]);
    let outcome = assert_every_executor_matches_serial("one cell", &last_claimed(1), &spec, 1);
    assert_eq!(outcome.runs[0].seed, 5);
    assert!(outcome.runs[0].trace.is_some());
    assert!(outcome.all_complete(), "failures: {:?}", outcome.failures);
}

#[test]
fn a_ragged_grid_keeps_every_cell_in_grid_order() {
    // 11 sequences × 3 adversaries = 33 cells: two full chunks and a
    // one-cell tail, with both scheduler boundaries inside a chunk, and
    // fewer chunks than the widest run has workers.
    let family = last_claimed(11);
    let outcome = assert_every_executor_matches_serial("33 cells", &family, &e1_spec(), 33);
    let claimed = family.claimed_family();
    for (i, run) in outcome.runs.iter().enumerate() {
        assert_eq!(run.scheduler, i / 11, "cell {i}: scheduler");
        assert_eq!(run.input, claimed.seqs()[i % 11], "cell {i}: input");
    }
    assert!(outcome.all_complete(), "failures: {:?}", outcome.failures);
}

#[test]
fn mostly_failing_grids_list_failures_in_grid_order() {
    // Three steps complete only the shortest inputs, so most cells fail
    // and `failures` must list them in the serial engine's order.
    let family = last_claimed(13);
    let spec = e1_spec()
        .max_steps(3)
        .seeds(0..3)
        .trace_mode(TraceMode::Full);
    let outcome = assert_every_executor_matches_serial("max_steps 3", &family, &spec, 117);
    assert!(
        outcome.failures.len() > outcome.len() / 2,
        "only {} of {} cells failed",
        outcome.failures.len(),
        outcome.len()
    );
}
