//! Parity: the session store against the pooled-world sweep engine.
//!
//! Both run the same step kernel. This suite pins what the session
//! store adds around it, which no other test covers: the stopping rule
//! of its run-ahead (completion checked before each step, the budget
//! capping the count, exactly as `World::run_until(max_steps,
//! is_complete)`; the store runs each session ahead of its round-robin
//! quantum schedule and releases the outcome in the round the schedule
//! fixes, so the stats are the same however far ahead it ran) and
//! recipe-keyed slot provisioning. A
//! [`SessionEngine`] stepping a session to retirement must produce
//! [`RunStats`] *bit-identical* to the [`SweepEngine`] running the same
//! (family, input, channel, scheduler, seed) cell. The grid is 32 seeds
//! × {dup, del, timed} × {tight, abp, stabilizing} under three
//! adversaries — the third a fault campaign whose state scrambles and
//! injected noise take the kernel's corruption path through both sinks —
//! and every cell is compared twice: once on virgin slots, and again on
//! a second lap through the same (deliberately small) engine so every
//! slot has been recycled — reset-in-place provisioning must not leak
//! any state from the first lap.

use stp_core::event::{CorruptionKind, Event};
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

// A duplication storm struck by processor state scrambles and by forged
// messages injected in both directions.
fn campaign() -> SchedulerSpec {
    let plan = FaultPlan::new(13)
        .with(
            FaultClause::new(
                FaultAction::StateScramble,
                Trigger::EveryK {
                    period: 11,
                    offset: 4,
                },
            )
            .repeats(2),
        )
        .with(
            FaultClause::new(
                FaultAction::InjectNoise,
                Trigger::EveryK {
                    period: 5,
                    offset: 1,
                },
            )
            .repeats(3),
        );
    SchedulerSpec::Campaign {
        inner: Box::new(SchedulerSpec::DupStorm { p_deliver: 0.9 }),
        plan,
    }
}

fn sweep_spec(channel: ChannelSpec) -> SweepSpec {
    SweepSpec::new(channel, SchedulerSpec::DupStorm { p_deliver: 0.9 })
        .also_scheduler(SchedulerSpec::Random { p_deliver: 0.7 })
        .also_scheduler(campaign())
        .max_steps(MAX_STEPS)
        .seeds(0..SEEDS)
        .trace_mode(TraceMode::Off)
        .threads(1)
}

// Runs every spec through `engine` (in submit order) and returns the
// retired stats, serial-ordered to match the sweep's grid order.
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
fn session_store_matches_sweep_engine_bit_for_bit() {
    for (fname, family) in families() {
        for (cname, channel) in channels() {
            let sweep = sweep_spec(channel);
            let outcome = SweepEngine::new(sweep.clone()).run(&*family.build());
            let specs = sweep.session_specs(&family);
            assert_eq!(
                outcome.runs.len(),
                specs.len(),
                "{fname}/{cname}: spec expansion matches the grid"
            );

            // Capacity far below the grid size: the first lap already
            // recycles slots hard, the second lap reuses every slot.
            let mut engine = SessionEngine::new(0, 8, 16);
            let first = engine_lap(&mut engine, &specs);
            assert!(
                engine.slots_recycled() > 0,
                "{fname}/{cname}: an 8-slot engine must recycle"
            );
            for (i, (got, run)) in first.iter().zip(&outcome.runs).enumerate() {
                assert_eq!(
                    got, &run.stats,
                    "{fname}/{cname}: lap 1 cell {i} (seed {}, input {:?})",
                    run.seed, run.input
                );
            }

            let second = engine_lap(&mut engine, &specs);
            assert_eq!(
                first, second,
                "{fname}/{cname}: recycled slots replay identically"
            );
        }
    }
}

#[test]
fn campaign_cells_take_the_corruption_path() {
    // The campaign adversary must actually strike — both kinds — or its
    // cells above guard nothing. The recorded trace lists the strikes
    // that took effect.
    for (fname, family) in families() {
        for (cname, channel) in channels() {
            let spec = SweepSpec::new(channel, campaign())
                .max_steps(MAX_STEPS)
                .seeds(0..SEEDS)
                .threads(1);
            let outcome = SweepEngine::new(spec).run(&*family.build());
            let strikes: Vec<CorruptionKind> = outcome
                .runs
                .iter()
                .filter_map(|r| r.trace.as_ref())
                .flat_map(|t| t.events())
                .filter_map(|e| match e.event {
                    Event::Corruption { kind, .. } => Some(kind),
                    _ => None,
                })
                .collect();
            let fired = |want: &[CorruptionKind]| strikes.iter().any(|k| want.contains(k));
            assert!(
                fired(&[
                    CorruptionKind::ScrambleSender,
                    CorruptionKind::ScrambleReceiver
                ]),
                "{fname}/{cname}: no scramble took effect"
            );
            assert!(
                fired(&[CorruptionKind::InjectToR, CorruptionKind::InjectToS]),
                "{fname}/{cname}: no injection took effect"
            );
        }
    }
}

#[test]
fn sharded_server_matches_sweep_engine() {
    // Same contract through the public API: specs scattered over a
    // 4-shard server retire with the same stats as the serial sweep.
    let (_, family) = families().remove(0);
    let sweep = sweep_spec(ChannelSpec::Del);
    let outcome = SweepEngine::new(sweep.clone()).run(&*family.build());
    let specs = sweep.session_specs(&family);

    let server = SessionServer::new(&ServerSpec {
        shards: 4,
        capacity_per_shard: 8,
        quantum: 16,
        watchdog: None,
    });
    let ids: Vec<SessionId> = specs.iter().map(|s| server.submit(s.clone())).collect();
    assert!(
        server.run_until_idle(10 * MAX_STEPS * specs.len() as u64),
        "grid must drain"
    );
    for (i, (id, run)) in ids.iter().zip(&outcome.runs).enumerate() {
        match server.poll(*id) {
            SessionStatus::Done { outcome: got } => {
                assert_eq!(got.stats, run.stats, "cell {i} (seed {})", run.seed);
            }
            other => panic!("cell {i} did not retire: {other:?}"),
        }
    }
    assert_eq!(server.drain_completed().len(), specs.len());
}
