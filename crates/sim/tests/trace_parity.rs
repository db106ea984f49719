//! Trace parity: causal spans must reconcile exactly with aggregate
//! statistics — `sent = delivered + dropped + expired + in-flight-at-end`
//! per direction on consuming channels, and delivery fan-out accounting
//! on duplicating ones — across a 32-seed dup/del/timed grid, in every
//! `TraceMode`. The provenance stream is a parallel channel of truth;
//! this suite pins it to the one the metrics already establish.

use stp_channel::{
    Channel, DelChannel, DropHeavyScheduler, DupChannel, DupStormScheduler, RandomScheduler,
    Scheduler, TimedChannel,
};
use stp_core::data::DataSeq;
use stp_core::event::TraceMode;
use stp_protocols::{ResendPolicy, TightReceiver, TightSender};
use stp_sim::metrics::MetricsProbe;
use stp_sim::trace::{MsgFate, MsgSpans};
use stp_sim::World;

const SEEDS: u64 = 32;
const MODES: [TraceMode; 2] = [TraceMode::Full, TraceMode::Off];

struct Lane {
    name: &'static str,
    policy: ResendPolicy,
    consuming: bool,
    channel: fn() -> Box<dyn Channel>,
    scheduler: fn(u64) -> Box<dyn Scheduler>,
}

const LANES: [Lane; 3] = [
    Lane {
        name: "dup",
        policy: ResendPolicy::Once,
        consuming: false,
        channel: || Box::new(DupChannel::new()),
        scheduler: |seed| Box::new(DupStormScheduler::new(seed, 0.8)),
    },
    Lane {
        name: "del",
        policy: ResendPolicy::EveryTick,
        consuming: true,
        channel: || Box::new(DelChannel::new()),
        scheduler: |seed| Box::new(DropHeavyScheduler::new(seed, 0.35, 0.5)),
    },
    Lane {
        name: "timed",
        policy: ResendPolicy::EveryTick,
        consuming: true,
        channel: || Box::new(TimedChannel::new(3)),
        scheduler: |seed| Box::new(RandomScheduler::new(seed, 0.5)),
    },
];

fn run_lane(lane: &Lane, seed: u64, mode: TraceMode) -> World {
    let input = DataSeq::from_indices([2, 0, 3, 1]);
    let m = 4u16;
    let mut world = World::builder(input.clone())
        .sender(Box::new(TightSender::new(input, m, lane.policy)))
        .receiver(Box::new(TightReceiver::new(m, lane.policy)))
        .channel((lane.channel)())
        .scheduler((lane.scheduler)(seed))
        .mode(mode)
        .provenance(true)
        .probe(Box::new(MetricsProbe::new()))
        .build()
        .expect("all components supplied");
    world.run_until(50_000, World::is_complete);
    world
}

fn spans_of(world: &World) -> MsgSpans {
    MsgSpans::of(world.msg_events(), world.step_count())
}

#[test]
fn spans_reconcile_with_run_stats_on_every_lane_seed_and_mode() {
    for lane in &LANES {
        for seed in 0..SEEDS {
            for mode in MODES {
                let world = run_lane(lane, seed, mode);
                let stats = world.probe_of::<MetricsProbe>().unwrap().stats();
                let probe = spans_of(&world);
                probe
                    .reconcile(&stats)
                    .unwrap_or_else(|e| panic!("{} seed {seed} mode {mode:?}: {e}", lane.name));
                assert!(
                    stats.sends_s > 0 && !probe.spans().is_empty(),
                    "{} seed {seed}: the grid must exercise the channel",
                    lane.name
                );
                if lane.consuming {
                    assert!(
                        !probe.has_fan_out(),
                        "{} seed {seed}: consuming channels never duplicate",
                        lane.name
                    );
                    // The conservation law, spelled out: every physical
                    // send is delivered, dropped, expired or still in
                    // flight — exactly one of the four.
                    let c = probe.counts();
                    let (fr, fs) = probe.in_flight();
                    assert_eq!(
                        c.sent_to_r,
                        c.delivered_to_r + c.dropped_to_r + c.expired_to_r + fr,
                        "{} seed {seed} mode {mode:?}: S→R conservation",
                        lane.name
                    );
                    assert_eq!(
                        c.sent_to_s,
                        c.delivered_to_s + c.dropped_to_s + c.expired_to_s + fs,
                        "{} seed {seed} mode {mode:?}: R→S conservation",
                        lane.name
                    );
                } else {
                    // Duplicating lane: fan-out accounting instead — all
                    // deliveries land on some span, none on coalesced ones.
                    let fanned: usize = probe.spans().iter().map(|s| s.delivered_at.len()).sum();
                    assert_eq!(fanned, stats.deliveries_r + stats.deliveries_s);
                    assert!(probe
                        .spans()
                        .iter()
                        .filter(|s| s.coalesced_into.is_some())
                        .all(|s| s.delivered_at.is_empty() && s.fate() == MsgFate::Coalesced));
                }
            }
        }
    }
}

#[test]
fn spans_are_identical_across_trace_modes() {
    // The provenance stream is mode-independent: turning the event trace
    // off must not change a single span.
    for lane in &LANES {
        for seed in (0..SEEDS).step_by(4) {
            let full = run_lane(lane, seed, TraceMode::Full);
            let off = run_lane(lane, seed, TraceMode::Off);
            assert_eq!(
                spans_of(&full).spans(),
                spans_of(&off).spans(),
                "{} seed {seed}: spans must not depend on the trace mode",
                lane.name
            );
        }
    }
}

#[test]
fn timed_lane_expiries_are_never_double_surfaced_drops() {
    // Satellite regression at the world level: a copy the adversary
    // deleted in a step must not also come back out of `take_expirations`
    // in that same step. The world debug-asserts this; here we check the
    // observable consequence — no span carries both terminal fates.
    for seed in 0..SEEDS {
        let world = run_lane(&LANES[2], seed, TraceMode::Off);
        let probe = spans_of(&world);
        for span in probe.spans() {
            assert!(
                !(span.dropped_at.is_some() && span.expired_at.is_some()),
                "seed {seed}: span {} both dropped and expired",
                span.id
            );
        }
    }
}
