//! The protocol × channel × adversary grid: every protocol completes
//! safely on its home channel under every adversary it is specified for,
//! across many seeds.

use stp_channel::{
    Channel, ChannelSpec, DelChannel, DropHeavyScheduler, DupChannel, EagerScheduler, FifoChannel,
    LossyFifoChannel, RandomScheduler, SchedulerSpec, TimedChannel,
};
use stp_core::data::DataSeq;
use stp_core::require::{check_complete, check_safety};
use stp_protocols::{
    AbpReceiver, AbpSender, HybridReceiver, HybridSender, ProtocolFamily, ResendPolicy,
    StenningReceiver, StenningSender, TightFamily,
};
use stp_sim::{run_family_member, SweepEngine, SweepSpec, World};

fn seq(v: &[u16]) -> DataSeq {
    DataSeq::from_indices(v.iter().copied())
}

#[test]
fn tight_dup_grid_all_sequences_all_adversaries() {
    let family = TightFamily::new(3, ResendPolicy::Once);
    let adversaries = [
        ("eager", SchedulerSpec::Eager),
        ("storm", SchedulerSpec::DupStorm { p_deliver: 0.8 }),
        ("reorder", SchedulerSpec::Reorder),
        ("random", SchedulerSpec::Random { p_deliver: 0.6 }),
    ];
    for (name, sched) in adversaries {
        let spec = SweepSpec::new(ChannelSpec::Dup, sched)
            .max_steps(10_000)
            .seeds(0..5)
            .threads(1);
        let out = SweepEngine::new(spec).run(&family);
        assert!(out.all_complete(), "adversary {name}: {:?}", out.failures);
    }
}

#[test]
fn tight_del_grid_all_sequences_drop_rates() {
    let family = TightFamily::new(2, ResendPolicy::EveryTick);
    for p_drop in [0.1, 0.3, 0.5] {
        let spec = SweepSpec::new(
            ChannelSpec::Del,
            SchedulerSpec::DropHeavy {
                p_drop,
                p_deliver: 0.6,
            },
        )
        .max_steps(50_000)
        .seeds(0..5)
        .threads(1);
        let out = SweepEngine::new(spec).run(&family);
        assert!(out.all_complete(), "p_drop={p_drop}: {:?}", out.failures);
    }
}

#[test]
fn abp_over_lossy_fifo_many_seeds() {
    let input = seq(&[1, 1, 0, 1, 0, 0, 1, 1]);
    for s in 0..10 {
        let mut w = World::builder(input.clone())
            .sender(Box::new(AbpSender::new(input.clone(), 2)))
            .receiver(Box::new(AbpReceiver::new(2)))
            .channel(Box::new(LossyFifoChannel::new()))
            .scheduler(Box::new(DropHeavyScheduler::new(s, 0.3, 0.7)))
            .build()
            .expect("all components supplied");
        let t = w.run_to_completion(200_000).unwrap();
        assert_eq!(t.output(), input, "seed {s}");
    }
}

#[test]
fn abp_over_reliable_fifo_is_cheap() {
    let input = seq(&[0, 1, 0, 1]);
    let mut w = World::builder(input.clone())
        .sender(Box::new(AbpSender::new(input.clone(), 2)))
        .receiver(Box::new(AbpReceiver::new(2)))
        .channel(Box::new(FifoChannel::new()))
        .scheduler(Box::new(EagerScheduler::new()))
        .build()
        .expect("all components supplied");
    let t = w.run_to_completion(1_000).unwrap();
    // Stop-and-wait on a prompt reliable link: ~2 steps per item.
    assert!(t.steps() <= 4 * input.len() as u64 + 4, "{}", t.steps());
}

#[test]
fn stenning_over_lossy_fifo_various_moduli() {
    let input = seq(&[1, 0, 0, 1, 1, 0]);
    for modulus in [2u16, 3, 4, 8] {
        for s in 0..5 {
            let mut w = World::builder(input.clone())
                .sender(Box::new(StenningSender::new(input.clone(), 2, modulus)))
                .receiver(Box::new(StenningReceiver::new(2, modulus)))
                .channel(Box::new(LossyFifoChannel::new()))
                .scheduler(Box::new(DropHeavyScheduler::new(s, 0.25, 0.7)))
                .build()
                .expect("all components supplied");
            let t = w.run_to_completion(200_000).unwrap();
            assert_eq!(t.output(), input, "modulus {modulus} seed {s}");
        }
    }
}

#[test]
fn hybrid_over_timed_channel_faultless() {
    let input = seq(&[1, 0, 1, 1, 0, 0]);
    let mut w = World::builder(input.clone())
        .sender(Box::new(HybridSender::new(input.clone(), 2, 3)))
        .receiver(Box::new(HybridReceiver::new(2)))
        .channel(Box::new(TimedChannel::new(3)))
        .scheduler(Box::new(EagerScheduler::new()))
        .build()
        .expect("all components supplied");
    let t = w.run_to_completion(10_000).unwrap();
    assert_eq!(t.output(), input);
}

#[test]
#[allow(clippy::type_complexity)]
fn every_family_is_safe_even_under_hostile_starvation() {
    // Liveness may fail under unfair schedulers, but safety never may.
    let fams: Vec<Box<dyn ProtocolFamily>> = vec![
        Box::new(TightFamily::new(3, ResendPolicy::Once)),
        Box::new(TightFamily::new(3, ResendPolicy::EveryTick)),
        Box::new(stp_protocols::NaiveFamily::new(3, 2)),
        Box::new(stp_protocols::AbpFamily::new(3, 3)),
        Box::new(stp_protocols::StenningFamily::new(3, 4, 3)),
    ];
    let channels: Vec<(&str, Box<dyn Fn() -> Box<dyn Channel>>)> = vec![
        ("dup", Box::new(|| Box::new(DupChannel::new()))),
        ("del", Box::new(|| Box::new(DelChannel::new()))),
        ("fifo", Box::new(|| Box::new(FifoChannel::new()))),
        ("lossy", Box::new(|| Box::new(LossyFifoChannel::new()))),
    ];
    for fam in &fams {
        // A few representative members, not the full cross product.
        let claimed = fam.claimed_family();
        let members: Vec<_> = claimed.iter().take(4).collect();
        for (chname, mkch) in &channels {
            for x in &members {
                for s in 0..3 {
                    let trace = run_family_member(
                        &**fam,
                        x,
                        mkch(),
                        Box::new(RandomScheduler::new(s, 0.4)),
                        500,
                    );
                    // Note: protocols on foreign channels may deadlock or
                    // stall — but writing a wrong item is never excused.
                    // The one exception we assert *for*: ABP and Stenning
                    // run on reordering channels can write garbage, which
                    // is exactly why the paper's setting needs new ideas —
                    // so they are exempted here and pinned in e7 instead.
                    let foreign_reordering = matches!(*chname, "dup" | "del")
                        && matches!(fam.name(), "abp" | "stenning");
                    if !foreign_reordering {
                        check_safety(&trace).unwrap_or_else(|e| {
                            panic!("{} on {chname} ({x}, seed {s}): {e}", fam.name())
                        });
                    }
                }
            }
        }
    }
}

#[test]
fn complete_runs_satisfy_the_formal_requirements() {
    let family = TightFamily::new(3, ResendPolicy::Once);
    for x in family.claimed_family().iter() {
        let trace = run_family_member(
            &family,
            x,
            Box::new(DupChannel::new()),
            Box::new(EagerScheduler::new()),
            5_000,
        );
        check_complete(&trace).unwrap();
    }
}
