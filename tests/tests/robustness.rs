//! Robustness: adaptive adversaries, random fault positions, replay, and
//! serialization round-trips.

use proptest::prelude::*;
use stp_channel::{
    CampaignScheduler, ChannelSpec, DelChannel, EagerScheduler, SchedulerSpec, TargetedScheduler,
    TimedChannel,
};
use stp_core::data::DataSeq;
use stp_core::event::Trace;
use stp_core::require::check_safety;
use stp_protocols::{
    HybridReceiver, HybridSender, ProbabilisticFamily, ResendPolicy, TightReceiver, TightSender,
};
use stp_sim::{burst_plan, replay, SweepEngine, SweepSpec, World};

fn seq(v: &[u16]) -> DataSeq {
    DataSeq::from_indices(v.iter().copied())
}

#[test]
fn tight_del_survives_the_targeted_adversary() {
    // The adaptive adversary deletes the newest in-flight message with
    // probability 0.5 — aimed squarely at the protocol's outstanding item.
    // Retransmission still wins.
    let input = seq(&[0, 3, 1, 2]);
    for s in 0..10 {
        let mut w = World::builder(input.clone())
            .sender(Box::new(TightSender::new(
                input.clone(),
                4,
                ResendPolicy::EveryTick,
            )))
            .receiver(Box::new(TightReceiver::new(4, ResendPolicy::EveryTick)))
            .channel(Box::new(DelChannel::new()))
            .scheduler(Box::new(TargetedScheduler::new(s, 0.5, 0.6)))
            .build()
            .expect("all components supplied");
        let t = w.run_to_completion(100_000).unwrap();
        assert_eq!(t.output(), input, "seed {s}");
    }
}

#[test]
fn parallel_sweep_handles_probabilistic_families() {
    // The probabilistic family is Sync; a collision-free seed sweeps clean
    // in parallel.
    let family = (0..200)
        .map(|s| ProbabilisticFamily::new(2, 2, 6, s))
        .find(|f| f.colliding_members() == 0)
        .expect("collision-free seed exists");
    let spec = SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
        .max_steps(5_000)
        .seeds([0, 1])
        .threads(4);
    let out = SweepEngine::new(spec).run(&family);
    assert!(out.all_complete(), "{:?}", out.failures);
}

#[test]
fn hybrid_completes_for_every_fault_step() {
    // Sweep the single fault across the whole timeline; every position
    // recovers and delivers the full input.
    let input = seq(&[1, 0, 0, 1, 1]);
    for fault_at in 0..30 {
        let mut w = World::builder(input.clone())
            .sender(Box::new(HybridSender::new(input.clone(), 2, 3)))
            .receiver(Box::new(HybridReceiver::new(2)))
            .channel(Box::new(TimedChannel::new(3)))
            .scheduler(Box::new(CampaignScheduler::new(
                Box::new(EagerScheduler::new()),
                burst_plan(fault_at, 1),
            )))
            .build()
            .expect("all components supplied");
        let t = w
            .run_to_completion(10_000)
            .unwrap_or_else(|e| panic!("fault at {fault_at}: {e}"));
        assert_eq!(t.output(), input, "fault at {fault_at}");
    }
}

#[test]
fn traces_round_trip_through_serde_json() {
    let input = seq(&[2, 0, 1]);
    let mut w = World::tight_del(input, 3);
    w.run_until(10_000, World::is_complete);
    let trace = w.into_trace();
    let json = serde_json::to_string(&trace).expect("serialize");
    let back: Trace = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(trace, back);
}

#[test]
fn replayed_faulty_runs_are_bit_identical_across_channel_types() {
    let input = seq(&[1, 2, 0]);
    let mk_sender = || Box::new(TightSender::new(input.clone(), 3, ResendPolicy::EveryTick));
    let mk_receiver = || Box::new(TightReceiver::new(3, ResendPolicy::EveryTick));
    let mut w = World::builder(input.clone())
        .sender(mk_sender())
        .receiver(mk_receiver())
        .channel(Box::new(DelChannel::new()))
        .scheduler(Box::new(CampaignScheduler::new(
            Box::new(EagerScheduler::new()),
            burst_plan(3, 2),
        )))
        .build()
        .expect("all components supplied");
    w.run_until(10_000, World::is_complete);
    let original = w.into_trace();
    let replayed = replay(
        &original,
        mk_sender(),
        mk_receiver(),
        Box::new(DelChannel::new()),
    );
    assert_eq!(original, replayed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The hybrid stays safe (never writes a wrong item) under arbitrary
    /// fault timing and input content.
    #[test]
    fn prop_hybrid_safety_under_random_faults(
        bits in proptest::collection::vec(0u16..2, 0..10),
        fault_at in 0u64..60,
    ) {
        let input = DataSeq::from_indices(bits);
        let mut w = World::builder(input.clone())
            .sender(Box::new(HybridSender::new(input.clone(), 2, 3)))
            .receiver(Box::new(HybridReceiver::new(2)))
            .channel(Box::new(TimedChannel::new(3)))
            .scheduler(Box::new(CampaignScheduler::new(Box::new(EagerScheduler::new()), burst_plan(fault_at, 1))))
            .build()
            .expect("all components supplied");
        w.run(600);
        prop_assert!(check_safety(w.trace()).is_ok());
        prop_assert!(w.trace().output().is_prefix_of(&input));
    }

    /// …and with enough steps it also completes (single-fault liveness).
    #[test]
    fn prop_hybrid_liveness_under_random_faults(
        bits in proptest::collection::vec(0u16..2, 1..8),
        fault_at in 0u64..40,
    ) {
        let input = DataSeq::from_indices(bits);
        let mut w = World::builder(input.clone())
            .sender(Box::new(HybridSender::new(input.clone(), 2, 3)))
            .receiver(Box::new(HybridReceiver::new(2)))
            .channel(Box::new(TimedChannel::new(3)))
            .scheduler(Box::new(CampaignScheduler::new(Box::new(EagerScheduler::new()), burst_plan(fault_at, 1))))
            .build()
            .expect("all components supplied");
        let done = w.run_until(5_000, World::is_complete);
        prop_assert!(done, "fault at {fault_at} on {input}");
        prop_assert_eq!(w.trace().output(), input);
    }

    /// The targeted adversary can never break safety, at any aggression.
    #[test]
    fn prop_targeted_adversary_is_safety_harmless(
        x in proptest::sample::subsequence(vec![0u16, 1, 2, 3], 0..=4).prop_shuffle(),
        seed in 0u64..500,
        p in 0.0f64..1.0,
    ) {
        let input = DataSeq::from_indices(x);
        let mut w = World::builder(input.clone())
            .sender(Box::new(TightSender::new(input.clone(), 4, ResendPolicy::EveryTick)))
            .receiver(Box::new(TightReceiver::new(4, ResendPolicy::EveryTick)))
            .channel(Box::new(DelChannel::new()))
            .scheduler(Box::new(TargetedScheduler::new(seed, p, 0.5)))
            .build()
            .expect("all components supplied");
        w.run(400);
        prop_assert!(check_safety(w.trace()).is_ok());
    }
}
