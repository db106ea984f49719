//! The paper's theorems, end to end: achievability sweeps meet the
//! impossibility engine, with capacity arithmetic as the referee.

use stp_channel::{ChannelSpec, DelChannel, DupChannel, SchedulerSpec};
use stp_core::alpha::alpha;
use stp_core::alphabet::Alphabet;
use stp_core::encoding::Encoding;
use stp_core::sequence::SequenceFamily;
use stp_protocols::{NaiveFamily, ProtocolFamily, ResendPolicy, TightFamily};
use stp_sim::{SweepEngine, SweepSpec};
use stp_verify::refute::{find_conflict_with_budget, find_indistinguishable_conflict};
use stp_verify::{encoding_capacity, exhaustive_prefix_closed_check, find_fair_cycle};

// --- Theorem 1 -----------------------------------------------------------

#[test]
fn theorem1_achievability_alpha_m_sequences_transmit() {
    for m in 1..=4u16 {
        let family = TightFamily::new(m, ResendPolicy::Once);
        assert_eq!(
            family.claimed_family().len() as u128,
            alpha(m as u32).unwrap()
        );
        let spec = SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
            .max_steps(20_000)
            .seeds([0, 1])
            .threads(1);
        let out = SweepEngine::new(spec).run(&family);
        assert!(out.all_complete(), "m={m}: {:?}", out.failures);
    }
}

#[test]
fn theorem1_impossibility_every_overcapacity_claim_fails() {
    for m in 1..=3u16 {
        let family = NaiveFamily::minimal_overcapacity(m, ResendPolicy::Once);
        assert!(family.claimed_family().len() as u128 > alpha(m as u32).unwrap());
        // Some member stalls under a fair adversary…
        let stalled = family
            .claimed_family()
            .iter()
            .any(|x| find_fair_cycle(&family, x, || Box::new(DupChannel::new()), 300).is_some());
        assert!(stalled, "m={m}");
        // …and the epistemic certificate exists.
        assert!(
            find_indistinguishable_conflict(&family, || Box::new(DupChannel::new()), 6, 200)
                .is_some(),
            "m={m}"
        );
    }
}

#[test]
fn theorem1_tightness_no_certificate_at_capacity() {
    for m in 1..=3u16 {
        let family = TightFamily::new(m, ResendPolicy::Once);
        assert!(
            find_indistinguishable_conflict(&family, || Box::new(DupChannel::new()), 5, 150)
                .is_none(),
            "m={m}"
        );
    }
}

// --- Theorem 2 -----------------------------------------------------------

#[test]
fn theorem2_achievability_bounded_del_protocol() {
    for m in 1..=3u16 {
        let family = TightFamily::new(m, ResendPolicy::EveryTick);
        let spec = SweepSpec::new(
            ChannelSpec::Del,
            SchedulerSpec::DropHeavy {
                p_drop: 0.3,
                p_deliver: 0.6,
            },
        )
        .max_steps(50_000)
        .seeds([0, 1, 2])
        .threads(1);
        let out = SweepEngine::new(spec).run(&family);
        assert!(out.all_complete(), "m={m}: {:?}", out.failures);
    }
}

#[test]
fn theorem2_impossibility_budget_escalation() {
    let family = NaiveFamily::resending(1, 2);
    for budget in [1u64, 3, 5, 7] {
        let cert = find_conflict_with_budget(
            &family,
            || Box::new(DelChannel::new()),
            6 + 2 * budget,
            0,
            budget,
        );
        let cert = cert.unwrap_or_else(|| panic!("budget {budget}: certificate expected"));
        assert!(cert.stockpile >= budget);
    }
}

#[test]
fn theorem2_tightness_del_protocol_survives_budgets() {
    let family = TightFamily::new(2, ResendPolicy::EveryTick);
    for budget in [2u64, 4] {
        assert!(
            find_conflict_with_budget(&family, || Box::new(DelChannel::new()), 8, 0, budget)
                .is_none(),
            "budget {budget}"
        );
    }
}

// --- the counting core ----------------------------------------------------

#[test]
fn capacity_counting_and_exhaustive_enumeration_agree() {
    for m in 0..=6u32 {
        assert_eq!(encoding_capacity(m).unwrap(), alpha(m).unwrap());
    }
    let r1 = exhaustive_prefix_closed_check(1, 2, 2);
    assert_eq!(r1.embeddable, 0);
    assert!(r1.control_embeddable > 0);
    let r2 = exhaustive_prefix_closed_check(2, 3, 3);
    assert_eq!(r2.embeddable, 0);
    assert!(r2.control_embeddable > 0);
}

#[test]
fn encodings_exist_exactly_up_to_capacity() {
    // The identity encoding realizes α(m) for the repetition-free family…
    for m in 1..=4u16 {
        let e = Encoding::identity(m, Alphabet::new(m)).unwrap();
        assert_eq!(e.len() as u128, alpha(m as u32).unwrap());
        e.validate(Alphabet::new(m)).unwrap();
    }
    // …and the tree embedding rejects any prefix-closed family beyond it.
    let too_big = SequenceFamily::all_up_to(2, 2); // 7 > α(2) = 5
    assert!(Encoding::tree_embedding(&too_big, Alphabet::new(2)).is_err());
}
