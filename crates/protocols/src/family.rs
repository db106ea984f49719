//! Protocol *families*: recipes that instantiate a sender/receiver pair for
//! a given input sequence.
//!
//! The paper's solutions are families `⋃_{X∈X}(P_{S,X}, P_R)` — possibly
//! non-uniform in the input — together with the set `X` of sequences they
//! claim to transmit. The simulator runs a family on each member of its
//! `X`; the verifier tries to *refute* a family by exhibiting runs on two
//! members that the receiver cannot tell apart.

use crate::abp::{AbpReceiver, AbpSender};
use crate::hybrid::{HybridReceiver, HybridSender};
use crate::naive::NaiveSender;
use crate::stabilizing::{StabilizingReceiver, StabilizingSender};
use crate::stenning::{StenningReceiver, StenningSender};
use crate::tight::{ResendPolicy, TightReceiver, TightSender};
use std::fmt;
use stp_core::data::DataSeq;
use stp_core::proto::{Receiver, Sender};
use stp_core::sequence::SequenceFamily;

/// A family of protocols plus the sequence family it claims to solve.
///
/// `Sync` is a supertrait so a sweep can share one family across its
/// worker threads; every family is plain data, so this costs nothing.
pub trait ProtocolFamily: fmt::Debug + Sync {
    /// Human-readable name for experiment tables.
    fn name(&self) -> &'static str;

    /// The set `X` of input sequences the family claims to transmit.
    fn claimed_family(&self) -> SequenceFamily;

    /// `|X|`, the size of [`claimed_family`](Self::claimed_family). The
    /// default builds the family to count it; a family whose size has a
    /// closed form overrides this.
    fn claimed_len(&self) -> usize {
        self.claimed_family().len()
    }

    /// Size of the sender's message alphabet `m = |M^S|`.
    fn sender_alphabet_size(&self) -> u16;

    /// Instantiates the sender for input `x`.
    fn sender_for(&self, x: &DataSeq) -> Box<dyn Sender>;

    /// Instantiates the receiver (the same `P_R` for every input).
    fn receiver(&self) -> Box<dyn Receiver>;
}

/// The paper's tight protocol over the repetition-free family: the
/// achievability half of Theorems 1 and 2 (`|X| = α(m)`).
#[derive(Debug, Clone)]
pub struct TightFamily {
    /// Domain (= alphabet) size.
    pub d: u16,
    /// Retransmission policy ([`ResendPolicy::Once`] for dup channels,
    /// [`ResendPolicy::EveryTick`] for del channels).
    pub policy: ResendPolicy,
}

impl TightFamily {
    /// Creates the family for domain size `d`.
    pub fn new(d: u16, policy: ResendPolicy) -> Self {
        TightFamily { d, policy }
    }
}

impl ProtocolFamily for TightFamily {
    fn name(&self) -> &'static str {
        match self.policy {
            ResendPolicy::Once => "tight-dup",
            ResendPolicy::EveryTick => "tight-del",
        }
    }

    fn claimed_family(&self) -> SequenceFamily {
        SequenceFamily::repetition_free(self.d)
    }

    /// `α(d)`, without enumerating the sequences.
    ///
    /// # Panics
    ///
    /// Panics if `α(d)` does not fit in `usize` (`d > 20` on 64-bit
    /// targets).
    fn claimed_len(&self) -> usize {
        stp_core::alpha::alpha(self.d as u32)
            .ok()
            .and_then(|a| usize::try_from(a).ok())
            .unwrap_or_else(|| panic!("α({}) sequences do not fit in usize", self.d))
    }

    fn sender_alphabet_size(&self) -> u16 {
        self.d
    }

    fn sender_for(&self, x: &DataSeq) -> Box<dyn Sender> {
        Box::new(TightSender::new(x.clone(), self.d, self.policy))
    }

    fn receiver(&self) -> Box<dyn Receiver> {
        Box::new(TightReceiver::new(self.d, self.policy))
    }
}

/// The over-capacity family the impossibility engine refutes: the tight
/// machinery applied to **all** sequences over the domain up to a length
/// bound — strictly more than `α(d)` of them once `max_len ≥ 2`.
#[derive(Debug, Clone)]
pub struct NaiveFamily {
    /// Domain (= alphabet) size.
    pub d: u16,
    /// Maximum claimed sequence length.
    pub max_len: usize,
    /// Retransmission policy ([`ResendPolicy::Once`] for dup channels,
    /// [`ResendPolicy::EveryTick`] for del channels).
    pub policy: ResendPolicy,
}

impl NaiveFamily {
    /// Creates the dup-channel family for domain size `d` and length bound
    /// `max_len`.
    pub fn new(d: u16, max_len: usize) -> Self {
        NaiveFamily {
            d,
            max_len,
            policy: ResendPolicy::Once,
        }
    }

    /// The retransmitting (del-channel) variant.
    pub fn resending(d: u16, max_len: usize) -> Self {
        NaiveFamily {
            d,
            max_len,
            policy: ResendPolicy::EveryTick,
        }
    }

    /// The *minimal* over-capacity family: all sequences over `d` items up
    /// to the smallest length whose count exceeds `α(d)` — the smallest
    /// claim Theorem 1 already forbids.
    ///
    /// # Panics
    ///
    /// Panics if `α(d)` overflows `u128` (`d > 33`).
    pub fn minimal_overcapacity(d: u16, policy: ResendPolicy) -> Self {
        let capacity = stp_core::alpha::alpha(d as u32).expect("small d");
        let mut max_len = 1usize;
        loop {
            let size = stp_core::sequence::SequenceFamily::all_up_to(d, max_len).len();
            if size as u128 > capacity {
                break;
            }
            max_len += 1;
        }
        NaiveFamily { d, max_len, policy }
    }
}

impl ProtocolFamily for NaiveFamily {
    fn name(&self) -> &'static str {
        match self.policy {
            ResendPolicy::Once => "naive-overcapacity",
            ResendPolicy::EveryTick => "naive-overcapacity-del",
        }
    }

    fn claimed_family(&self) -> SequenceFamily {
        SequenceFamily::all_up_to(self.d, self.max_len)
    }

    fn sender_alphabet_size(&self) -> u16 {
        self.d
    }

    fn sender_for(&self, x: &DataSeq) -> Box<dyn Sender> {
        Box::new(NaiveSender::new(x.clone(), self.d, self.policy))
    }

    fn receiver(&self) -> Box<dyn Receiver> {
        Box::new(TightReceiver::new(self.d, self.policy))
    }
}

/// The Alternating Bit protocol as a family over all bounded-length
/// sequences (its natural claim on a lossy FIFO link).
#[derive(Debug, Clone)]
pub struct AbpFamily {
    /// Data domain size.
    pub domain: u16,
    /// Maximum claimed sequence length.
    pub max_len: usize,
}

impl AbpFamily {
    /// Creates the family.
    pub fn new(domain: u16, max_len: usize) -> Self {
        AbpFamily { domain, max_len }
    }
}

impl ProtocolFamily for AbpFamily {
    fn name(&self) -> &'static str {
        "abp"
    }

    fn claimed_family(&self) -> SequenceFamily {
        SequenceFamily::all_up_to(self.domain, self.max_len)
    }

    fn sender_alphabet_size(&self) -> u16 {
        2 * self.domain
    }

    fn sender_for(&self, x: &DataSeq) -> Box<dyn Sender> {
        Box::new(AbpSender::new(x.clone(), self.domain))
    }

    fn receiver(&self) -> Box<dyn Receiver> {
        Box::new(AbpReceiver::new(self.domain))
    }
}

/// Stenning's protocol as a family (modular sequence numbers).
#[derive(Debug, Clone)]
pub struct StenningFamily {
    /// Data domain size.
    pub domain: u16,
    /// Sequence-number modulus.
    pub modulus: u16,
    /// Maximum claimed sequence length.
    pub max_len: usize,
}

impl StenningFamily {
    /// Creates the family.
    pub fn new(domain: u16, modulus: u16, max_len: usize) -> Self {
        StenningFamily {
            domain,
            modulus,
            max_len,
        }
    }
}

impl ProtocolFamily for StenningFamily {
    fn name(&self) -> &'static str {
        "stenning"
    }

    fn claimed_family(&self) -> SequenceFamily {
        SequenceFamily::all_up_to(self.domain, self.max_len)
    }

    fn sender_alphabet_size(&self) -> u16 {
        self.modulus * self.domain
    }

    fn sender_for(&self, x: &DataSeq) -> Box<dyn Sender> {
        Box::new(StenningSender::new(x.clone(), self.domain, self.modulus))
    }

    fn receiver(&self) -> Box<dyn Receiver> {
        Box::new(StenningReceiver::new(self.domain, self.modulus))
    }
}

/// The self-stabilizing variant as a family over all bounded-length
/// sequences: unlike every other family here it additionally tolerates
/// arbitrary transient state corruption, reconverging to an exact suffix
/// of the input within a bounded number of steps (experiment E12
/// measures the bound; `stp-verify` certifies it).
#[derive(Debug, Clone)]
pub struct StabilizingFamily {
    /// Data domain size.
    pub d: u16,
    /// Maximum claimed sequence length (also sizes the frame-index space
    /// and the reserved RESET message).
    pub max_len: u16,
}

impl StabilizingFamily {
    /// Creates the family.
    pub fn new(d: u16, max_len: u16) -> Self {
        StabilizingFamily { d, max_len }
    }
}

impl ProtocolFamily for StabilizingFamily {
    fn name(&self) -> &'static str {
        "stabilizing"
    }

    fn claimed_family(&self) -> SequenceFamily {
        SequenceFamily::all_up_to(self.d, self.max_len as usize)
    }

    fn sender_alphabet_size(&self) -> u16 {
        self.max_len * self.d + 1
    }

    fn sender_for(&self, x: &DataSeq) -> Box<dyn Sender> {
        Box::new(StabilizingSender::new(x.clone(), self.d, self.max_len))
    }

    fn receiver(&self) -> Box<dyn Receiver> {
        Box::new(StabilizingReceiver::new(self.d, self.max_len))
    }
}

/// The Section-5 hybrid as a family over a timed channel.
#[derive(Debug, Clone)]
pub struct HybridFamily {
    /// Data domain size.
    pub domain: u16,
    /// The timed channel's delivery deadline in ticks.
    pub deadline: u32,
    /// Maximum claimed sequence length.
    pub max_len: usize,
}

impl HybridFamily {
    /// Creates the family.
    pub fn new(domain: u16, deadline: u32, max_len: usize) -> Self {
        HybridFamily {
            domain,
            deadline,
            max_len,
        }
    }
}

impl ProtocolFamily for HybridFamily {
    fn name(&self) -> &'static str {
        "hybrid-weakly-bounded"
    }

    fn claimed_family(&self) -> SequenceFamily {
        SequenceFamily::all_up_to(self.domain, self.max_len)
    }

    fn sender_alphabet_size(&self) -> u16 {
        4 * self.domain + 3
    }

    fn sender_for(&self, x: &DataSeq) -> Box<dyn Sender> {
        Box::new(HybridSender::new(x.clone(), self.domain, self.deadline))
    }

    fn receiver(&self) -> Box<dyn Receiver> {
        Box::new(HybridReceiver::new(self.domain))
    }
}

/// A serializable recipe for the two families the conformance grid and the
/// certificate checker must be able to rebuild from a JSON witness: the
/// paper's tight protocol at capacity, and the over-capacity naive variant
/// the impossibility engine refutes.
///
/// Certificates carry a `FamilySpec` instead of a protocol name so the
/// independent checker can re-instantiate the *exact* sender/receiver pair
/// the search ran, without trusting anything beyond the spec itself.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FamilySpec {
    /// [`TightFamily`] — `|X| = α(d)` repetition-free sequences.
    Tight {
        /// Domain (= alphabet) size.
        d: u16,
        /// Retransmission policy.
        policy: ResendPolicy,
    },
    /// [`NaiveFamily`] — all sequences up to `max_len`, over capacity once
    /// `max_len ≥ 2`.
    Naive {
        /// Domain (= alphabet) size.
        d: u16,
        /// Maximum claimed sequence length.
        max_len: usize,
        /// Retransmission policy.
        policy: ResendPolicy,
    },
    /// [`AbpFamily`] — the Alternating Bit protocol over all bounded-length
    /// sequences, its natural claim on a lossy FIFO link.
    Abp {
        /// Data domain size.
        domain: u16,
        /// Maximum claimed sequence length.
        max_len: usize,
    },
    /// [`StabilizingFamily`] — the self-stabilizing variant, the family
    /// stabilization certificates are issued against.
    Stabilizing {
        /// Domain (= alphabet) size.
        d: u16,
        /// Maximum claimed sequence length.
        max_len: u16,
    },
}

impl FamilySpec {
    /// Instantiates the family the spec describes.
    pub fn build(&self) -> Box<dyn ProtocolFamily> {
        match *self {
            FamilySpec::Tight { d, policy } => Box::new(TightFamily::new(d, policy)),
            FamilySpec::Naive { d, max_len, policy } => {
                Box::new(NaiveFamily { d, max_len, policy })
            }
            FamilySpec::Abp { domain, max_len } => Box::new(AbpFamily::new(domain, max_len)),
            FamilySpec::Stabilizing { d, max_len } => Box::new(StabilizingFamily::new(d, max_len)),
        }
    }

    /// Sender alphabet size `m` of the described family.
    pub fn m(&self) -> u16 {
        match *self {
            FamilySpec::Tight { d, .. } | FamilySpec::Naive { d, .. } => d,
            FamilySpec::Abp { domain, .. } => 2 * domain,
            FamilySpec::Stabilizing { d, max_len } => max_len * d + 1,
        }
    }
}

impl fmt::Display for FamilySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilySpec::Tight { d, policy } => write!(f, "tight(d={d}, {policy:?})"),
            FamilySpec::Naive { d, max_len, policy } => {
                write!(f, "naive(d={d}, max_len={max_len}, {policy:?})")
            }
            FamilySpec::Abp { domain, max_len } => {
                write!(f, "abp(domain={domain}, max_len={max_len})")
            }
            FamilySpec::Stabilizing { d, max_len } => {
                write!(f, "stabilizing(d={d}, max_len={max_len})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_core::alpha::alpha;

    #[test]
    fn tight_family_claims_exactly_alpha_sequences() {
        for d in 0u16..=5 {
            let f = TightFamily::new(d, ResendPolicy::Once);
            assert_eq!(
                f.claimed_family().len() as u128,
                alpha(d as u32).unwrap(),
                "d={d}"
            );
            assert_eq!(f.sender_alphabet_size(), d);
        }
    }

    #[test]
    fn claimed_len_counts_the_claimed_family() {
        let mut specs: Vec<FamilySpec> = (0u16..=5)
            .flat_map(|d| {
                [ResendPolicy::Once, ResendPolicy::EveryTick]
                    .map(|policy| FamilySpec::Tight { d, policy })
            })
            .collect();
        specs.extend([
            FamilySpec::Naive {
                d: 2,
                max_len: 3,
                policy: ResendPolicy::Once,
            },
            FamilySpec::Abp {
                domain: 2,
                max_len: 3,
            },
            FamilySpec::Stabilizing { d: 2, max_len: 3 },
        ]);
        for spec in &specs {
            let f = spec.build();
            assert_eq!(f.claimed_len(), f.claimed_family().len(), "{spec}");
        }
    }

    #[test]
    #[should_panic(expected = "α(21) sequences do not fit in usize")]
    fn tight_claimed_len_names_an_overflowing_alpha() {
        // α(21) ≈ 1.4·10²⁰ exceeds u64::MAX.
        TightFamily::new(21, ResendPolicy::Once).claimed_len();
    }

    #[test]
    fn naive_family_exceeds_alpha() {
        let f = NaiveFamily::new(2, 2);
        assert!(f.claimed_family().len() as u128 > alpha(2).unwrap());
    }

    #[test]
    fn families_instantiate_working_pairs() {
        use stp_core::proto::{ReceiverEvent, SenderEvent};
        let fams: Vec<Box<dyn ProtocolFamily>> = vec![
            Box::new(TightFamily::new(3, ResendPolicy::Once)),
            Box::new(TightFamily::new(3, ResendPolicy::EveryTick)),
            Box::new(NaiveFamily::new(3, 2)),
            Box::new(AbpFamily::new(3, 4)),
            Box::new(StenningFamily::new(3, 4, 4)),
            Box::new(HybridFamily::new(3, 2, 4)),
            Box::new(StabilizingFamily::new(3, 4)),
        ];
        for f in &fams {
            let x = f
                .claimed_family()
                .iter()
                .find(|s| s.len() == 1)
                .cloned()
                .expect("every family claims some singleton sequence");
            let mut s = f.sender_for(&x);
            let mut r = f.receiver();
            let out = s.on_event(SenderEvent::Init);
            assert!(
                !out.send.is_empty(),
                "{} should transmit something for {x}",
                f.name()
            );
            let rout = r.on_event(ReceiverEvent::Deliver(out.send[0]));
            assert_eq!(
                rout.write.len(),
                1,
                "{} receiver should write the first item",
                f.name()
            );
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(TightFamily::new(2, ResendPolicy::Once).name(), "tight-dup");
        assert_eq!(
            TightFamily::new(2, ResendPolicy::EveryTick).name(),
            "tight-del"
        );
        assert_eq!(NaiveFamily::new(2, 2).name(), "naive-overcapacity");
        assert_eq!(AbpFamily::new(2, 2).name(), "abp");
        assert_eq!(StenningFamily::new(2, 2, 2).name(), "stenning");
        assert_eq!(HybridFamily::new(2, 2, 2).name(), "hybrid-weakly-bounded");
        assert_eq!(StabilizingFamily::new(2, 4).name(), "stabilizing");
    }

    #[test]
    fn abp_spec_round_trips_and_builds() {
        let spec = FamilySpec::Abp {
            domain: 3,
            max_len: 4,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: FamilySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        let fam = spec.build();
        assert_eq!(fam.name(), "abp");
        assert_eq!(fam.sender_alphabet_size(), 6);
        assert_eq!(spec.m(), 6);
        assert_eq!(spec.to_string(), "abp(domain=3, max_len=4)");
    }

    #[test]
    fn reset_machines_match_a_fresh_build() {
        use stp_core::proto::{ReceiverEvent, SenderEvent};
        let specs = [
            FamilySpec::Abp {
                domain: 3,
                max_len: 4,
            },
            FamilySpec::Tight {
                d: 3,
                policy: ResendPolicy::Once,
            },
            FamilySpec::Stabilizing { d: 3, max_len: 4 },
        ];
        let x = DataSeq::from_indices([1, 2]);
        let y = DataSeq::from_indices([2, 0, 1]);
        for spec in specs {
            let family = spec.build();
            let (mut sender, mut receiver) = (family.sender_for(&x), family.receiver());
            sender.on_event(SenderEvent::Init);
            receiver.on_event(ReceiverEvent::Init);
            // Reset in place onto another input: bit-identical to
            // machines freshly built for it.
            sender.reset(&y);
            receiver.reset();
            let fresh = family.sender_for(&y);
            assert_eq!(sender.fingerprint(), fresh.fingerprint(), "{spec}");
            assert_eq!(sender.alphabet(), fresh.alphabet(), "{spec}");
            assert_eq!(
                receiver.fingerprint(),
                family.receiver().fingerprint(),
                "{spec}"
            );
        }
    }

    #[test]
    fn stabilizing_spec_round_trips_and_builds() {
        let spec = FamilySpec::Stabilizing { d: 3, max_len: 5 };
        let json = serde_json::to_string(&spec).unwrap();
        let back: FamilySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        let fam = spec.build();
        assert_eq!(fam.name(), "stabilizing");
        assert_eq!(fam.sender_alphabet_size(), 16);
        assert_eq!(spec.m(), 16);
        assert_eq!(spec.to_string(), "stabilizing(d=3, max_len=5)");
    }
}
