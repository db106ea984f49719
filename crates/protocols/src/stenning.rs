//! Stenning's data-transfer protocol (\[Ste76\]) with a parametric
//! sequence-number modulus.
//!
//! Stenning's original protocol uses unbounded sequence numbers — which a
//! finite message alphabet forbids. Parameterizing the modulus `k` makes
//! the tension executable: with `k = 2` the protocol degenerates to ABP;
//! larger `k` tolerates more in-flight reordering on FIFO-ish links but
//! *no* finite `k` survives the paper's arbitrary-reorder channels, because
//! sequence numbers wrap and stale messages become indistinguishable from
//! fresh ones.
//!
//! Alphabets: `M^S = {0..k-1} × D` encoded as `seq·|D| + value` (size
//! `k·|D|`), `M^R = {0..k-1}` (size `k`).

use stp_core::alphabet::{Alphabet, RMsg, SMsg};
use stp_core::data::{DataItem, DataSeq};
use stp_core::proto::{
    InputTape, Msgs, Receiver, ReceiverEvent, ReceiverOutput, Sender, SenderEvent, SenderOutput,
};

fn encode(seq: u16, value: u16, d: u16) -> SMsg {
    SMsg(seq * d + value)
}

fn decode(msg: SMsg, d: u16) -> (u16, u16) {
    (msg.0 / d, msg.0 % d)
}

/// The Stenning sender (stop-and-wait variant, modular sequence numbers).
#[derive(Debug, Clone)]
pub struct StenningSender {
    tape: InputTape,
    domain: u16,
    modulus: u16,
    seq: u16,
    outstanding: Option<DataItem>,
    done: bool,
}

impl StenningSender {
    /// Creates a sender for `input` over a data domain of size `domain`
    /// with sequence numbers modulo `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 2`.
    pub fn new(input: DataSeq, domain: u16, modulus: u16) -> Self {
        assert!(modulus >= 2, "modulus must be at least 2");
        debug_assert!(input.items().iter().all(|d| d.0 < domain));
        StenningSender {
            tape: InputTape::new(input),
            domain,
            modulus,
            seq: 0,
            outstanding: None,
            done: false,
        }
    }

    /// The current sequence number.
    pub fn seq(&self) -> u16 {
        self.seq
    }

    fn advance(&mut self) -> SenderOutput {
        match self.tape.read() {
            Ok(item) => {
                self.outstanding = Some(item);
                SenderOutput::send_one(encode(self.seq, item.0, self.domain))
            }
            Err(_) => {
                self.outstanding = None;
                self.done = true;
                SenderOutput::idle()
            }
        }
    }

    fn retransmit(&self) -> SenderOutput {
        match self.outstanding {
            Some(item) => SenderOutput::send_one(encode(self.seq, item.0, self.domain)),
            None => SenderOutput::idle(),
        }
    }
}

impl Sender for StenningSender {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(self.modulus * self.domain)
    }

    fn on_event(&mut self, ev: SenderEvent) -> SenderOutput {
        match ev {
            SenderEvent::Init => self.advance(),
            SenderEvent::Tick => self.retransmit(),
            SenderEvent::Deliver(ack) => {
                if self.outstanding.is_some() && ack.0 == self.seq {
                    self.seq = (self.seq + 1) % self.modulus;
                    self.advance()
                } else {
                    self.retransmit()
                }
            }
        }
    }

    fn reads(&self) -> usize {
        self.tape.position()
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn scramble(&mut self, draw: u64) -> bool {
        let before = (self.seq, self.done);
        self.seq = (draw % u64::from(self.modulus)) as u16;
        self.done = false;
        before != (self.seq, self.done)
    }

    fn desync(&mut self, _draw: u64) -> bool {
        // A one-slot slip: retransmissions now carry a wrong sequence
        // number, and the awaited ack can never arrive.
        self.seq = (self.seq + 1) % self.modulus;
        true
    }

    fn reset(&mut self, input: &DataSeq) {
        self.tape.reset(input);
        self.seq = 0;
        self.outstanding = None;
        self.done = false;
    }

    fn box_clone(&self) -> Box<dyn Sender> {
        Box::new(self.clone())
    }
}

/// The Stenning receiver.
#[derive(Debug, Clone)]
pub struct StenningReceiver {
    domain: u16,
    modulus: u16,
    expected: u16,
    written: usize,
}

impl StenningReceiver {
    /// Creates a receiver over a data domain of size `domain` with
    /// sequence numbers modulo `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 2`.
    pub fn new(domain: u16, modulus: u16) -> Self {
        assert!(modulus >= 2, "modulus must be at least 2");
        StenningReceiver {
            domain,
            modulus,
            expected: 0,
            written: 0,
        }
    }

    /// The sequence number the receiver is waiting for.
    pub fn expected_seq(&self) -> u16 {
        self.expected
    }
}

impl Receiver for StenningReceiver {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(self.modulus)
    }

    fn on_event(&mut self, ev: ReceiverEvent) -> ReceiverOutput {
        match ev {
            ReceiverEvent::Init | ReceiverEvent::Tick => ReceiverOutput::idle(),
            ReceiverEvent::Deliver(msg) => {
                let (seq, value) = decode(msg, self.domain);
                if seq == self.expected {
                    self.expected = (self.expected + 1) % self.modulus;
                    self.written += 1;
                    ReceiverOutput {
                        send: Msgs::one(RMsg(seq)),
                        write: Msgs::one(DataItem(value)),
                    }
                } else if self.written > 0 {
                    // Re-acknowledge the last in-order item so lost acks get
                    // repaired.
                    let last = (self.expected + self.modulus - 1) % self.modulus;
                    ReceiverOutput::send_one(RMsg(last))
                } else {
                    ReceiverOutput::idle()
                }
            }
        }
    }

    fn scramble(&mut self, draw: u64) -> bool {
        let v = (draw % u64::from(self.modulus)) as u16;
        let changed = v != self.expected;
        self.expected = v;
        changed
    }

    fn desync(&mut self, _draw: u64) -> bool {
        self.expected = (self.expected + 1) % self.modulus;
        true
    }

    fn reset(&mut self) {
        self.expected = 0;
        self.written = 0;
    }

    fn box_clone(&self) -> Box<dyn Receiver> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(v: &[u16]) -> DataSeq {
        DataSeq::from_indices(v.iter().copied())
    }

    #[test]
    #[should_panic(expected = "modulus")]
    fn modulus_below_two_is_rejected() {
        let _ = StenningSender::new(seq(&[]), 2, 1);
    }

    #[test]
    fn sequence_numbers_wrap_at_modulus() {
        let mut s = StenningSender::new(seq(&[0, 0, 0, 0]), 1, 3);
        s.on_event(SenderEvent::Init);
        assert_eq!(s.seq(), 0);
        s.on_event(SenderEvent::Deliver(RMsg(0)));
        assert_eq!(s.seq(), 1);
        s.on_event(SenderEvent::Deliver(RMsg(1)));
        assert_eq!(s.seq(), 2);
        s.on_event(SenderEvent::Deliver(RMsg(2)));
        assert_eq!(s.seq(), 0, "wrapped");
    }

    #[test]
    fn receiver_acks_in_order_and_reacks_duplicates() {
        let mut r = StenningReceiver::new(2, 4);
        // Out-of-order first message with nothing written: silent.
        let out = r.on_event(ReceiverEvent::Deliver(encode(2, 0, 2)));
        assert_eq!(out, ReceiverOutput::idle());
        // In-order.
        let out = r.on_event(ReceiverEvent::Deliver(encode(0, 1, 2)));
        assert_eq!(out.write, vec![DataItem(1)]);
        assert_eq!(out.send, vec![RMsg(0)]);
        assert_eq!(r.expected_seq(), 1);
        // Stale duplicate: re-ack seq 0.
        let out = r.on_event(ReceiverEvent::Deliver(encode(0, 1, 2)));
        assert!(out.write.is_empty());
        assert_eq!(out.send, vec![RMsg(0)]);
    }

    #[test]
    fn transfers_any_sequence_over_a_cooperative_link() {
        let input = seq(&[1, 1, 0, 1, 0, 0, 1]);
        let mut s = StenningSender::new(input.clone(), 2, 4);
        let mut r = StenningReceiver::new(2, 4);
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
        assert_eq!(DataSeq::from(written), input);
    }

    #[test]
    fn alphabet_sizes_scale_with_modulus() {
        let s = StenningSender::new(seq(&[0]), 3, 8);
        assert_eq!(s.alphabet().size(), 24);
        let r = StenningReceiver::new(3, 8);
        assert_eq!(r.alphabet().size(), 8);
    }

    #[test]
    fn tick_retransmits() {
        let mut s = StenningSender::new(seq(&[1]), 2, 2);
        let m = s.on_event(SenderEvent::Init).send[0];
        assert_eq!(s.on_event(SenderEvent::Tick).send, vec![m]);
    }
}
