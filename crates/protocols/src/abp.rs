//! The Alternating Bit protocol (\[BSW69\]) — the classical data-link
//! baseline the paper's introduction situates itself against.
//!
//! ABP assumes an order-preserving (FIFO) link that may lose messages. The
//! sender tags each item with a single alternating bit and retransmits
//! until the matching acknowledgement arrives; the receiver writes items
//! whose bit matches its expectation and (re-)acknowledges everything it
//! receives. Over *reordering* channels ABP is unsound — stale messages
//! with the right bit can masquerade as fresh ones — which experiment E7
//! demonstrates and which is exactly why the paper's channels need a
//! different idea.
//!
//! Alphabets: `M^S = D × {0,1}` encoded as `bit·|D| + value` (size `2|D|`),
//! `M^R = {ack0, ack1}` (size 2).

use stp_core::alphabet::{Alphabet, RMsg, SMsg};
use stp_core::data::{DataItem, DataSeq};
use stp_core::proto::{
    InputTape, Msgs, Receiver, ReceiverEvent, ReceiverOutput, Sender, SenderEvent, SenderOutput,
};

/// Encodes `(bit, value)` into the composite sender alphabet.
fn encode(bit: u8, value: u16, d: u16) -> SMsg {
    SMsg(bit as u16 * d + value)
}

/// Decodes a composite sender message into `(bit, value)`.
fn decode(msg: SMsg, d: u16) -> (u8, u16) {
    ((msg.0 / d) as u8, msg.0 % d)
}

/// The ABP sender.
#[derive(Debug, Clone)]
pub struct AbpSender {
    tape: InputTape,
    domain: u16,
    bit: u8,
    outstanding: Option<DataItem>,
    done: bool,
}

impl AbpSender {
    /// Creates a sender for `input` over a data domain of size `domain`.
    pub fn new(input: DataSeq, domain: u16) -> Self {
        debug_assert!(
            input.items().iter().all(|d| d.0 < domain),
            "items must fit the domain"
        );
        AbpSender {
            tape: InputTape::new(input),
            domain,
            bit: 0,
            outstanding: None,
            done: false,
        }
    }

    /// The current alternating bit.
    pub fn bit(&self) -> u8 {
        self.bit
    }

    fn advance(&mut self) -> SenderOutput {
        match self.tape.read() {
            Ok(item) => {
                self.outstanding = Some(item);
                SenderOutput::send_one(encode(self.bit, item.0, self.domain))
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
            Some(item) => SenderOutput::send_one(encode(self.bit, item.0, self.domain)),
            None => SenderOutput::idle(),
        }
    }
}

impl Sender for AbpSender {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(2 * self.domain)
    }

    fn on_event(&mut self, ev: SenderEvent) -> SenderOutput {
        match ev {
            SenderEvent::Init => self.advance(),
            SenderEvent::Tick => self.retransmit(),
            SenderEvent::Deliver(ack) => {
                if self.outstanding.is_some() && ack.0 == self.bit as u16 {
                    self.bit ^= 1;
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
        let before = (self.bit, self.done);
        self.bit = (draw & 1) as u8;
        self.done = false;
        before != (self.bit, self.done)
    }

    fn desync(&mut self, _draw: u64) -> bool {
        // The alternation bit is ABP's entire sequencing state; flipping
        // it makes every retransmission carry the wrong tag.
        self.bit ^= 1;
        true
    }

    fn reset(&mut self, input: &DataSeq) {
        self.tape.reset(input);
        self.bit = 0;
        self.outstanding = None;
        self.done = false;
    }

    fn box_clone(&self) -> Box<dyn Sender> {
        Box::new(self.clone())
    }
}

/// The ABP receiver.
#[derive(Debug, Clone)]
pub struct AbpReceiver {
    domain: u16,
    expected: u8,
    written: usize,
}

impl AbpReceiver {
    /// Creates a receiver over a data domain of size `domain`.
    pub fn new(domain: u16) -> Self {
        AbpReceiver {
            domain,
            expected: 0,
            written: 0,
        }
    }

    /// The bit the receiver is waiting for.
    pub fn expected_bit(&self) -> u8 {
        self.expected
    }
}

impl Receiver for AbpReceiver {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(2)
    }

    fn on_event(&mut self, ev: ReceiverEvent) -> ReceiverOutput {
        match ev {
            ReceiverEvent::Init | ReceiverEvent::Tick => ReceiverOutput::idle(),
            ReceiverEvent::Deliver(msg) => {
                let (bit, value) = decode(msg, self.domain);
                if bit == self.expected {
                    self.expected ^= 1;
                    let pos = self.written;
                    self.written += 1;
                    let _ = pos;
                    ReceiverOutput {
                        send: Msgs::one(RMsg(bit as u16)),
                        write: Msgs::one(DataItem(value)),
                    }
                } else {
                    // Duplicate of the previous item: re-acknowledge it so a
                    // lost ack gets repaired.
                    ReceiverOutput::send_one(RMsg(bit as u16))
                }
            }
        }
    }

    fn scramble(&mut self, draw: u64) -> bool {
        let b = (draw & 1) as u8;
        let changed = b != self.expected;
        self.expected = b;
        changed
    }

    fn desync(&mut self, _draw: u64) -> bool {
        // An expectation flip re-accepts the previous item (a duplicate
        // write, breaking safety) or rejects the next one (a stall).
        self.expected ^= 1;
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
    fn encode_decode_round_trip() {
        for d in 1u16..=5 {
            for bit in 0u8..=1 {
                for v in 0..d {
                    assert_eq!(decode(encode(bit, v, d), d), (bit, v));
                }
            }
        }
    }

    #[test]
    fn sender_alternates_bits() {
        let mut s = AbpSender::new(seq(&[3, 3]), 4);
        let first = s.on_event(SenderEvent::Init).send[0];
        assert_eq!(decode(first, 4), (0, 3));
        assert_eq!(s.bit(), 0);
        let second = s.on_event(SenderEvent::Deliver(RMsg(0))).send[0];
        assert_eq!(decode(second, 4), (1, 3));
        assert_eq!(s.bit(), 1);
        s.on_event(SenderEvent::Deliver(RMsg(1)));
        assert!(s.is_done());
    }

    #[test]
    fn sender_retransmits_on_tick_and_stale_ack() {
        let mut s = AbpSender::new(seq(&[2]), 4);
        let m = s.on_event(SenderEvent::Init).send[0];
        assert_eq!(s.on_event(SenderEvent::Tick).send, vec![m]);
        assert_eq!(s.on_event(SenderEvent::Deliver(RMsg(1))).send, vec![m]);
        assert!(!s.is_done());
    }

    #[test]
    fn receiver_accepts_expected_bit_only() {
        let mut r = AbpReceiver::new(4);
        // bit 1 while expecting 0 → re-ack, no write.
        let out = r.on_event(ReceiverEvent::Deliver(encode(1, 2, 4)));
        assert!(out.write.is_empty());
        assert_eq!(out.send, vec![RMsg(1)]);
        assert_eq!(r.expected_bit(), 0);
        // bit 0 → write.
        let out = r.on_event(ReceiverEvent::Deliver(encode(0, 2, 4)));
        assert_eq!(out.write, vec![DataItem(2)]);
        assert_eq!(out.send, vec![RMsg(0)]);
        assert_eq!(r.expected_bit(), 1);
        // Duplicate of bit 0 → re-ack only.
        let out = r.on_event(ReceiverEvent::Deliver(encode(0, 2, 4)));
        assert!(out.write.is_empty());
        assert_eq!(out.send, vec![RMsg(0)]);
    }

    #[test]
    fn abp_transfers_repetitive_sequences() {
        // ABP has no trouble with repetitions — its limits are about
        // reordering, not about which sequences exist.
        let input = seq(&[1, 1, 1, 0, 0]);
        let mut s = AbpSender::new(input.clone(), 2);
        let mut r = AbpReceiver::new(2);
        let mut written = Vec::new();
        let mut pending = s.on_event(SenderEvent::Init).send.to_vec();
        for _ in 0..40 {
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
    fn alphabet_sizes() {
        let s = AbpSender::new(seq(&[0]), 5);
        assert_eq!(s.alphabet().size(), 10);
        let r = AbpReceiver::new(5);
        assert_eq!(r.alphabet().size(), 2);
    }

    #[test]
    fn empty_input_finishes_immediately() {
        let mut s = AbpSender::new(seq(&[]), 2);
        assert_eq!(s.on_event(SenderEvent::Init), SenderOutput::idle());
        assert!(s.is_done());
    }
}
