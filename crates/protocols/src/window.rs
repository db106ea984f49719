//! Go-back-N: the windowed data-link baseline.
//!
//! The stop-and-wait protocols (\[BSW69\]'s alternating bit, \[Ste76\]'s
//! Stenning) keep one frame in flight; the windowed refinement keeps up to
//! `w` frames outstanding with modular sequence numbers and *cumulative*
//! acknowledgements, going back to the window base on a gap. It assumes an
//! order-preserving link, like its stop-and-wait relatives — and like
//! them, it is exactly the kind of protocol the paper's reordering
//! channels break, because a finite sequence-number space wraps.
//!
//! Alphabets: `M^S = {0..k-1} × D` (`seq·|D| + value`, size `k·|D|`),
//! `M^R = {0..k-1}` (cumulative ack of the last in-order frame).
//! Correctness over FIFO links requires `w ≤ k − 1`.

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

/// The go-back-N sender.
#[derive(Debug, Clone)]
pub struct GoBackNSender {
    tape: InputTape,
    domain: u16,
    modulus: u16,
    window: u16,
    /// Absolute index of the oldest unacknowledged item.
    base: usize,
    /// Items currently buffered for (re)transmission: `pending[j]` is the
    /// item at absolute index `base + j`.
    pending: Vec<DataItem>,
    /// How many of `pending`'s frames have been transmitted since the last
    /// go-back; only `pending[transmitted..]` goes out on an ack advance.
    transmitted: usize,
    /// How often (in ticks of silence) to go back and retransmit the whole
    /// window.
    resend_every: u32,
    ticks_since_send: u32,
    done: bool,
}

impl GoBackNSender {
    /// Creates a sender for `input` with sequence numbers modulo `modulus`
    /// and window size `window`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ modulus` and `1 ≤ window ≤ modulus − 1` (the
    /// classic go-back-N requirement; a larger window makes wrapped
    /// sequence numbers ambiguous even on FIFO links).
    pub fn new(input: DataSeq, domain: u16, modulus: u16, window: u16) -> Self {
        assert!(modulus >= 2, "modulus must be at least 2");
        assert!(
            (1..modulus).contains(&window),
            "window must satisfy 1 <= w <= modulus - 1"
        );
        debug_assert!(input.items().iter().all(|i| i.0 < domain));
        GoBackNSender {
            tape: InputTape::new(input),
            domain,
            modulus,
            window,
            base: 0,
            pending: Vec::new(),
            transmitted: 0,
            resend_every: 4,
            ticks_since_send: 0,
            done: false,
        }
    }

    /// Absolute index of the oldest unacknowledged item.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Fills the window from the tape and emits the frames not yet
    /// transmitted since the last go-back.
    fn pump(&mut self) -> SenderOutput {
        while self.pending.len() < self.window as usize {
            match self.tape.read() {
                Ok(item) => self.pending.push(item),
                Err(_) => break,
            }
        }
        if self.pending.is_empty() {
            self.done = true;
            return SenderOutput::idle();
        }
        let d = self.domain;
        let k = self.modulus as usize;
        let base = self.base;
        let from = self.transmitted;
        let send: Msgs<SMsg> = self.pending[from..]
            .iter()
            .enumerate()
            .map(|(j, item)| encode(((base + from + j) % k) as u16, item.0, d))
            .collect();
        if !send.is_empty() {
            self.ticks_since_send = 0;
        }
        self.transmitted = self.pending.len();
        SenderOutput { send }
    }

    /// Goes back to the window base: everything pending becomes
    /// untransmitted and goes out again.
    fn go_back(&mut self) -> SenderOutput {
        self.transmitted = 0;
        self.pump()
    }
}

impl Sender for GoBackNSender {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(self.modulus * self.domain)
    }

    fn on_event(&mut self, ev: SenderEvent) -> SenderOutput {
        match ev {
            SenderEvent::Init => self.pump(),
            SenderEvent::Tick => {
                if self.pending.is_empty() {
                    return SenderOutput::idle();
                }
                self.ticks_since_send += 1;
                if self.ticks_since_send >= self.resend_every {
                    self.go_back()
                } else {
                    SenderOutput::idle()
                }
            }
            SenderEvent::Deliver(ack) => {
                // Cumulative ack of sequence number `ack.0`: every pending
                // frame with an index whose seqno lies in (base-1, ack]
                // modulo k is confirmed.
                let k = self.modulus as usize;
                let acked = (ack.0 as usize + k - self.base % k) % k + 1;
                if acked <= self.pending.len() {
                    self.base += acked;
                    self.pending.drain(..acked);
                    self.transmitted = self.transmitted.saturating_sub(acked);
                    self.ticks_since_send = 0;
                }
                self.pump()
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
        // Garble one buffered frame and force a full go-back, so the
        // corrupted value actually goes out on the wire.
        if self.pending.is_empty() {
            return false;
        }
        let j = (draw >> 8) as usize % self.pending.len();
        self.pending[j] = DataItem((draw % u64::from(self.domain.max(1))) as u16);
        self.transmitted = 0;
        true
    }

    fn desync(&mut self, draw: u64) -> bool {
        // Window-base slip: frames get wrong sequence numbers and the
        // cumulative-ack arithmetic confirms the wrong frames.
        let shift = 1 + (draw as usize) % (self.modulus as usize - 1);
        self.base += shift;
        true
    }

    fn reset(&mut self, input: &DataSeq) {
        self.tape.reset(input);
        self.base = 0;
        self.pending.clear();
        self.transmitted = 0;
        self.ticks_since_send = 0;
        self.done = false;
    }

    fn box_clone(&self) -> Box<dyn Sender> {
        Box::new(self.clone())
    }
}

/// The go-back-N receiver: accepts only the next in-order sequence
/// number, cumulative-acks the last in-order frame.
#[derive(Debug, Clone)]
pub struct GoBackNReceiver {
    domain: u16,
    modulus: u16,
    /// Absolute count of items written (the next expected index).
    written: usize,
}

impl GoBackNReceiver {
    /// Creates a receiver with sequence numbers modulo `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 2`.
    pub fn new(domain: u16, modulus: u16) -> Self {
        assert!(modulus >= 2, "modulus must be at least 2");
        GoBackNReceiver {
            domain,
            modulus,
            written: 0,
        }
    }

    fn expected(&self) -> u16 {
        (self.written % self.modulus as usize) as u16
    }
}

impl Receiver for GoBackNReceiver {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(self.modulus)
    }

    fn on_event(&mut self, ev: ReceiverEvent) -> ReceiverOutput {
        match ev {
            ReceiverEvent::Init | ReceiverEvent::Tick => ReceiverOutput::idle(),
            ReceiverEvent::Deliver(msg) => {
                let (seq, value) = decode(msg, self.domain);
                if seq == self.expected() {
                    self.written += 1;
                    ReceiverOutput {
                        send: Msgs::one(RMsg(seq)),
                        write: Msgs::one(DataItem(value)),
                    }
                } else if self.written > 0 {
                    let last = ((self.written - 1) % self.modulus as usize) as u16;
                    ReceiverOutput::send_one(RMsg(last))
                } else {
                    ReceiverOutput::idle()
                }
            }
        }
    }

    fn scramble(&mut self, draw: u64) -> bool {
        let shift = (draw % u64::from(self.modulus)) as usize;
        if shift == 0 {
            return false;
        }
        self.written += shift;
        true
    }

    fn desync(&mut self, _draw: u64) -> bool {
        // Slipping the in-order counter re-accepts the previous frame (a
        // duplicate write) or, from zero, expects one never sent.
        if self.written > 0 {
            self.written -= 1;
        } else {
            self.written += 1;
        }
        true
    }

    fn reset(&mut self) {
        self.written = 0;
    }

    fn box_clone(&self) -> Box<dyn Receiver> {
        Box::new(self.clone())
    }
}

/// Go-back-N as a protocol family over all bounded-length sequences.
#[derive(Debug, Clone)]
pub struct GoBackNFamily {
    /// Data domain size.
    pub domain: u16,
    /// Sequence-number modulus.
    pub modulus: u16,
    /// Window size (`≤ modulus − 1`).
    pub window: u16,
    /// Maximum claimed sequence length.
    pub max_len: usize,
}

impl GoBackNFamily {
    /// Creates the family.
    pub fn new(domain: u16, modulus: u16, window: u16, max_len: usize) -> Self {
        GoBackNFamily {
            domain,
            modulus,
            window,
            max_len,
        }
    }
}

impl crate::family::ProtocolFamily for GoBackNFamily {
    fn name(&self) -> &'static str {
        "go-back-n"
    }

    fn claimed_family(&self) -> stp_core::sequence::SequenceFamily {
        stp_core::sequence::SequenceFamily::all_up_to(self.domain, self.max_len)
    }

    fn sender_alphabet_size(&self) -> u16 {
        self.modulus * self.domain
    }

    fn sender_for(&self, x: &DataSeq) -> Box<dyn Sender> {
        Box::new(GoBackNSender::new(
            x.clone(),
            self.domain,
            self.modulus,
            self.window,
        ))
    }

    fn receiver(&self) -> Box<dyn Receiver> {
        Box::new(GoBackNReceiver::new(self.domain, self.modulus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(v: &[u16]) -> DataSeq {
        DataSeq::from_indices(v.iter().copied())
    }

    #[test]
    #[should_panic(expected = "window")]
    fn window_must_fit_modulus() {
        let _ = GoBackNSender::new(seq(&[]), 2, 4, 4);
    }

    #[test]
    fn sender_fills_the_window_at_init() {
        let mut s = GoBackNSender::new(seq(&[1, 0, 1, 1]), 2, 8, 3);
        let out = s.on_event(SenderEvent::Init);
        assert_eq!(out.send.len(), 3, "window of 3 frames goes out at once");
        let seqs: Vec<u16> = out.send.iter().map(|m| decode(*m, 2).0).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(s.reads(), 3);
    }

    #[test]
    fn cumulative_ack_slides_the_window() {
        let mut s = GoBackNSender::new(seq(&[1, 0, 1, 1]), 2, 8, 3);
        s.on_event(SenderEvent::Init);
        // Ack frame 1 (cumulative: frames 0 and 1 confirmed).
        let out = s.on_event(SenderEvent::Deliver(RMsg(1)));
        assert_eq!(s.base(), 2);
        // Only the newly admitted frame 3 goes out (frame 2 was already
        // transmitted and is presumed in flight).
        let seqs: Vec<u16> = out.send.iter().map(|m| decode(*m, 2).0).collect();
        assert_eq!(seqs, vec![3]);
        // Ack everything.
        s.on_event(SenderEvent::Deliver(RMsg(3)));
        assert!(s.is_done());
    }

    #[test]
    fn stale_ack_is_ignored() {
        let mut s = GoBackNSender::new(seq(&[1, 0, 1]), 2, 8, 2);
        s.on_event(SenderEvent::Init);
        s.on_event(SenderEvent::Deliver(RMsg(0)));
        assert_eq!(s.base(), 1);
        // A duplicate ack of 0 maps to "1 frame acked" relative to the old
        // base… the modular math resolves it as 8 ≥ pending, so ignored.
        s.on_event(SenderEvent::Deliver(RMsg(0)));
        assert_eq!(s.base(), 1, "stale cumulative ack must not re-slide");
    }

    #[test]
    fn receiver_accepts_in_order_only_and_reacks() {
        let mut r = GoBackNReceiver::new(2, 8);
        let out = r.on_event(ReceiverEvent::Deliver(encode(0, 1, 2)));
        assert_eq!(out.write, vec![DataItem(1)]);
        assert_eq!(out.send, vec![RMsg(0)]);
        // A gap: frame 2 arrives instead of 1 → re-ack 0, write nothing.
        let out = r.on_event(ReceiverEvent::Deliver(encode(2, 0, 2)));
        assert!(out.write.is_empty());
        assert_eq!(out.send, vec![RMsg(0)]);
        // The in-order frame 1.
        let out = r.on_event(ReceiverEvent::Deliver(encode(1, 0, 2)));
        assert_eq!(out.write, vec![DataItem(0)]);
    }

    #[test]
    fn end_to_end_over_a_perfect_pipe() {
        let input = seq(&[1, 0, 0, 1, 1, 0, 1, 0, 0]);
        let mut s = GoBackNSender::new(input.clone(), 2, 8, 4);
        let mut r = GoBackNReceiver::new(2, 8);
        let mut written = Vec::new();
        let mut pending = s.on_event(SenderEvent::Init).send.to_vec();
        for _ in 0..100 {
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
    fn periodic_retransmission_on_silence() {
        let mut s = GoBackNSender::new(seq(&[1]), 2, 4, 1);
        let first = s.on_event(SenderEvent::Init).send;
        assert_eq!(first.len(), 1);
        let mut resent = Vec::new();
        for _ in 0..8 {
            resent.extend(s.on_event(SenderEvent::Tick).send);
        }
        assert!(
            !resent.is_empty() && resent.iter().all(|m| *m == first[0]),
            "silence must trigger retransmission of the window"
        );
    }
}
