//! A self-stabilizing STP variant, after the Dolev–Dubois–Potop-Butucaru–
//! Tixeuil construction for stabilizing data-link protocols.
//!
//! The protocols elsewhere in this crate assume their state was reached by
//! protocol steps from a known initial configuration; a *transient* fault
//! — a bit-flip in the alternation bit, a scrambled seen-set — silently
//! breaks that assumption, and experiment E12 shows every one of them
//! either stalls or violates safety afterwards. The stabilizing variant
//! instead tolerates an **arbitrary** starting state: within a bounded
//! number of steps after the last corruption it reconverges to writing an
//! exact, in-order suffix of the input that ends at the input's end.
//!
//! The construction trades messages for self-correction:
//!
//! * The **sender** never latches progress it cannot re-check. It
//!   broadcast-cycles *indexed* frames `(i, x_i)` forever, one frame per
//!   event; its only volatile state is the cycle cursor (any corruption of
//!   which is harmless, since every index comes around again) and a `done`
//!   latch that re-arms whenever an acknowledgement disagrees with it.
//! * The **receiver** keeps a single counter `e` — how many items it
//!   believes are written — accepts exactly the frame indexed `e`, and
//!   acknowledges `e` on *every* event, so the sender continuously
//!   observes the receiver's true position instead of inferring it.
//! * A corruption can push `e` **past** the input length; no frame will
//!   ever match and the counter alone cannot recover. The sender detects
//!   the out-of-range acknowledgement and answers with a reserved
//!   **RESET** message that sets `e = 0`, making every receiver state
//!   recoverable.
//!
//! Alphabets: `M^S = {0..max_len-1} × D ∪ {RESET}` encoded as
//! `i·|D| + v` with `RESET = max_len·|D|` (size `max_len·|D| + 1`);
//! `M^R = {0..max_len}` (the counter values, size `max_len + 1`).
//!
//! One absorbing blind spot is inherent to casting the infinite-stream
//! Dolev model as a finite transfer: a corruption that lands `e` exactly
//! on the input length `n` is indistinguishable from genuine completion —
//! the receiver acknowledges `n`, the sender latches `done`, and both
//! halt. The stabilization experiments pick corruption draws that avoid
//! this measure-zero coincidence; see DESIGN.md §13.

use stp_core::alphabet::{Alphabet, RMsg, SMsg};
use stp_core::data::{DataItem, DataSeq};
use stp_core::proto::{
    InputTape, Msgs, Receiver, ReceiverEvent, ReceiverOutput, Sender, SenderEvent, SenderOutput,
};

/// Encodes frame `(i, v)` into the composite sender alphabet.
fn encode(i: u16, value: u16, d: u16) -> SMsg {
    SMsg(i * d + value)
}

/// Decodes a non-RESET sender message into `(i, v)`.
fn decode(msg: SMsg, d: u16) -> (u16, u16) {
    (msg.0 / d, msg.0 % d)
}

/// The reserved RESET message for a `(d, max_len)` configuration.
fn reset_msg(d: u16, max_len: u16) -> SMsg {
    SMsg(max_len * d)
}

/// The self-stabilizing sender: broadcast-cycles indexed frames forever.
#[derive(Debug, Clone)]
pub struct StabilizingSender {
    tape: InputTape,
    /// Snapshot of the input, read in full at `Init` — the tape is ROM,
    /// so cycling reads it once and replays from memory.
    items: Vec<DataItem>,
    domain: u16,
    max_len: u16,
    /// Next frame index to transmit (always `< items.len()` when any).
    cursor: usize,
    /// Completion latch; re-armed by any acknowledgement `≠ n`.
    done: bool,
}

impl StabilizingSender {
    /// Creates a sender for `input` over a data domain of size `domain`,
    /// supporting sequences up to `max_len` items.
    ///
    /// # Panics
    ///
    /// Panics if `input` is longer than `max_len` or holds items outside
    /// the domain.
    pub fn new(input: DataSeq, domain: u16, max_len: u16) -> Self {
        assert!(
            input.len() <= max_len as usize,
            "input must fit within max_len"
        );
        debug_assert!(input.items().iter().all(|i| i.0 < domain));
        StabilizingSender {
            tape: InputTape::new(input),
            items: Vec::new(),
            domain,
            max_len,
            cursor: 0,
            done: false,
        }
    }

    /// The current cycle cursor (exposed for tests and probes).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Emits the frame at the cursor and advances it cyclically.
    fn emit(&mut self) -> SenderOutput {
        if self.done || self.items.is_empty() {
            return SenderOutput::idle();
        }
        let n = self.items.len();
        if self.cursor >= n {
            // A scramble may have pushed the cursor out of range; fold it
            // back — the cycle has no privileged origin anyway.
            self.cursor %= n;
        }
        let item = self.items[self.cursor];
        let frame = encode(self.cursor as u16, item.0, self.domain);
        self.cursor = (self.cursor + 1) % n;
        SenderOutput::send_one(frame)
    }
}

impl Sender for StabilizingSender {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(self.max_len * self.domain + 1)
    }

    fn on_event(&mut self, ev: SenderEvent) -> SenderOutput {
        match ev {
            SenderEvent::Init => {
                while let Ok(item) = self.tape.read() {
                    self.items.push(item);
                }
                if self.items.is_empty() {
                    // Nothing to transmit; completion still waits for the
                    // receiver's `ack 0`, which every event of its solicits.
                    return SenderOutput::idle();
                }
                self.emit()
            }
            SenderEvent::Tick => self.emit(),
            SenderEvent::Deliver(ack) => {
                let n = self.items.len();
                if ack.0 as usize == n {
                    // The receiver is exactly at the end: latch done. The
                    // latch is *not* trusted state — any later
                    // acknowledgement `≠ n` (a corrupted receiver
                    // restarting) re-arms the cycle below.
                    self.done = true;
                    SenderOutput::idle()
                } else if ack.0 as usize > n {
                    // Unreachable by protocol steps: the receiver's
                    // counter was corrupted past the end. No frame can
                    // match it; answer with RESET.
                    self.done = false;
                    SenderOutput::send_one(reset_msg(self.domain, self.max_len))
                } else {
                    self.done = false;
                    self.emit()
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
        let before = (self.cursor, self.done);
        let n = self.items.len().max(1);
        self.cursor = (draw as usize) % n;
        self.done = (draw >> 1) & 1 == 1;
        before != (self.cursor, self.done)
    }

    fn desync(&mut self, draw: u64) -> bool {
        if self.items.is_empty() {
            return false;
        }
        let n = self.items.len();
        let next = (self.cursor + 1 + (draw as usize) % n) % n;
        let changed = next != self.cursor;
        self.cursor = next;
        changed
    }

    fn reset(&mut self, input: &DataSeq) {
        assert!(
            input.len() <= self.max_len as usize,
            "input must fit within max_len"
        );
        self.tape.reset(input);
        self.items.clear();
        self.cursor = 0;
        self.done = false;
    }

    fn box_clone(&self) -> Box<dyn Sender> {
        Box::new(self.clone())
    }
}

/// The self-stabilizing receiver: one counter, acknowledged continuously.
#[derive(Debug, Clone)]
pub struct StabilizingReceiver {
    domain: u16,
    max_len: u16,
    /// How many items the receiver believes it has written. The *only*
    /// state — everything the protocol does is a function of `e` and the
    /// arriving frame, which is what makes arbitrary corruption of `e`
    /// recoverable.
    e: u16,
}

impl StabilizingReceiver {
    /// Creates a receiver over a data domain of size `domain` for
    /// sequences up to `max_len` items.
    pub fn new(domain: u16, max_len: u16) -> Self {
        StabilizingReceiver {
            domain,
            max_len,
            e: 0,
        }
    }

    /// The receiver's position counter (exposed for tests and probes).
    pub fn counter(&self) -> u16 {
        self.e
    }
}

impl Receiver for StabilizingReceiver {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(self.max_len + 1)
    }

    fn on_event(&mut self, ev: ReceiverEvent) -> ReceiverOutput {
        match ev {
            // The counter is acknowledged on *every* event — continuous
            // self-reporting is what lets the sender audit the receiver's
            // state instead of trusting its own latches.
            ReceiverEvent::Init | ReceiverEvent::Tick => ReceiverOutput::send_one(RMsg(self.e)),
            ReceiverEvent::Deliver(msg) => {
                if msg == reset_msg(self.domain, self.max_len) {
                    self.e = 0;
                    return ReceiverOutput::send_one(RMsg(0));
                }
                let (i, value) = decode(msg, self.domain);
                if i == self.e {
                    self.e += 1;
                    ReceiverOutput {
                        send: Msgs::one(RMsg(self.e)),
                        write: Msgs::one(DataItem(value)),
                    }
                } else {
                    ReceiverOutput::send_one(RMsg(self.e))
                }
            }
        }
    }

    fn scramble(&mut self, draw: u64) -> bool {
        // An arbitrary transient value in `[0, max_len)`. Draws are
        // campaign-chosen; landing exactly on the input length is the
        // absorbing coincidence documented in the module docs.
        let v = (draw % u64::from(self.max_len.max(1))) as u16;
        let changed = v != self.e;
        self.e = v;
        changed
    }

    fn desync(&mut self, _draw: u64) -> bool {
        // A one-slot slip, wrapping through the full counter range so the
        // out-of-range (RESET-requiring) states are reachable too.
        self.e = (self.e + 1) % (self.max_len + 1);
        true
    }

    fn reset(&mut self) {
        self.e = 0;
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

    /// Drives the pair over a perfect in-memory link for `rounds` rounds,
    /// returning everything written.
    fn drive(
        s: &mut StabilizingSender,
        r: &mut StabilizingReceiver,
        init: bool,
        rounds: usize,
    ) -> Vec<DataItem> {
        let mut written = Vec::new();
        let mut pending = if init {
            let out = s.on_event(SenderEvent::Init);
            r.on_event(ReceiverEvent::Init);
            out.send.to_vec()
        } else {
            Vec::new()
        };
        for _ in 0..rounds {
            let mut acks = Vec::new();
            if pending.is_empty() {
                let out = r.on_event(ReceiverEvent::Tick);
                acks.extend(out.send);
            }
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
        written
    }

    #[test]
    fn encode_decode_round_trip_and_reset_is_reserved() {
        let (d, max_len) = (3, 4);
        for i in 0..max_len {
            for v in 0..d {
                let m = encode(i, v, d);
                assert_eq!(decode(m, d), (i, v));
                assert_ne!(m, reset_msg(d, max_len));
            }
        }
        assert_eq!(reset_msg(d, max_len), SMsg(12));
    }

    #[test]
    fn transfers_any_sequence_from_a_clean_start() {
        let input = seq(&[1, 1, 0, 2, 1]);
        let mut s = StabilizingSender::new(input.clone(), 3, 8);
        let mut r = StabilizingReceiver::new(3, 8);
        let written = drive(&mut s, &mut r, true, 200);
        assert!(s.is_done());
        assert_eq!(DataSeq::from(written), input);
    }

    #[test]
    fn reconverges_after_receiver_counter_rollback() {
        let input = seq(&[2, 0, 1]);
        let mut s = StabilizingSender::new(input.clone(), 3, 8);
        let mut r = StabilizingReceiver::new(3, 8);
        drive(&mut s, &mut r, true, 200);
        assert!(s.is_done());
        // Transient fault: the counter rolls back to 1.
        assert!(Receiver::scramble(&mut r, 1));
        assert_eq!(r.counter(), 1);
        // The receiver's next ack un-latches the sender and the cycle
        // rewrites the suffix x[1..].
        let rewritten = drive(&mut s, &mut r, false, 200);
        assert!(s.is_done(), "must re-latch completion");
        assert_eq!(
            rewritten,
            vec![DataItem(0), DataItem(1)],
            "exactly the suffix from the corrupted position is rewritten"
        );
    }

    #[test]
    fn out_of_range_counter_triggers_reset_and_full_rewrite() {
        let input = seq(&[1, 0]);
        let mut s = StabilizingSender::new(input.clone(), 2, 6);
        let mut r = StabilizingReceiver::new(2, 6);
        drive(&mut s, &mut r, true, 100);
        assert!(s.is_done());
        // Corrupt e past the input length (but within the counter range).
        assert!(Receiver::scramble(&mut r, 5));
        assert_eq!(r.counter(), 5);
        let rewritten = drive(&mut s, &mut r, false, 200);
        assert!(s.is_done());
        assert_eq!(
            DataSeq::from(rewritten),
            input,
            "RESET must restart the receiver and rewrite everything"
        );
    }

    #[test]
    fn sender_cursor_corruption_is_harmless() {
        let input = seq(&[0, 1, 2, 0]);
        let mut s = StabilizingSender::new(input.clone(), 3, 6);
        let mut r = StabilizingReceiver::new(3, 6);
        // Corrupt the cursor mid-transfer, repeatedly.
        let mut pending = s.on_event(SenderEvent::Init).send.to_vec();
        r.on_event(ReceiverEvent::Init);
        let mut written = Vec::new();
        for round in 0..300 {
            if round % 7 == 3 {
                Sender::scramble(&mut s, round as u64);
            }
            let mut acks = Vec::new();
            if pending.is_empty() {
                acks.extend(r.on_event(ReceiverEvent::Tick).send);
            }
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
        assert!(s.is_done(), "cursor scrambles must not prevent completion");
        assert_eq!(DataSeq::from(written), input);
    }

    #[test]
    fn empty_input_completes_via_the_ack_path() {
        let mut s = StabilizingSender::new(seq(&[]), 2, 4);
        let mut r = StabilizingReceiver::new(2, 4);
        assert_eq!(s.on_event(SenderEvent::Init), SenderOutput::idle());
        let ack = r.on_event(ReceiverEvent::Init).send[0];
        s.on_event(SenderEvent::Deliver(ack));
        assert!(s.is_done());
    }

    #[test]
    fn alphabet_sizes() {
        let s = StabilizingSender::new(seq(&[0]), 3, 5);
        assert_eq!(s.alphabet().size(), 16, "max_len*d frames plus RESET");
        let r = StabilizingReceiver::new(3, 5);
        assert_eq!(r.alphabet().size(), 6, "counter values 0..=max_len");
    }

    #[test]
    fn desync_hooks_report_effect_honestly() {
        let mut s = StabilizingSender::new(seq(&[1]), 2, 4);
        s.on_event(SenderEvent::Init);
        // n = 1: the cursor has nowhere else to go.
        assert!(!Sender::desync(&mut s, 9));
        let mut r = StabilizingReceiver::new(2, 4);
        assert!(Receiver::desync(&mut r, 0));
        assert_eq!(r.counter(), 1);
        for _ in 0..4 {
            Receiver::desync(&mut r, 0);
        }
        assert_eq!(r.counter(), 0, "wraps through the full range");
    }
}
