//! The paper's tight protocol: `|X| = α(m)` over reorder+duplicate and
//! (bounded) over reorder+delete channels.
//!
//! With `D = {d_1, …, d_m}` and `X` the repetition-free sequences over `D`,
//! both alphabets are `M^S = M^R = D` and:
//!
//! * **Sender** — transmits the data items in sequence, awaiting the
//!   matching acknowledgement for each before advancing.
//! * **Receiver** — waits for the arrival of a *new* message (one different
//!   from every previously received message), writes it, and acknowledges
//!   it. Reordering is handled by simply ignoring previously received
//!   messages; duplication is harmless because a duplicate is by
//!   definition not new.
//!
//! Repetition-freeness of `X` is load-bearing twice over: it makes "new
//! message" a sound decoder (a genuine next item can never collide with a
//!  stale duplicate), and it makes stale acknowledgements (earlier items'
//! values) distinguishable from the awaited one.
//!
//! Over a duplicating channel a single transmission per item suffices
//! (Property 1(c) guarantees eventual delivery); over a deleting channel
//! the processors must retransmit, which is what [`ResendPolicy::EveryTick`]
//! provides — and with it the protocol is *bounded* in the paper's
//! Definition 2 sense (experiment E3 measures the bound).

use stp_core::alphabet::{Alphabet, RMsg, SMsg};
use stp_core::data::DataItem;
use stp_core::proto::{
    InputTape, Msgs, Receiver, ReceiverEvent, ReceiverOutput, Sender, SenderEvent, SenderOutput,
};

/// Retransmission behaviour of the tight protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ResendPolicy {
    /// Transmit each item (and acknowledgement) exactly once — optimal for
    /// duplicating channels, where the channel itself retransmits forever.
    Once,
    /// Retransmit the outstanding item/acknowledgement on every tick —
    /// required for liveness on deleting channels.
    EveryTick,
}

/// The tight protocol's sender.
///
/// ```
/// use stp_core::data::DataSeq;
/// use stp_core::proto::{Sender, SenderEvent};
/// use stp_protocols::{ResendPolicy, TightSender};
///
/// let mut s = TightSender::new(DataSeq::from_indices([2, 0]), 3, ResendPolicy::Once);
/// let out = s.on_event(SenderEvent::Init);
/// assert_eq!(out.send.len(), 1); // first item goes out
/// ```
#[derive(Debug, Clone)]
pub struct TightSender {
    tape: InputTape,
    alphabet: Alphabet,
    policy: ResendPolicy,
    /// The item currently awaiting acknowledgement, if any.
    outstanding: Option<DataItem>,
    /// Whether the outstanding item has been transmitted at least once.
    sent_current: bool,
    done: bool,
}

impl TightSender {
    /// Creates a sender for `input` over an alphabet of size `m`.
    ///
    /// The input must be repetition-free and every item must be a valid
    /// message index (`< m`); both are enforced by debug assertions — the
    /// protocol's guarantees simply do not apply outside its `X`.
    pub fn new(input: stp_core::data::DataSeq, m: u16, policy: ResendPolicy) -> Self {
        debug_assert!(input.is_repetition_free(), "X must be repetition-free");
        debug_assert!(
            input.items().iter().all(|d| d.0 < m),
            "items must fit the alphabet"
        );
        TightSender {
            tape: InputTape::new(input),
            alphabet: Alphabet::new(m),
            policy,
            outstanding: None,
            sent_current: false,
            done: false,
        }
    }

    fn advance(&mut self) -> SenderOutput {
        match self.tape.read() {
            Ok(item) => {
                self.outstanding = Some(item);
                self.sent_current = true;
                SenderOutput::send_one(SMsg(item.0))
            }
            Err(_) => {
                self.outstanding = None;
                self.done = true;
                SenderOutput::idle()
            }
        }
    }
}

impl Sender for TightSender {
    fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    fn on_event(&mut self, ev: SenderEvent) -> SenderOutput {
        match ev {
            SenderEvent::Init => self.advance(),
            SenderEvent::Deliver(ack) => {
                match self.outstanding {
                    Some(item) if ack.0 == item.0 => self.advance(),
                    // Stale or mismatched acknowledgement: ignore, but use
                    // the step to retransmit if the policy says so.
                    _ => match (self.policy, self.outstanding) {
                        (ResendPolicy::EveryTick, Some(item)) => {
                            SenderOutput::send_one(SMsg(item.0))
                        }
                        _ => SenderOutput::idle(),
                    },
                }
            }
            SenderEvent::Tick => match (self.policy, self.outstanding) {
                (ResendPolicy::EveryTick, Some(item)) => SenderOutput::send_one(SMsg(item.0)),
                _ => SenderOutput::idle(),
            },
        }
    }

    fn reads(&self) -> usize {
        self.tape.position()
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn scramble(&mut self, draw: u64) -> bool {
        // Arbitrary transient fault: the sender suddenly believes some
        // alphabet value is outstanding — the tape cursor is ROM, but the
        // volatile latch and flags are fair game.
        let m = self.alphabet.size();
        if m == 0 {
            return false;
        }
        let before = (self.outstanding, self.sent_current, self.done);
        self.outstanding = Some(DataItem((draw % u64::from(m)) as u16));
        self.sent_current = draw & 1 == 1;
        self.done = false;
        before != (self.outstanding, self.sent_current, self.done)
    }

    fn desync(&mut self, _draw: u64) -> bool {
        // Losing the outstanding latch mid-transfer deadlocks the
        // handshake: no item to retransmit, no ack will ever match.
        let had = self.outstanding.is_some();
        self.outstanding = None;
        had
    }

    fn reset(&mut self, input: &stp_core::data::DataSeq) {
        debug_assert!(input.is_repetition_free(), "X must be repetition-free");
        self.tape.reset(input);
        self.outstanding = None;
        self.sent_current = false;
        self.done = false;
    }

    fn box_clone(&self) -> Box<dyn Sender> {
        Box::new(self.clone())
    }
}

/// The tight protocol's receiver.
#[derive(Debug, Clone)]
pub struct TightReceiver {
    alphabet: Alphabet,
    policy: ResendPolicy,
    /// Message values received so far, in arrival order of their first
    /// copies (equals the written output).
    seen: Vec<u16>,
    written: usize,
}

impl TightReceiver {
    /// Creates a receiver over an alphabet of size `m`.
    pub fn new(m: u16, policy: ResendPolicy) -> Self {
        TightReceiver {
            alphabet: Alphabet::new(m),
            policy,
            seen: Vec::new(),
            written: 0,
        }
    }

    fn last_ack(&self) -> Option<RMsg> {
        self.seen.last().map(|&v| RMsg(v))
    }
}

impl Receiver for TightReceiver {
    fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    fn on_event(&mut self, ev: ReceiverEvent) -> ReceiverOutput {
        match ev {
            ReceiverEvent::Init => ReceiverOutput::idle(),
            ReceiverEvent::Deliver(msg) => {
                if self.seen.contains(&msg.0) {
                    // A duplicate or reordered stale message. Re-acknowledge
                    // it (harmless on dup channels, essential on del
                    // channels where the original ack may have been lost).
                    ReceiverOutput::send_one(RMsg(msg.0))
                } else {
                    self.seen.push(msg.0);
                    self.written += 1;
                    ReceiverOutput {
                        send: Msgs::one(RMsg(msg.0)),
                        write: Msgs::one(DataItem(msg.0)),
                    }
                }
            }
            ReceiverEvent::Tick => match (self.policy, self.last_ack()) {
                (ResendPolicy::EveryTick, Some(ack)) => ReceiverOutput::send_one(ack),
                _ => ReceiverOutput::idle(),
            },
        }
    }

    fn scramble(&mut self, draw: u64) -> bool {
        // A phantom entry in the seen-set makes a future genuine arrival
        // of that value look like a duplicate: the receiver re-acks it
        // without writing, the sender advances, and the output skips an
        // item — the tight protocol's correctness rests entirely on this
        // set, so corrupting it breaks safety, not just liveness.
        let m = self.alphabet.size();
        if m == 0 {
            return false;
        }
        let v = (draw % u64::from(m)) as u16;
        if self.seen.contains(&v) {
            false
        } else {
            self.seen.push(v);
            true
        }
    }

    fn desync(&mut self, _draw: u64) -> bool {
        // Forgetting the seen-set replays history: old duplicates become
        // "new" again and get rewritten at fresh positions.
        let had = !self.seen.is_empty();
        self.seen.clear();
        had
    }

    fn reset(&mut self) {
        self.seen.clear();
        self.written = 0;
    }

    fn box_clone(&self) -> Box<dyn Receiver> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_core::data::DataSeq;

    fn seq(v: &[u16]) -> DataSeq {
        DataSeq::from_indices(v.iter().copied())
    }

    #[test]
    fn sender_walks_the_tape_on_matching_acks() {
        let mut s = TightSender::new(seq(&[2, 0, 1]), 3, ResendPolicy::Once);
        assert_eq!(s.on_event(SenderEvent::Init).send, vec![SMsg(2)]);
        assert_eq!(s.reads(), 1);
        assert!(!s.is_done());
        // Wrong ack: ignored.
        assert_eq!(s.on_event(SenderEvent::Deliver(RMsg(1))).send, vec![]);
        // Matching ack: next item.
        assert_eq!(
            s.on_event(SenderEvent::Deliver(RMsg(2))).send,
            vec![SMsg(0)]
        );
        assert_eq!(
            s.on_event(SenderEvent::Deliver(RMsg(0))).send,
            vec![SMsg(1)]
        );
        assert_eq!(s.on_event(SenderEvent::Deliver(RMsg(1))).send, vec![]);
        assert!(s.is_done());
        assert_eq!(s.reads(), 3);
    }

    #[test]
    fn sender_empty_input_is_done_immediately() {
        let mut s = TightSender::new(seq(&[]), 2, ResendPolicy::Once);
        assert_eq!(s.on_event(SenderEvent::Init), SenderOutput::idle());
        assert!(s.is_done());
    }

    #[test]
    fn sender_once_policy_does_not_retransmit() {
        let mut s = TightSender::new(seq(&[1]), 2, ResendPolicy::Once);
        s.on_event(SenderEvent::Init);
        for _ in 0..5 {
            assert_eq!(s.on_event(SenderEvent::Tick), SenderOutput::idle());
        }
    }

    #[test]
    fn sender_every_tick_policy_retransmits_until_acked() {
        let mut s = TightSender::new(seq(&[1]), 2, ResendPolicy::EveryTick);
        s.on_event(SenderEvent::Init);
        assert_eq!(s.on_event(SenderEvent::Tick).send, vec![SMsg(1)]);
        // A stale ack also triggers a retransmission slot.
        assert_eq!(
            s.on_event(SenderEvent::Deliver(RMsg(0))).send,
            vec![SMsg(1)]
        );
        s.on_event(SenderEvent::Deliver(RMsg(1)));
        assert!(s.is_done());
        assert_eq!(s.on_event(SenderEvent::Tick), SenderOutput::idle());
    }

    #[test]
    fn receiver_writes_only_new_messages() {
        let mut r = TightReceiver::new(3, ResendPolicy::Once);
        assert_eq!(r.on_event(ReceiverEvent::Init), ReceiverOutput::idle());
        let out = r.on_event(ReceiverEvent::Deliver(SMsg(2)));
        assert_eq!(out.write, vec![DataItem(2)]);
        assert_eq!(out.send, vec![RMsg(2)]);
        // A duplicate is re-acked but not rewritten.
        let dup = r.on_event(ReceiverEvent::Deliver(SMsg(2)));
        assert!(dup.write.is_empty());
        assert_eq!(dup.send, vec![RMsg(2)]);
        // A different message is new.
        let out = r.on_event(ReceiverEvent::Deliver(SMsg(0)));
        assert_eq!(out.write, vec![DataItem(0)]);
    }

    #[test]
    fn receiver_every_tick_reacks_latest() {
        let mut r = TightReceiver::new(3, ResendPolicy::EveryTick);
        assert_eq!(r.on_event(ReceiverEvent::Tick), ReceiverOutput::idle());
        r.on_event(ReceiverEvent::Deliver(SMsg(1)));
        assert_eq!(r.on_event(ReceiverEvent::Tick).send, vec![RMsg(1)]);
        r.on_event(ReceiverEvent::Deliver(SMsg(2)));
        assert_eq!(r.on_event(ReceiverEvent::Tick).send, vec![RMsg(2)]);
    }

    #[test]
    fn receiver_once_policy_is_quiet_on_tick() {
        let mut r = TightReceiver::new(3, ResendPolicy::Once);
        r.on_event(ReceiverEvent::Deliver(SMsg(1)));
        assert_eq!(r.on_event(ReceiverEvent::Tick), ReceiverOutput::idle());
    }

    #[test]
    fn end_to_end_over_in_memory_handshake() {
        // Drive the pair by hand, pretending to be a perfect channel.
        let input = seq(&[2, 0, 1]);
        let mut s = TightSender::new(input.clone(), 3, ResendPolicy::Once);
        let mut r = TightReceiver::new(3, ResendPolicy::Once);
        let mut written = Vec::new();
        let mut s_out = s.on_event(SenderEvent::Init);
        r.on_event(ReceiverEvent::Init);
        for _ in 0..10 {
            let mut acks = Vec::new();
            for m in std::mem::take(&mut s_out.send) {
                let out = r.on_event(ReceiverEvent::Deliver(m));
                written.extend(out.write);
                acks.extend(out.send);
            }
            s_out = SenderOutput::idle();
            for a in acks {
                let out = s.on_event(SenderEvent::Deliver(a));
                s_out.send.extend(out.send);
            }
            if s.is_done() {
                break;
            }
        }
        assert!(s.is_done());
        assert_eq!(DataSeq::from(written), input);
    }

    #[test]
    fn clone_boxes_are_independent() {
        let s = TightSender::new(seq(&[0]), 1, ResendPolicy::Once);
        let mut b1 = s.box_clone();
        let b2 = s.box_clone();
        b1.on_event(SenderEvent::Init);
        assert_ne!(b1.fingerprint(), b2.fingerprint());
    }
}
