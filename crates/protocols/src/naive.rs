//! A deliberately **over-capacity** protocol: prey for the impossibility
//! engine.
//!
//! `NaiveSender` runs the tight protocol's sender logic on *arbitrary*
//! input sequences — including ones with repetitions — over the same
//! `m`-letter alphabet, paired with the ordinary
//! [`TightReceiver`](crate::TightReceiver). Its claimed family therefore
//! has more than `α(m)` members, and by Theorem 1 it must fail. It fails
//! concretely: on input `⟨0,0⟩` the second transmission of message `0` is
//! indistinguishable (to the receiver) from a channel duplicate of the
//! first, so the receiver never learns the second item — and the sender
//! even sails past it, fooled by a re-acknowledgement. The verifier's
//! decisive-tuple search finds the two indistinguishable runs
//! mechanically, mirroring the proof of Lemma 1.

use crate::tight::ResendPolicy;
use stp_core::alphabet::{Alphabet, SMsg};
use stp_core::data::DataSeq;
use stp_core::proto::{InputTape, Sender, SenderEvent, SenderOutput};

/// The naive sender: tight-protocol logic without the repetition-free
/// precondition.
#[derive(Debug, Clone)]
pub struct NaiveSender {
    tape: InputTape,
    alphabet: Alphabet,
    policy: ResendPolicy,
    outstanding: Option<u16>,
    done: bool,
}

impl NaiveSender {
    /// Creates a sender for `input` over an alphabet of size `m`. Unlike
    /// [`TightSender::new`](crate::TightSender::new), `input` may repeat
    /// items — which is exactly what dooms it.
    pub fn new(input: DataSeq, m: u16, policy: ResendPolicy) -> Self {
        debug_assert!(input.items().iter().all(|d| d.0 < m));
        NaiveSender {
            tape: InputTape::new(input),
            alphabet: Alphabet::new(m),
            policy,
            outstanding: None,
            done: false,
        }
    }

    fn advance(&mut self) -> SenderOutput {
        match self.tape.read() {
            Ok(item) => {
                self.outstanding = Some(item.0);
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

impl Sender for NaiveSender {
    fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    fn on_event(&mut self, ev: SenderEvent) -> SenderOutput {
        match ev {
            SenderEvent::Init => self.advance(),
            SenderEvent::Deliver(ack) => match self.outstanding {
                Some(v) if ack.0 == v => self.advance(),
                _ => match (self.policy, self.outstanding) {
                    (ResendPolicy::EveryTick, Some(v)) => SenderOutput::send_one(SMsg(v)),
                    _ => SenderOutput::idle(),
                },
            },
            SenderEvent::Tick => match (self.policy, self.outstanding) {
                (ResendPolicy::EveryTick, Some(v)) => SenderOutput::send_one(SMsg(v)),
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

    fn reset(&mut self, input: &DataSeq) {
        self.tape.reset(input);
        self.outstanding = None;
        self.done = false;
    }

    fn box_clone(&self) -> Box<dyn Sender> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tight::{ResendPolicy, TightReceiver};
    use stp_core::alphabet::RMsg;
    use stp_core::proto::{Receiver, ReceiverEvent};

    fn seq(v: &[u16]) -> DataSeq {
        DataSeq::from_indices(v.iter().copied())
    }

    #[test]
    fn works_by_luck_on_repetition_free_inputs() {
        let mut s = NaiveSender::new(seq(&[1, 0]), 2, ResendPolicy::Once);
        assert_eq!(s.on_event(SenderEvent::Init).send, vec![SMsg(1)]);
        assert_eq!(
            s.on_event(SenderEvent::Deliver(RMsg(1))).send,
            vec![SMsg(0)]
        );
        s.on_event(SenderEvent::Deliver(RMsg(0)));
        assert!(s.is_done());
    }

    #[test]
    fn repetition_fools_the_pair_into_losing_an_item() {
        // Input ⟨0,0⟩: the canonical failure the paper's bound predicts.
        let mut s = NaiveSender::new(seq(&[0, 0]), 2, ResendPolicy::Once);
        let mut r = TightReceiver::new(2, ResendPolicy::Once);
        let mut written = 0usize;
        let m = s.on_event(SenderEvent::Init).send[0];
        let out = r.on_event(ReceiverEvent::Deliver(m));
        written += out.write.len();
        let out2 = s.on_event(SenderEvent::Deliver(out.send[0]));
        // Sender advances and sends the second 0.
        assert_eq!(out2.send, vec![SMsg(0)]);
        let out3 = r.on_event(ReceiverEvent::Deliver(SMsg(0)));
        // The receiver sees a "duplicate" and writes nothing…
        assert!(out3.write.is_empty());
        written += out3.write.len();
        // …yet its re-ack convinces the sender it is done.
        s.on_event(SenderEvent::Deliver(out3.send[0]));
        assert!(s.is_done());
        assert_eq!(written, 1, "one item silently lost: liveness violated");
    }
}
