//! The Section-5 hybrid: a *weakly bounded* protocol that is **not**
//! bounded in the paper's Definition-2 sense.
//!
//! The paper's example runs the Alternating Bit protocol over a timed
//! channel ("we are assuming here some global clock and known message
//! delivery times") until one of the processors fails to receive a message
//! in time; the processors then switch to a recovery protocol *on a fresh
//! message alphabet* in which the sender reads the whole input sequence and
//! retransmits the data items in **reverse** order, with the receiver
//! buffering the suffix and committing everything at a final special
//! message. New `t_i`'s are therefore obtained only during ABP operation or
//! all at once at the special message — so after a single fault right after
//! `t_i`, the time to reach `t_{i+1}` is proportional to the *remaining
//! sequence length*, not to `i`: weakly bounded, never fully recovering.
//! Experiment E5 measures exactly this.
//!
//! ## Alphabet layout (`d = |D|`)
//!
//! | `SMsg` index      | meaning                                   |
//! |-------------------|-------------------------------------------|
//! | `bit·d + v`       | ABP data `(bit, v)`                       |
//! | `2d + bit·d + v`  | recovery data `(bit, v)`, reverse order   |
//! | `4d + p`          | RECOVERY-START, `p` = acked count mod 2   |
//! | `4d + 2`          | DONE (commit the buffered suffix)         |
//!
//! `M^R`: `0,1` ABP acks · `2,3` recovery acks · `4` START ack · `5` DONE
//! ack.
//!
//! The START parity bit closes the classic one-message uncertainty: at the
//! fault the receiver may have written one more item than the sender saw
//! acknowledged (`w ∈ {a, a+1}`); comparing `w mod 2` against `a mod 2`
//! tells the receiver how many buffered items overlap what it already
//! wrote.

use stp_core::alphabet::{Alphabet, RMsg, SMsg};
use stp_core::data::{DataItem, DataSeq};
use stp_core::proto::{
    Msgs, Receiver, ReceiverEvent, ReceiverOutput, Sender, SenderEvent, SenderOutput,
};

const ACK_START: u16 = 4;
const ACK_DONE: u16 = 5;

/// Sender-side phase.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SPhase {
    /// Normal ABP operation, awaiting the ack for the outstanding item.
    Abp,
    /// Announcing recovery, awaiting the START ack.
    RecStart,
    /// Re-transmitting the remaining items in reverse order; the payload
    /// index into `remaining` currently outstanding.
    RecData(usize),
    /// Awaiting the DONE ack.
    RecDone,
    /// Finished.
    Done,
}

/// The hybrid sender. Non-uniform: it may read the whole input tape when a
/// fault occurs (the paper's recovery protocol explicitly does).
#[derive(Debug, Clone)]
pub struct HybridSender {
    input: DataSeq,
    domain: u16,
    /// Round-trip allowance in global steps before a missing response is
    /// declared a fault (ABP mode) or triggers a retransmission (recovery).
    rtt: u64,
    phase: SPhase,
    /// Items acknowledged during ABP operation.
    acked: usize,
    bit: u8,
    /// Local clock: total events seen (each event is one global step).
    now: u64,
    /// Step by which the awaited response must arrive.
    deadline_at: u64,
    /// Remaining items at fault time, already reversed (`remaining[0]` is
    /// the last item of the input).
    remaining: Vec<DataItem>,
    rec_bit: u8,
    /// Number of faults detected (0 or 1 in the single-fault experiments).
    faults: u32,
}

impl HybridSender {
    /// Creates a sender for `input` over a data domain of size `domain`,
    /// on a timed channel with the given delivery `deadline` (ticks).
    pub fn new(input: DataSeq, domain: u16, deadline: u32) -> Self {
        debug_assert!(input.items().iter().all(|it| it.0 < domain));
        HybridSender {
            input,
            domain,
            rtt: 2 * deadline as u64 + 2,
            phase: SPhase::Abp,
            acked: 0,
            bit: 0,
            now: 0,
            deadline_at: u64::MAX,
            remaining: Vec::new(),
            rec_bit: 0,
            faults: 0,
        }
    }

    /// Number of timeout faults the sender has detected.
    pub fn faults(&self) -> u32 {
        self.faults
    }

    /// Whether the sender is in recovery.
    pub fn in_recovery(&self) -> bool {
        matches!(
            self.phase,
            SPhase::RecStart | SPhase::RecData(_) | SPhase::RecDone
        )
    }

    fn abp_data(&self, item: DataItem) -> SMsg {
        SMsg(self.bit as u16 * self.domain + item.0)
    }

    fn rec_data(&self, item: DataItem) -> SMsg {
        SMsg(2 * self.domain + self.rec_bit as u16 * self.domain + item.0)
    }

    fn start_msg(&self) -> SMsg {
        SMsg(4 * self.domain + (self.acked % 2) as u16)
    }

    fn done_msg(&self) -> SMsg {
        SMsg(4 * self.domain + 2)
    }

    fn send_current_abp(&mut self) -> SenderOutput {
        match self.input.get(self.acked) {
            Some(item) => {
                self.deadline_at = self.now + self.rtt;
                SenderOutput::send_one(self.abp_data(item))
            }
            None => {
                self.phase = SPhase::Done;
                SenderOutput::idle()
            }
        }
    }

    fn enter_recovery(&mut self) -> SenderOutput {
        self.faults += 1;
        self.remaining = self.input.items()[self.acked..]
            .iter()
            .rev()
            .copied()
            .collect();
        self.phase = SPhase::RecStart;
        self.deadline_at = self.now + self.rtt;
        SenderOutput::send_one(self.start_msg())
    }

    /// Handles the per-event clock and timeout bookkeeping; returns the
    /// output if a timeout action fired.
    fn check_timeout(&mut self) -> Option<SenderOutput> {
        if self.now < self.deadline_at {
            return None;
        }
        match self.phase {
            SPhase::Abp => Some(self.enter_recovery()),
            SPhase::RecStart => {
                self.deadline_at = self.now + self.rtt;
                Some(SenderOutput::send_one(self.start_msg()))
            }
            SPhase::RecData(i) => {
                self.deadline_at = self.now + self.rtt;
                Some(SenderOutput::send_one(self.rec_data(self.remaining[i])))
            }
            SPhase::RecDone => {
                self.deadline_at = self.now + self.rtt;
                Some(SenderOutput::send_one(self.done_msg()))
            }
            SPhase::Done => None,
        }
    }

    fn next_rec_item(&mut self, idx: usize) -> SenderOutput {
        if idx >= self.remaining.len() {
            self.phase = SPhase::RecDone;
            self.deadline_at = self.now + self.rtt;
            SenderOutput::send_one(self.done_msg())
        } else {
            self.phase = SPhase::RecData(idx);
            self.deadline_at = self.now + self.rtt;
            SenderOutput::send_one(self.rec_data(self.remaining[idx]))
        }
    }
}

impl Sender for HybridSender {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(4 * self.domain + 3)
    }

    fn on_event(&mut self, ev: SenderEvent) -> SenderOutput {
        self.now += 1;
        match ev {
            SenderEvent::Init => self.send_current_abp(),
            SenderEvent::Tick => self.check_timeout().unwrap_or_default(),
            SenderEvent::Deliver(ack) => match self.phase.clone() {
                SPhase::Abp => {
                    if ack.0 == self.bit as u16 {
                        self.acked += 1;
                        self.bit ^= 1;
                        self.send_current_abp()
                    } else {
                        self.check_timeout().unwrap_or_default()
                    }
                }
                SPhase::RecStart => {
                    if ack.0 == ACK_START {
                        self.rec_bit = 0;
                        self.next_rec_item(0)
                    } else {
                        self.check_timeout().unwrap_or_default()
                    }
                }
                SPhase::RecData(i) => {
                    if ack.0 == 2 + self.rec_bit as u16 {
                        self.rec_bit ^= 1;
                        self.next_rec_item(i + 1)
                    } else {
                        self.check_timeout().unwrap_or_default()
                    }
                }
                SPhase::RecDone => {
                    if ack.0 == ACK_DONE {
                        self.phase = SPhase::Done;
                        SenderOutput::idle()
                    } else {
                        self.check_timeout().unwrap_or_default()
                    }
                }
                SPhase::Done => SenderOutput::idle(),
            },
        }
    }

    fn reads(&self) -> usize {
        // ABP mode reads incrementally; recovery reads the whole tape.
        if self.faults > 0 {
            self.input.len()
        } else {
            (self.acked + 1).min(self.input.len())
        }
    }

    fn is_done(&self) -> bool {
        self.phase == SPhase::Done
    }

    fn reset(&mut self, input: &DataSeq) {
        debug_assert!(input.items().iter().all(|it| it.0 < self.domain));
        self.input.clone_from(input);
        self.phase = SPhase::Abp;
        self.acked = 0;
        self.bit = 0;
        self.now = 0;
        self.deadline_at = u64::MAX;
        self.remaining.clear();
        self.rec_bit = 0;
        self.faults = 0;
    }

    fn box_clone(&self) -> Box<dyn Sender> {
        Box::new(self.clone())
    }
}

/// Receiver-side phase.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RPhase {
    Abp,
    /// In recovery; holds the sender's `acked mod 2` parity.
    Rec {
        parity: u8,
    },
    Done,
}

/// The hybrid receiver.
#[derive(Debug, Clone)]
pub struct HybridReceiver {
    domain: u16,
    phase: RPhase,
    expected_bit: u8,
    written: usize,
    rec_expected_bit: u8,
    /// Buffered suffix, in reverse order of the input (first element is the
    /// input's last item).
    buffer: Vec<DataItem>,
}

impl HybridReceiver {
    /// Creates a receiver over a data domain of size `domain`.
    pub fn new(domain: u16) -> Self {
        HybridReceiver {
            domain,
            phase: RPhase::Abp,
            expected_bit: 0,
            written: 0,
            rec_expected_bit: 0,
            buffer: Vec::new(),
        }
    }

    /// Whether the receiver has switched to recovery.
    pub fn in_recovery(&self) -> bool {
        matches!(self.phase, RPhase::Rec { .. })
    }

    /// Items currently buffered (learnt suffix not yet committed).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    fn classify(&self, msg: SMsg) -> HybridMsg {
        let d = self.domain;
        let i = msg.0;
        if i < 2 * d {
            HybridMsg::AbpData((i / d) as u8, i % d)
        } else if i < 4 * d {
            let j = i - 2 * d;
            HybridMsg::RecData((j / d) as u8, j % d)
        } else if i == 4 * d || i == 4 * d + 1 {
            HybridMsg::Start((i - 4 * d) as u8)
        } else {
            HybridMsg::Done
        }
    }

    fn commit(&mut self, parity: u8) -> Msgs<DataItem> {
        // w - a ∈ {0, 1}; parity of a arrived with START.
        let delta = usize::from(self.written % 2 != parity as usize % 2);
        let take = self.buffer.len().saturating_sub(delta);
        let items: Msgs<DataItem> = self.buffer[..take].iter().rev().copied().collect();
        self.written += items.len();
        items
    }
}

/// Decoded hybrid sender message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HybridMsg {
    AbpData(u8, u16),
    RecData(u8, u16),
    Start(u8),
    Done,
}

impl Receiver for HybridReceiver {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(6)
    }

    fn on_event(&mut self, ev: ReceiverEvent) -> ReceiverOutput {
        let msg = match ev {
            ReceiverEvent::Init | ReceiverEvent::Tick => return ReceiverOutput::idle(),
            ReceiverEvent::Deliver(m) => m,
        };
        match (self.phase.clone(), self.classify(msg)) {
            (RPhase::Abp, HybridMsg::AbpData(bit, v)) => {
                if bit == self.expected_bit {
                    self.expected_bit ^= 1;
                    self.written += 1;
                    ReceiverOutput {
                        send: Msgs::one(RMsg(bit as u16)),
                        write: Msgs::one(DataItem(v)),
                    }
                } else {
                    ReceiverOutput::send_one(RMsg(bit as u16))
                }
            }
            (RPhase::Abp, HybridMsg::Start(p)) => {
                self.phase = RPhase::Rec { parity: p };
                self.rec_expected_bit = 0;
                ReceiverOutput::send_one(RMsg(ACK_START))
            }
            (RPhase::Rec { .. }, HybridMsg::Start(_)) => {
                // Duplicate START: re-acknowledge.
                ReceiverOutput::send_one(RMsg(ACK_START))
            }
            (RPhase::Rec { .. }, HybridMsg::RecData(bit, v)) => {
                if bit == self.rec_expected_bit {
                    self.buffer.push(DataItem(v));
                    self.rec_expected_bit ^= 1;
                }
                ReceiverOutput::send_one(RMsg(2 + bit as u16))
            }
            (RPhase::Rec { parity }, HybridMsg::Done) => {
                let items = self.commit(parity);
                self.phase = RPhase::Done;
                ReceiverOutput {
                    send: Msgs::one(RMsg(ACK_DONE)),
                    write: items,
                }
            }
            (RPhase::Done, HybridMsg::Done) => ReceiverOutput::send_one(RMsg(ACK_DONE)),
            // Everything else (stale ABP data during recovery, recovery
            // leftovers after DONE, out-of-phase traffic) is ignored.
            _ => ReceiverOutput::idle(),
        }
    }

    fn reset(&mut self) {
        self.phase = RPhase::Abp;
        self.expected_bit = 0;
        self.written = 0;
        self.rec_expected_bit = 0;
        self.buffer.clear();
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

    /// Drives sender and receiver over a perfect 1-step-delay pipe,
    /// optionally swallowing the `drop_nth` sender→receiver message.
    fn drive(
        input: &[u16],
        domain: u16,
        drop_nth: Option<usize>,
        steps: usize,
    ) -> (HybridSender, HybridReceiver, Vec<DataItem>) {
        let mut s = HybridSender::new(seq(input), domain, 2);
        let mut r = HybridReceiver::new(domain);
        let mut written = Vec::new();
        let mut s_to_r: Vec<SMsg> = Vec::new();
        let mut r_to_s: Vec<RMsg> = Vec::new();
        let mut s_sent = 0usize;
        let out = s.on_event(SenderEvent::Init);
        for m in out.send {
            s_sent += 1;
            if Some(s_sent - 1) != drop_nth {
                s_to_r.push(m);
            }
        }
        r.on_event(ReceiverEvent::Init);
        for _ in 0..steps {
            // Deliver one message each way, then tick whoever got nothing.
            let to_r = if s_to_r.is_empty() {
                None
            } else {
                Some(s_to_r.remove(0))
            };
            let to_s = if r_to_s.is_empty() {
                None
            } else {
                Some(r_to_s.remove(0))
            };
            let r_out = match to_r {
                Some(m) => r.on_event(ReceiverEvent::Deliver(m)),
                None => r.on_event(ReceiverEvent::Tick),
            };
            written.extend(r_out.write);
            r_to_s.extend(r_out.send);
            let s_out = match to_s {
                Some(a) => s.on_event(SenderEvent::Deliver(a)),
                None => s.on_event(SenderEvent::Tick),
            };
            for m in s_out.send {
                s_sent += 1;
                if Some(s_sent - 1) != drop_nth {
                    s_to_r.push(m);
                }
            }
            if s.is_done() {
                break;
            }
        }
        (s, r, written)
    }

    #[test]
    fn faultless_run_is_pure_abp() {
        let input = [1, 0, 1, 1, 0];
        let (s, r, written) = drive(&input, 2, None, 200);
        assert!(s.is_done());
        assert_eq!(s.faults(), 0);
        assert!(!r.in_recovery());
        assert_eq!(DataSeq::from(written), seq(&input));
    }

    #[test]
    fn single_fault_triggers_recovery_and_still_delivers() {
        let input = [1, 0, 1, 1, 0, 0, 1];
        // Drop the 3rd sender->receiver message (0-indexed 2).
        let (s, _r, written) = drive(&input, 2, Some(2), 500);
        assert!(s.is_done(), "sender should finish after recovery");
        assert_eq!(s.faults(), 1);
        assert_eq!(DataSeq::from(written), seq(&input));
    }

    #[test]
    fn fault_on_first_message_recovers_from_scratch() {
        let input = [1, 1, 0];
        let (s, _r, written) = drive(&input, 2, Some(0), 500);
        assert!(s.is_done());
        assert_eq!(s.faults(), 1);
        assert_eq!(DataSeq::from(written), seq(&input));
    }

    #[test]
    fn every_drop_position_still_delivers_correctly() {
        let input = [0, 1, 1, 0, 1];
        for drop in 0..8 {
            let (s, _r, written) = drive(&input, 2, Some(drop), 1000);
            assert!(s.is_done(), "drop={drop}");
            assert_eq!(DataSeq::from(written), seq(&input), "drop={drop}");
        }
    }

    #[test]
    fn recovery_latency_grows_with_remaining_length() {
        // Fault at the first item; measure steps to completion for varying
        // input lengths. The tail dominates: latency must grow.
        let mut latencies = Vec::new();
        for n in [4usize, 8, 16] {
            let input: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
            let mut s = HybridSender::new(seq(&input), 2, 2);
            let mut r = HybridReceiver::new(2);
            let mut s_to_r: Vec<SMsg> = Vec::new();
            let mut r_to_s: Vec<RMsg> = Vec::new();
            let mut steps = 0u64;
            // Drop the very first message: Init's output is discarded.
            let _ = s.on_event(SenderEvent::Init);
            r.on_event(ReceiverEvent::Init);
            while !s.is_done() && steps < 10_000 {
                steps += 1;
                let to_r = (!s_to_r.is_empty()).then(|| s_to_r.remove(0));
                let to_s = (!r_to_s.is_empty()).then(|| r_to_s.remove(0));
                let r_out = match to_r {
                    Some(m) => r.on_event(ReceiverEvent::Deliver(m)),
                    None => r.on_event(ReceiverEvent::Tick),
                };
                r_to_s.extend(r_out.send);
                let s_out = match to_s {
                    Some(a) => s.on_event(SenderEvent::Deliver(a)),
                    None => s.on_event(SenderEvent::Tick),
                };
                s_to_r.extend(s_out.send);
            }
            assert!(s.is_done());
            latencies.push(steps);
        }
        assert!(
            latencies[0] < latencies[1] && latencies[1] < latencies[2],
            "recovery latency should grow with |X|: {latencies:?}"
        );
    }

    #[test]
    fn alphabet_sizes_follow_layout() {
        let s = HybridSender::new(seq(&[0]), 3, 2);
        assert_eq!(s.alphabet().size(), 15); // 4·3 + 3
        let r = HybridReceiver::new(3);
        assert_eq!(r.alphabet().size(), 6);
    }

    #[test]
    fn receiver_classifies_alphabet_layout() {
        let r = HybridReceiver::new(2);
        assert_eq!(r.classify(SMsg(0)), HybridMsg::AbpData(0, 0));
        assert_eq!(r.classify(SMsg(3)), HybridMsg::AbpData(1, 1));
        assert_eq!(r.classify(SMsg(4)), HybridMsg::RecData(0, 0));
        assert_eq!(r.classify(SMsg(7)), HybridMsg::RecData(1, 1));
        assert_eq!(r.classify(SMsg(8)), HybridMsg::Start(0));
        assert_eq!(r.classify(SMsg(9)), HybridMsg::Start(1));
        assert_eq!(r.classify(SMsg(10)), HybridMsg::Done);
    }
}
