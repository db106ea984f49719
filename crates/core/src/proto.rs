//! Protocol traits: deterministic sender/receiver state machines.
//!
//! A protocol in the paper is a deterministic algorithm per processor; all
//! nondeterminism lives in the *environment* (the channel). We model a
//! processor as a Mealy machine driven by three kinds of events — `Init`
//! (once, at step 0), `Deliver` (a message arrived), and `Tick` (a step in
//! which nothing was delivered; Property 1(b)(i) guarantees such extensions
//! exist) — producing messages to send and, for the receiver, items to
//! write.
//!
//! Determinism plus the seeded adversaries in `stp-sim` make every run
//! replayable, and the `fingerprint` hook lets the verifier deduplicate
//! protocol states during exhaustive run-tree exploration.

use crate::alphabet::{Alphabet, RMsg, SMsg};
use crate::data::{DataItem, DataSeq};
use crate::error::{Error, Result};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The sender's read-only input tape with a read cursor.
///
/// Uniform protocols must consume it strictly left-to-right via
/// [`InputTape::read`]; non-uniform protocols (the paper allows `P_{S,X}`
/// to depend on the whole sequence) may inspect [`InputTape::full`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputTape {
    seq: DataSeq,
    cursor: usize,
}

impl InputTape {
    /// Creates a tape holding `seq` with the cursor at the start.
    pub fn new(seq: DataSeq) -> Self {
        InputTape { seq, cursor: 0 }
    }

    /// Reloads the tape with `seq` and rewinds the cursor, reusing the
    /// tape's buffer (the allocation-free form of `*self = InputTape::new(seq.clone())`).
    pub fn reset(&mut self, seq: &DataSeq) {
        self.seq.clone_from(seq);
        self.cursor = 0;
    }

    /// Reads (and consumes) the next item.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TapeExhausted`] past the end of the tape.
    pub fn read(&mut self) -> Result<DataItem> {
        match self.seq.get(self.cursor) {
            Some(item) => {
                self.cursor += 1;
                Ok(item)
            }
            None => Err(Error::TapeExhausted {
                len: self.seq.len(),
            }),
        }
    }

    /// Peeks at the next item without consuming it.
    pub fn peek(&self) -> Option<DataItem> {
        self.seq.get(self.cursor)
    }

    /// Number of items read so far.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Whether every item has been read.
    pub fn is_exhausted(&self) -> bool {
        self.cursor >= self.seq.len()
    }

    /// Number of items remaining.
    pub fn remaining(&self) -> usize {
        self.seq.len() - self.cursor
    }

    /// The entire tape contents (non-uniform protocols only).
    pub fn full(&self) -> &DataSeq {
        &self.seq
    }
}

/// An event delivered to the sender at the start of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderEvent {
    /// The first step of the run.
    Init,
    /// A step with no incoming message.
    Tick,
    /// A receiver message arrived.
    Deliver(RMsg),
}

/// What the sender does in one step.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SenderOutput {
    /// Messages to put on the channel this step.
    pub send: Msgs<SMsg>,
}

impl SenderOutput {
    /// An idle step.
    pub fn idle() -> Self {
        SenderOutput::default()
    }

    /// A step that sends a single message.
    pub fn send_one(msg: SMsg) -> Self {
        SenderOutput {
            send: Msgs::one(msg),
        }
    }
}

/// An event delivered to the receiver at the start of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiverEvent {
    /// The first step of the run.
    Init,
    /// A step with no incoming message.
    Tick,
    /// A sender message arrived.
    Deliver(SMsg),
}

/// What the receiver does in one step.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReceiverOutput {
    /// Messages to put on the channel this step.
    pub send: Msgs<RMsg>,
    /// Items to append to the output tape this step, in order.
    pub write: Msgs<DataItem>,
}

impl ReceiverOutput {
    /// An idle step.
    pub fn idle() -> Self {
        ReceiverOutput::default()
    }

    /// A step that sends a single message and writes nothing.
    pub fn send_one(msg: RMsg) -> Self {
        ReceiverOutput {
            send: Msgs::one(msg),
            write: Msgs::new(),
        }
    }
}

/// How many elements a [`Msgs`] holds before it spills to the heap.
const INLINE: usize = 2;

/// The messages or written items of one protocol step.
///
/// A step of the paper's model (§2.2) delivers at most one message each
/// way, and most protocols answer with at most one message and one
/// written item, so up to two elements live inline and a step allocates
/// nothing. Longer outputs — a GoBackN window, a batch write — spill to
/// the heap. Derefs to a slice and iterates by value without allocating.
#[derive(Clone)]
pub struct Msgs<T> {
    repr: Repr<T>,
}

#[derive(Clone)]
enum Repr<T> {
    /// `buf[..len]` are the elements.
    Inline { len: u8, buf: [T; INLINE] },
    /// More than [`INLINE`] elements were pushed.
    Spilled(Vec<T>),
}

impl<T: Copy + Default> Msgs<T> {
    /// No elements.
    pub fn new() -> Self {
        Msgs {
            repr: Repr::Inline {
                len: 0,
                buf: [T::default(); INLINE],
            },
        }
    }

    /// Exactly one element.
    pub fn one(x: T) -> Self {
        let mut buf = [T::default(); INLINE];
        buf[0] = x;
        Msgs {
            repr: Repr::Inline { len: 1, buf },
        }
    }

    /// Appends an element, spilling to the heap past the inline capacity.
    pub fn push(&mut self, x: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } if usize::from(*len) < INLINE => {
                buf[usize::from(*len)] = x;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(buf);
                v.push(x);
                self.repr = Repr::Spilled(v);
            }
            Repr::Spilled(v) => v.push(x),
        }
    }
}

impl<T: Copy + Default> Default for Msgs<T> {
    fn default() -> Self {
        Msgs::new()
    }
}

impl<T> std::ops::Deref for Msgs<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Msgs<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for Msgs<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for Msgs<T> {}

impl<T: PartialEq> PartialEq<Vec<T>> for Msgs<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == other[..]
    }
}

impl<T: Copy + Default> Extend<T> for Msgs<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Copy + Default> FromIterator<T> for Msgs<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut msgs = Msgs::new();
        msgs.extend(iter);
        msgs
    }
}

impl<'a, T> IntoIterator for &'a Msgs<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy> IntoIterator for Msgs<T> {
    type Item = T;
    type IntoIter = MsgsIntoIter<T>;

    fn into_iter(self) -> MsgsIntoIter<T> {
        MsgsIntoIter {
            msgs: self,
            next: 0,
        }
    }
}

/// By-value iterator over a [`Msgs`]; allocates nothing.
#[derive(Debug, Clone)]
pub struct MsgsIntoIter<T> {
    msgs: Msgs<T>,
    next: usize,
}

impl<T: Copy> Iterator for MsgsIntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let x = self.msgs.get(self.next).copied()?;
        self.next += 1;
        Some(x)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.msgs.len() - self.next;
        (n, Some(n))
    }
}

impl<T: Copy> ExactSizeIterator for MsgsIntoIter<T> {}

/// A deterministic sender protocol.
///
/// Implementations own their [`InputTape`]; the harness observes tape
/// progress through [`Sender::reads`] to record `Read` events.
pub trait Sender: fmt::Debug {
    /// The sender's message alphabet `M^S` (its size is the paper's `m`).
    fn alphabet(&self) -> Alphabet;

    /// Processes one event and returns the step's actions.
    fn on_event(&mut self, ev: SenderEvent) -> SenderOutput;

    /// Number of input items read so far.
    fn reads(&self) -> usize;

    /// Whether the sender believes the whole input has been transmitted and
    /// acknowledged (used to terminate finite experiments; a conservative
    /// `false` is always sound).
    fn is_done(&self) -> bool {
        false
    }

    /// A transient fault scrambles the sender's volatile state. The
    /// perturbation must be a deterministic pure function of the current
    /// state and `draw` (so corrupted runs replay bit-identically), and
    /// must leave construction-time configuration (domain size, policies)
    /// untouched — only run state is volatile. Returns `true` iff the
    /// corruption took effect; the default opts out (`false`), so existing
    /// protocols are untouched until they implement the hook.
    fn scramble(&mut self, draw: u64) -> bool {
        let _ = draw;
        false
    }

    /// A transient fault desynchronizes the sender's sequence/progress
    /// counters — a narrower perturbation than [`Sender::scramble`], for
    /// campaigns that target bookkeeping rather than whole-state chaos.
    /// Same determinism contract and opt-in default as `scramble`.
    fn desync(&mut self, draw: u64) -> bool {
        let _ = draw;
        false
    }

    /// Rewinds the sender to its initial state for a fresh run on `input`,
    /// exactly as if it had been newly constructed for that sequence.
    /// Construction-time configuration (domain size, policies, timeouts)
    /// is preserved; all run state (tape cursor, outstanding messages,
    /// phase, completion latches) is discarded.
    ///
    /// Pooled executors call this between runs instead of re-boxing the
    /// protocol, so implementations must leave no residue.
    fn reset(&mut self, input: &DataSeq);

    /// Clones the protocol state behind a box (object-safe `Clone`).
    fn box_clone(&self) -> Box<dyn Sender>;

    /// A hash of the local state, used by the verifier to deduplicate
    /// explored states. The default hashes the `Debug` rendering, which is
    /// sound as long as `Debug` faithfully reflects the state (derived
    /// `Debug` does).
    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{self:?}").hash(&mut h);
        h.finish()
    }
}

impl Clone for Box<dyn Sender> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A deterministic receiver protocol.
pub trait Receiver: fmt::Debug {
    /// The receiver's message alphabet `M^R`.
    fn alphabet(&self) -> Alphabet;

    /// Processes one event and returns the step's actions.
    fn on_event(&mut self, ev: ReceiverEvent) -> ReceiverOutput;

    /// A transient fault scrambles the receiver's volatile state. See
    /// [`Sender::scramble`] for the determinism contract; the default opts
    /// out.
    fn scramble(&mut self, draw: u64) -> bool {
        let _ = draw;
        false
    }

    /// A transient fault desynchronizes the receiver's counters. See
    /// [`Sender::desync`]; the default opts out.
    fn desync(&mut self, draw: u64) -> bool {
        let _ = draw;
        false
    }

    /// Rewinds the receiver to its initial state for a fresh run, exactly
    /// as if newly constructed (the receiver is input-independent, so no
    /// argument is needed). See [`Sender::reset`] for the contract.
    fn reset(&mut self);

    /// Clones the protocol state behind a box (object-safe `Clone`).
    fn box_clone(&self) -> Box<dyn Receiver>;

    /// A hash of the local state (see [`Sender::fingerprint`]).
    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{self:?}").hash(&mut h);
        h.finish()
    }
}

impl Clone for Box<dyn Receiver> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A trivial sender that never sends anything — the degenerate protocol for
/// `X = {⟨⟩}` (one allowable sequence needs no communication). Also handy
/// as a stub in tests.
#[derive(Debug, Clone, Default)]
pub struct SilentSender;

impl Sender for SilentSender {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(0)
    }
    fn on_event(&mut self, _ev: SenderEvent) -> SenderOutput {
        SenderOutput::idle()
    }
    fn reads(&self) -> usize {
        0
    }
    fn is_done(&self) -> bool {
        true
    }
    fn reset(&mut self, _input: &DataSeq) {}
    fn box_clone(&self) -> Box<dyn Sender> {
        Box::new(self.clone())
    }
}

/// The receiver counterpart of [`SilentSender`].
#[derive(Debug, Clone, Default)]
pub struct SilentReceiver;

impl Receiver for SilentReceiver {
    fn alphabet(&self) -> Alphabet {
        Alphabet::new(0)
    }
    fn on_event(&mut self, _ev: ReceiverEvent) -> ReceiverOutput {
        ReceiverOutput::idle()
    }
    fn reset(&mut self) {}
    fn box_clone(&self) -> Box<dyn Receiver> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_reads_in_order_then_errors() {
        let mut t = InputTape::new(DataSeq::from_indices([4, 5]));
        assert_eq!(t.peek(), Some(DataItem(4)));
        assert_eq!(t.read().unwrap(), DataItem(4));
        assert_eq!(t.position(), 1);
        assert_eq!(t.remaining(), 1);
        assert_eq!(t.read().unwrap(), DataItem(5));
        assert!(t.is_exhausted());
        assert_eq!(t.read(), Err(Error::TapeExhausted { len: 2 }));
        assert_eq!(t.peek(), None);
    }

    #[test]
    fn tape_reset_reloads_and_rewinds() {
        let mut t = InputTape::new(DataSeq::from_indices([1, 2, 3]));
        t.read().unwrap();
        t.reset(&DataSeq::from_indices([7]));
        assert_eq!(t, InputTape::new(DataSeq::from_indices([7])));
    }

    #[test]
    fn tape_full_view() {
        let t = InputTape::new(DataSeq::from_indices([1, 2, 3]));
        assert_eq!(t.full(), &DataSeq::from_indices([1, 2, 3]));
    }

    #[test]
    fn corruption_hooks_default_to_opted_out() {
        let mut s = SilentSender;
        assert!(!s.scramble(7));
        assert!(!Sender::desync(&mut s, 7));
        let mut r = SilentReceiver;
        assert!(!r.scramble(7));
        assert!(!Receiver::desync(&mut r, 7));
    }

    #[test]
    fn silent_processes_do_nothing() {
        let mut s = SilentSender;
        assert_eq!(s.on_event(SenderEvent::Init), SenderOutput::idle());
        assert_eq!(s.on_event(SenderEvent::Tick), SenderOutput::idle());
        assert!(s.is_done());
        assert_eq!(s.reads(), 0);
        let mut r = SilentReceiver;
        assert_eq!(r.on_event(ReceiverEvent::Init), ReceiverOutput::idle());
        assert_eq!(
            r.on_event(ReceiverEvent::Deliver(SMsg(0))),
            ReceiverOutput::idle()
        );
    }

    #[test]
    fn boxed_clone_preserves_behavior() {
        let s: Box<dyn Sender> = Box::new(SilentSender);
        let mut c = s.clone();
        assert_eq!(c.on_event(SenderEvent::Tick), SenderOutput::idle());
        let r: Box<dyn Receiver> = Box::new(SilentReceiver);
        let mut rc = r.clone();
        assert_eq!(rc.on_event(ReceiverEvent::Tick), ReceiverOutput::idle());
    }

    #[test]
    fn fingerprint_distinguishes_states() {
        #[derive(Debug, Clone)]
        struct Counting(u32);
        impl Sender for Counting {
            fn alphabet(&self) -> Alphabet {
                Alphabet::new(1)
            }
            fn on_event(&mut self, _ev: SenderEvent) -> SenderOutput {
                self.0 += 1;
                SenderOutput::idle()
            }
            fn reads(&self) -> usize {
                0
            }
            fn reset(&mut self, _input: &DataSeq) {
                self.0 = 0;
            }
            fn box_clone(&self) -> Box<dyn Sender> {
                Box::new(self.clone())
            }
        }
        let mut a = Counting(0);
        let b = Counting(0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.on_event(SenderEvent::Tick);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn msgs_hold_two_inline_then_spill_in_order() {
        let mut m = Msgs::new();
        assert!(m.is_empty());
        for i in 0..5u16 {
            m.push(SMsg(i));
            assert_eq!(m.len(), usize::from(i) + 1);
        }
        assert_eq!(m, (0..5).map(SMsg).collect::<Vec<_>>());
        let by_value: Vec<SMsg> = m.clone().into_iter().collect();
        assert_eq!(m, by_value);
        assert_eq!(m.into_iter().len(), 5);
        let short: Msgs<RMsg> = [RMsg(1), RMsg(2)].into_iter().collect();
        assert_ne!(short, Msgs::one(RMsg(1)));
        assert_eq!(format!("{short:?}"), "[RMsg(1), RMsg(2)]");
    }

    #[test]
    fn output_constructors() {
        assert_eq!(SenderOutput::send_one(SMsg(3)).send, vec![SMsg(3)]);
        let r = ReceiverOutput::send_one(RMsg(1));
        assert_eq!(r.send, vec![RMsg(1)]);
        assert!(r.write.is_empty());
    }
}
