//! The observable event vocabulary of a run, and recorded traces.
//!
//! A *run* in the paper is an infinite sequence of global states; our
//! simulator records the finite prefix it executes as a [`Trace`] — a
//! time-stamped list of [`Event`]s plus the input sequence. Traces are the
//! common currency between the simulator, the requirement checkers, the
//! knowledge machinery (which extracts per-process *local histories* from
//! them) and the experiment harnesses.

use crate::alphabet::{RMsg, SMsg};
use crate::data::{DataItem, DataSeq};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Discrete time: the index of a global step.
pub type Step = u64;

/// One of the two processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcessId {
    /// The sender `S`.
    Sender,
    /// The receiver `R`.
    Receiver,
}

impl ProcessId {
    /// The other processor (the paper's `p̄`).
    pub fn other(self) -> ProcessId {
        match self {
            ProcessId::Sender => ProcessId::Receiver,
            ProcessId::Receiver => ProcessId::Sender,
        }
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessId::Sender => write!(f, "S"),
            ProcessId::Receiver => write!(f, "R"),
        }
    }
}

/// The kind of a transient state-corruption fault.
///
/// Corruption campaigns perturb *local state* — the volatile variables of
/// a processor, or the in-flight contents of the channel — rather than the
/// channel's delivery behaviour (which the scheduler vocabulary already
/// covers). Each firing carries a PRNG `draw` so the perturbation is a
/// deterministic function of `(state, draw)` and replays bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// Scramble the sender's volatile state.
    ScrambleSender,
    /// Scramble the receiver's volatile state.
    ScrambleReceiver,
    /// Desynchronize the sender's sequence/progress counters.
    DesyncSender,
    /// Desynchronize the receiver's sequence/progress counters.
    DesyncReceiver,
    /// Forge a sender-alphabet message into the channel, addressed to `R`.
    InjectToR,
    /// Forge a receiver-alphabet message into the channel, addressed to `S`.
    InjectToS,
}

impl fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CorruptionKind::ScrambleSender => "scramble-S",
            CorruptionKind::ScrambleReceiver => "scramble-R",
            CorruptionKind::DesyncSender => "desync-S",
            CorruptionKind::DesyncReceiver => "desync-R",
            CorruptionKind::InjectToR => "inject→R",
            CorruptionKind::InjectToS => "inject→S",
        };
        write!(f, "{s}")
    }
}

/// An observable event of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Event {
    /// `S` put a message on the channel.
    SendS {
        /// The message sent.
        msg: SMsg,
    },
    /// `R` put a message on the channel.
    SendR {
        /// The message sent.
        msg: RMsg,
    },
    /// The channel delivered a sender message to `R`.
    DeliverToR {
        /// The delivered message.
        msg: SMsg,
    },
    /// The channel delivered a receiver message to `S`.
    DeliverToS {
        /// The delivered message.
        msg: RMsg,
    },
    /// `S` read the next item from the input tape.
    Read {
        /// The item read.
        item: DataItem,
        /// Its 0-based position on the tape.
        pos: usize,
    },
    /// `R` wrote an item to the output tape.
    Write {
        /// The item written.
        item: DataItem,
        /// Its 0-based position on the tape.
        pos: usize,
    },
    /// The channel irrevocably deleted an in-flight copy (deletion
    /// channels only; recorded for diagnosis and replay, invisible to both
    /// processors).
    ChannelDrop {
        /// Which processor the deleted copy was addressed to.
        to: ProcessId,
        /// Raw index of the deleted message within its alphabet.
        msg: u16,
    },
    /// The channel itself destroyed an in-flight copy without adversary
    /// involvement — a timed channel's TTL expiry. Kept distinct from
    /// [`Event::ChannelDrop`] because replay reconstructs `ChannelDrop`s
    /// as scripted adversary deletions, whereas expiries recur
    /// deterministically from the channel's own clock and must *not* be
    /// re-injected. Invisible to both processors.
    ChannelExpire {
        /// Which processor the expired copy was addressed to.
        to: ProcessId,
        /// Raw index of the expired message within its alphabet.
        msg: u16,
    },
    /// A transient state-corruption fault fired and *took effect* (a
    /// processor that does not implement the corruption hooks absorbs the
    /// command silently and records nothing). Like [`Event::ChannelDrop`],
    /// the event is an adversary action: replay reconstructs it into the
    /// scripted decision stream so a corrupted run replays bit-identically.
    /// Invisible to both processors — faults are not observations.
    Corruption {
        /// What was corrupted.
        kind: CorruptionKind,
        /// The seeded PRNG draw that parameterized the perturbation.
        draw: u64,
    },
}

impl Event {
    /// Whether the given processor *observes* this event (it appears in the
    /// processor's local history under the complete-history
    /// interpretation).
    pub fn visible_to(&self, p: ProcessId) -> bool {
        matches!(
            (self, p),
            (Event::SendS { .. }, ProcessId::Sender)
                | (Event::SendR { .. }, ProcessId::Receiver)
                | (Event::DeliverToR { .. }, ProcessId::Receiver)
                | (Event::DeliverToS { .. }, ProcessId::Sender)
                | (Event::Read { .. }, ProcessId::Sender)
                | (Event::Write { .. }, ProcessId::Receiver)
        )
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::SendS { msg } => write!(f, "S!{}", msg.0),
            Event::SendR { msg } => write!(f, "R!{}", msg.0),
            Event::DeliverToR { msg } => write!(f, "R?{}", msg.0),
            Event::DeliverToS { msg } => write!(f, "S?{}", msg.0),
            Event::Read { item, pos } => write!(f, "read[{pos}]={}", item.0),
            Event::Write { item, pos } => write!(f, "write[{pos}]={}", item.0),
            Event::ChannelDrop { to, msg } => write!(f, "drop {msg}→{to}"),
            Event::ChannelExpire { to, msg } => write!(f, "expire {msg}→{to}"),
            Event::Corruption { kind, draw } => write!(f, "corrupt {kind} (draw {draw})"),
        }
    }
}

/// The identity of one physical send within a single run.
///
/// Executors assign ids densely from `0` in send order, restarting at `0`
/// on every run (including pooled-world resets), so a `(seed, MsgId)` pair
/// names one injection reproducibly across re-runs of the same cell.
/// Channel provenance threads the id from the send through every later
/// delivery, adversary deletion or TTL expiry of that copy, which is what
/// lets a fold over the recorded [`MsgEvent`]s reconstruct per-message
/// lifecycles causally instead of guessing from value-level aggregate
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId(pub u64);

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A provenance-carrying lifecycle event: the causal counterpart of
/// [`Event`], recorded alongside it by executors whose provenance
/// recording is switched on.
///
/// Kept separate from [`Event`] on purpose: traces, replay scripts and all
/// committed experiment output serialize `Event`, and widening that enum
/// would silently change every witness file. `MsgEvent` is a parallel
/// recording that exists only while provenance is switched on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MsgEvent {
    /// A processor performed a physical send. On duplicating channels a
    /// re-send of an ever-sent value adds no new channel copy; the fresh id
    /// is then recorded as coalesced into the original carrier's id, and
    /// all future deliveries of that value fan out from the original.
    Sent {
        /// The fresh id of this physical send.
        id: MsgId,
        /// Which processor the message is addressed to.
        to: ProcessId,
        /// Raw index of the message within its alphabet.
        msg: u16,
        /// On duplicating channels: the id of the earlier send this one
        /// merged into (`None` for the first send of a value, and always
        /// `None` on consuming channels).
        coalesced_into: Option<MsgId>,
    },
    /// The channel delivered a copy. `id` is the originating send
    /// (`None` when the channel cannot attribute the copy).
    Delivered {
        /// The id of the send this copy originated from.
        id: Option<MsgId>,
        /// The processor it was delivered to.
        to: ProcessId,
        /// Raw index of the delivered message.
        msg: u16,
    },
    /// The adversary irrevocably deleted an in-flight copy.
    Dropped {
        /// The id of the deleted copy's originating send.
        id: Option<MsgId>,
        /// The processor the copy was addressed to.
        to: ProcessId,
        /// Raw index of the deleted message.
        msg: u16,
    },
    /// The channel itself destroyed a copy (TTL expiry on timed channels).
    Expired {
        /// The id of the expired copy's originating send.
        id: Option<MsgId>,
        /// The processor the copy was addressed to.
        to: ProcessId,
        /// Raw index of the expired message.
        msg: u16,
    },
}

impl MsgEvent {
    /// The provenance id the event carries, if the channel attributed one.
    pub fn id(&self) -> Option<MsgId> {
        match *self {
            MsgEvent::Sent { id, .. } => Some(id),
            MsgEvent::Delivered { id, .. }
            | MsgEvent::Dropped { id, .. }
            | MsgEvent::Expired { id, .. } => id,
        }
    }

    /// The direction of the copy: which processor it was addressed to.
    pub fn to(&self) -> ProcessId {
        match *self {
            MsgEvent::Sent { to, .. }
            | MsgEvent::Delivered { to, .. }
            | MsgEvent::Dropped { to, .. }
            | MsgEvent::Expired { to, .. } => to,
        }
    }

    /// Raw alphabet index of the message the event concerns.
    pub fn msg(&self) -> u16 {
        match *self {
            MsgEvent::Sent { msg, .. }
            | MsgEvent::Delivered { msg, .. }
            | MsgEvent::Dropped { msg, .. }
            | MsgEvent::Expired { msg, .. } => msg,
        }
    }
}

impl fmt::Display for MsgEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn opt(id: &Option<MsgId>) -> String {
            id.map_or_else(|| "#?".to_string(), |i| i.to_string())
        }
        match self {
            MsgEvent::Sent {
                id,
                to,
                msg,
                coalesced_into: Some(orig),
            } => write!(f, "sent {id} {msg}→{to} (coalesced into {orig})"),
            MsgEvent::Sent { id, to, msg, .. } => write!(f, "sent {id} {msg}→{to}"),
            MsgEvent::Delivered { id, to, msg } => {
                write!(f, "delivered {} {msg}→{to}", opt(id))
            }
            MsgEvent::Dropped { id, to, msg } => write!(f, "dropped {} {msg}→{to}", opt(id)),
            MsgEvent::Expired { id, to, msg } => write!(f, "expired {} {msg}→{to}", opt(id)),
        }
    }
}

/// An observer that executors feed every event of a run, *regardless* of
/// the active [`TraceMode`] — the streaming counterpart of a recorded
/// [`Trace`]. A probe computes whatever it wants online (statistics,
/// invariant checks, exports) without the executor allocating or retaining
/// events on its behalf.
///
/// The contract, which the executor upholds in every trace mode:
///
/// 1. [`Probe::on_run_start`] is called once before any event of a run —
///    at world assembly and again on every pooled reset — and must leave
///    the probe as if freshly constructed (probes are pooled along with
///    their worlds; implementations should retain buffer capacity).
/// 2. [`Probe::on_event`] is called for every event, in execution order,
///    with non-decreasing `step`s — the exact sequence a
///    [`TraceMode::Full`] trace would record.
/// 3. [`Probe::on_step_end`] is called once per global step after all of
///    that step's events, so the probe can track elapsed steps even when
///    the tail of a run produces no events.
///
/// Probes see plain [`Event`]s only. The [`MsgEvent`] provenance stream
/// is not a hook: an executor with provenance switched on records it,
/// and per-message views are folds over that recording.
pub trait Probe: fmt::Debug {
    /// A new run on `input` is starting; reset all derived state.
    fn on_run_start(&mut self, input: &DataSeq);

    /// `event` occurred at `step`.
    fn on_event(&mut self, step: Step, event: &Event);

    /// Global step `step` finished (steps are numbered from 0, so after
    /// this call the run spans `step + 1` steps).
    fn on_step_end(&mut self, step: Step);

    /// The probe as [`Any`](std::any::Any), so a harness that attached a
    /// concrete probe to a pooled world can recover it (e.g. to read a
    /// `MetricsProbe`'s statistics back out).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// How much of a run an executor records into its [`Trace`].
///
/// Sweeps that only consume aggregate statistics pay for event
/// allocation they never read; this knob lets them opt out. The contract:
///
/// * [`TraceMode::Full`] — every event is recorded; the trace is a complete
///   replayable witness (the default, and the only mode under which traces
///   from different executors can be compared bit-for-bit).
/// * [`TraceMode::Off`] — no events are recorded at all; the trace retains
///   the input sequence and the step count, nothing else.
///
/// The mode never changes *which* steps are executed — only what is
/// remembered about them, so statistics kept incrementally by the executor
/// are identical across modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TraceMode {
    /// Record every event (replayable witness).
    #[default]
    Full,
    /// Record no events (stats-only sweeps). A simulator world in this
    /// mode with no probes and no provenance recording is unobserved: it
    /// builds no event at all and keeps no trace.
    Off,
}

impl TraceMode {
    /// Whether `event` should be recorded under this mode: every event
    /// under [`TraceMode::Full`], none under [`TraceMode::Off`].
    pub fn records(self, _event: &Event) -> bool {
        self == TraceMode::Full
    }
}

/// A time-stamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// The global step at which the event occurred.
    pub step: Step,
    /// The event itself.
    pub event: Event,
}

/// One step of a processor's *local history*: everything it observed during
/// a single global step. Under the complete-history interpretation two
/// points are indistinguishable to a processor exactly when their local
/// histories are equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct LocalStep {
    /// Messages this processor received this step (raw indices; sender
    /// messages for `R`, receiver messages for `S`).
    pub received: Vec<u16>,
    /// Messages this processor sent this step (raw indices).
    pub sent: Vec<u16>,
    /// Tape activity: items read (for `S`) or written (for `R`) this step.
    pub tape: Vec<DataItem>,
}

/// The recorded finite prefix of a run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Trace {
    input: DataSeq,
    events: Vec<TimedEvent>,
    steps: Step,
}

impl Trace {
    /// Creates an empty trace for the given input sequence.
    pub fn new(input: DataSeq) -> Self {
        Trace {
            input,
            events: Vec::new(),
            steps: 0,
        }
    }

    /// Rewinds the trace for a fresh run on `input`, as if newly created —
    /// but copying `input` into the existing buffers, so a pooled rewind
    /// is allocation-free once the buffers have grown.
    pub fn reset(&mut self, input: &DataSeq) {
        self.input.clone_from(input);
        self.events.clear();
        self.steps = 0;
    }

    /// The input sequence `X` of the run.
    pub fn input(&self) -> &DataSeq {
        &self.input
    }

    /// Records an event at a step.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `step` is earlier than an already
    /// recorded event — traces are append-only in time order.
    pub fn record(&mut self, step: Step, event: Event) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.step <= step),
            "events must be recorded in step order"
        );
        self.events.push(TimedEvent { step, event });
        self.steps = self.steps.max(step + 1);
    }

    /// Marks the trace as having run through `steps` global steps (even if
    /// the tail produced no events).
    pub fn set_steps(&mut self, steps: Step) {
        self.steps = self.steps.max(steps);
    }

    /// Number of global steps the trace spans.
    pub fn steps(&self) -> Step {
        self.steps
    }

    /// All recorded events in time order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Iterates over the events of one step.
    pub fn events_at(&self, step: Step) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter().filter(move |e| e.step == step)
    }

    /// The output tape contents after all recorded events (in write order).
    pub fn output(&self) -> DataSeq {
        self.output_at(self.steps)
    }

    /// The output tape contents strictly before `step`… i.e. including all
    /// writes with `event.step < step`.
    pub fn output_at(&self, step: Step) -> DataSeq {
        self.events
            .iter()
            .filter(|e| e.step < step)
            .filter_map(|e| match e.event {
                Event::Write { item, .. } => Some(item),
                _ => None,
            })
            .collect()
    }

    /// Steps at which each output position was written: `result[i]` is the
    /// step of `write[i]`.
    pub fn write_steps(&self) -> Vec<Step> {
        self.events
            .iter()
            .filter(|e| matches!(e.event, Event::Write { .. }))
            .map(|e| e.step)
            .collect()
    }

    /// Number of items the sender has read from the input tape.
    pub fn reads(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, Event::Read { .. }))
            .count()
    }

    /// Total messages sent by `S` (with multiplicity).
    pub fn sends_by_s(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, Event::SendS { .. }))
            .count()
    }

    /// Total messages sent by `R` (with multiplicity).
    pub fn sends_by_r(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, Event::SendR { .. }))
            .count()
    }

    /// Total deliveries to `R`.
    pub fn deliveries_to_r(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, Event::DeliverToR { .. }))
            .count()
    }

    /// Total deliveries to `S`.
    pub fn deliveries_to_s(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, Event::DeliverToS { .. }))
            .count()
    }

    /// The paper's `dlvrble_R(r, t)` for deletion channels: for each sender
    /// message, copies sent to `R` minus copies delivered to `R`, strictly
    /// before `step`.
    pub fn dlvrble_r_del(&self, step: Step, alphabet_size: u16) -> Vec<i64> {
        let mut v = vec![0i64; alphabet_size as usize];
        for e in self.events.iter().filter(|e| e.step < step) {
            match e.event {
                Event::SendS { msg } if (msg.0 as usize) < v.len() => v[msg.0 as usize] += 1,
                Event::DeliverToR { msg } if (msg.0 as usize) < v.len() => v[msg.0 as usize] -= 1,
                _ => {}
            }
        }
        v
    }

    /// The paper's `dlvrble_R(r, t)` for duplication channels: whether each
    /// sender message was sent at least once strictly before `step`.
    pub fn dlvrble_r_dup(&self, step: Step, alphabet_size: u16) -> Vec<bool> {
        let mut v = vec![false; alphabet_size as usize];
        for e in self.events.iter().filter(|e| e.step < step) {
            if let Event::SendS { msg } = e.event {
                if (msg.0 as usize) < v.len() {
                    v[msg.0 as usize] = true;
                }
            }
        }
        v
    }

    /// Extracts the local history of processor `p` up to (excluding) step
    /// `upto`: one [`LocalStep`] per global step.
    ///
    /// Two traces whose local histories for `R` agree at a step are
    /// indistinguishable to `R` at that point — the formal `~_R` relation of
    /// the paper under the complete-history interpretation.
    pub fn local_history(&self, p: ProcessId, upto: Step) -> Vec<LocalStep> {
        let upto = upto.min(self.steps);
        let mut hist = vec![LocalStep::default(); upto as usize];
        for e in self.events.iter().filter(|e| e.step < upto) {
            if !e.event.visible_to(p) {
                continue;
            }
            let slot = &mut hist[e.step as usize];
            match e.event {
                Event::SendS { msg } => slot.sent.push(msg.0),
                Event::SendR { msg } => slot.sent.push(msg.0),
                Event::DeliverToR { msg } => slot.received.push(msg.0),
                Event::DeliverToS { msg } => slot.received.push(msg.0),
                Event::Read { item, .. } => slot.tape.push(item),
                Event::Write { item, .. } => slot.tape.push(item),
                Event::ChannelDrop { .. }
                | Event::ChannelExpire { .. }
                | Event::Corruption { .. } => {}
            }
        }
        hist
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace over X = {} ({} steps)", self.input, self.steps)?;
        for e in &self.events {
            writeln!(f, "  t={:<4} {}", e.step, e.event)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new(DataSeq::from_indices([1, 0]));
        t.record(
            0,
            Event::Read {
                item: DataItem(1),
                pos: 0,
            },
        );
        t.record(0, Event::SendS { msg: SMsg(1) });
        t.record(1, Event::DeliverToR { msg: SMsg(1) });
        t.record(
            1,
            Event::Write {
                item: DataItem(1),
                pos: 0,
            },
        );
        t.record(1, Event::SendR { msg: RMsg(1) });
        t.record(2, Event::DeliverToS { msg: RMsg(1) });
        t.record(
            2,
            Event::Read {
                item: DataItem(0),
                pos: 1,
            },
        );
        t.record(2, Event::SendS { msg: SMsg(0) });
        t.record(3, Event::DeliverToR { msg: SMsg(0) });
        t.record(
            3,
            Event::Write {
                item: DataItem(0),
                pos: 1,
            },
        );
        t.set_steps(4);
        t
    }

    #[test]
    fn process_other_is_involution() {
        assert_eq!(ProcessId::Sender.other(), ProcessId::Receiver);
        assert_eq!(ProcessId::Receiver.other(), ProcessId::Sender);
        assert_eq!(ProcessId::Sender.other().other(), ProcessId::Sender);
    }

    #[test]
    fn visibility_matrix() {
        use Event::*;
        use ProcessId::*;
        assert!(SendS { msg: SMsg(0) }.visible_to(Sender));
        assert!(!SendS { msg: SMsg(0) }.visible_to(Receiver));
        assert!(DeliverToR { msg: SMsg(0) }.visible_to(Receiver));
        assert!(!DeliverToR { msg: SMsg(0) }.visible_to(Sender));
        assert!(Read {
            item: DataItem(0),
            pos: 0
        }
        .visible_to(Sender));
        assert!(Write {
            item: DataItem(0),
            pos: 0
        }
        .visible_to(Receiver));
        assert!(!ChannelDrop {
            to: Receiver,
            msg: 0
        }
        .visible_to(Receiver));
        assert!(!ChannelDrop {
            to: Receiver,
            msg: 0
        }
        .visible_to(Sender));
    }

    #[test]
    fn output_reconstruction() {
        let t = sample_trace();
        assert_eq!(t.output(), DataSeq::from_indices([1, 0]));
        assert_eq!(t.output_at(0), DataSeq::new());
        assert_eq!(t.output_at(2), DataSeq::from_indices([1]));
        assert_eq!(t.output_at(4), DataSeq::from_indices([1, 0]));
    }

    #[test]
    fn counting_helpers() {
        let t = sample_trace();
        assert_eq!(t.reads(), 2);
        assert_eq!(t.sends_by_s(), 2);
        assert_eq!(t.sends_by_r(), 1);
        assert_eq!(t.deliveries_to_r(), 2);
        assert_eq!(t.deliveries_to_s(), 1);
        assert_eq!(t.write_steps(), vec![1, 3]);
    }

    #[test]
    fn dlvrble_vectors() {
        let t = sample_trace();
        // Before step 1: s1 sent once, not delivered.
        assert_eq!(t.dlvrble_r_del(1, 2), vec![0, 1]);
        // Before step 2: s1 delivered.
        assert_eq!(t.dlvrble_r_del(2, 2), vec![0, 0]);
        // Before step 3: s0 sent, pending.
        assert_eq!(t.dlvrble_r_del(3, 2), vec![1, 0]);
        assert_eq!(t.dlvrble_r_dup(1, 2), vec![false, true]);
        assert_eq!(t.dlvrble_r_dup(3, 2), vec![true, true]);
    }

    #[test]
    fn local_histories_respect_visibility() {
        let t = sample_trace();
        let hr = t.local_history(ProcessId::Receiver, 4);
        assert_eq!(hr.len(), 4);
        // Step 0: R sees nothing.
        assert_eq!(hr[0], LocalStep::default());
        // Step 1: R receives s1, writes d1, sends r1.
        assert_eq!(hr[1].received, vec![1]);
        assert_eq!(hr[1].sent, vec![1]);
        assert_eq!(hr[1].tape, vec![DataItem(1)]);
        let hs = t.local_history(ProcessId::Sender, 4);
        // Step 0: S reads and sends.
        assert_eq!(hs[0].tape, vec![DataItem(1)]);
        assert_eq!(hs[0].sent, vec![1]);
        assert!(hs[0].received.is_empty());
        // Step 2: S receives r1.
        assert_eq!(hs[2].received, vec![1]);
    }

    #[test]
    fn local_history_truncation() {
        let t = sample_trace();
        let h2 = t.local_history(ProcessId::Receiver, 2);
        let h4 = t.local_history(ProcessId::Receiver, 4);
        assert_eq!(h2[..], h4[..2]);
        // Requesting beyond the trace clamps.
        let h9 = t.local_history(ProcessId::Receiver, 9);
        assert_eq!(h9.len(), 4);
    }

    #[test]
    fn trace_mode_records_matrix() {
        let write = Event::Write {
            item: DataItem(0),
            pos: 0,
        };
        let send = Event::SendS { msg: SMsg(0) };
        assert!(TraceMode::Full.records(&write));
        assert!(TraceMode::Full.records(&send));
        assert!(!TraceMode::Off.records(&write));
        assert!(!TraceMode::Off.records(&send));
        assert_eq!(TraceMode::default(), TraceMode::Full);
        let json = serde_json::to_string(&TraceMode::Off).unwrap();
        let back: TraceMode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, TraceMode::Off);
    }

    #[test]
    fn display_is_informative() {
        let t = sample_trace();
        let s = t.to_string();
        assert!(s.contains("write[0]=1"));
        assert!(s.contains("S!1"));
    }

    #[test]
    fn expiry_events_are_invisible_and_round_trip() {
        let e = Event::ChannelExpire {
            to: ProcessId::Receiver,
            msg: 2,
        };
        assert!(!e.visible_to(ProcessId::Sender));
        assert!(!e.visible_to(ProcessId::Receiver));
        assert_eq!(e.to_string(), "expire 2→R");
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        // Full traces record expiries; off traces do not.
        assert!(TraceMode::Full.records(&e));
        assert!(!TraceMode::Off.records(&e));
    }

    #[test]
    fn corruption_events_are_invisible_and_round_trip() {
        for kind in [
            CorruptionKind::ScrambleSender,
            CorruptionKind::ScrambleReceiver,
            CorruptionKind::DesyncSender,
            CorruptionKind::DesyncReceiver,
            CorruptionKind::InjectToR,
            CorruptionKind::InjectToS,
        ] {
            let e = Event::Corruption { kind, draw: 42 };
            assert!(!e.visible_to(ProcessId::Sender));
            assert!(!e.visible_to(ProcessId::Receiver));
            let json = serde_json::to_string(&e).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e);
            // Full traces record corruptions (they are part of the
            // replayable witness); stats-only traces do not.
            assert!(TraceMode::Full.records(&e));
            assert!(!TraceMode::Off.records(&e));
        }
        // Display strings are distinct per kind.
        let mut shown: Vec<String> = [
            CorruptionKind::ScrambleSender,
            CorruptionKind::ScrambleReceiver,
            CorruptionKind::DesyncSender,
            CorruptionKind::DesyncReceiver,
            CorruptionKind::InjectToR,
            CorruptionKind::InjectToS,
        ]
        .iter()
        .map(|k| k.to_string())
        .collect();
        shown.sort();
        shown.dedup();
        assert_eq!(shown.len(), 6);
    }

    /// A minimal probe that counts its callbacks, exercising the trait's
    /// object-safety and the `as_any` recovery path.
    #[derive(Debug, Default)]
    struct CountingProbe {
        starts: usize,
        events: usize,
        steps: Step,
    }

    impl Probe for CountingProbe {
        fn on_run_start(&mut self, _input: &DataSeq) {
            self.starts += 1;
            self.events = 0;
            self.steps = 0;
        }
        fn on_event(&mut self, _step: Step, _event: &Event) {
            self.events += 1;
        }
        fn on_step_end(&mut self, step: Step) {
            self.steps = step + 1;
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn msg_ids_order_and_display() {
        assert!(MsgId(0) < MsgId(1));
        assert_eq!(MsgId(17).to_string(), "#17");
        let json = serde_json::to_string(&MsgId(3)).unwrap();
        let back: MsgId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, MsgId(3));
    }

    #[test]
    fn msg_event_accessors_and_round_trip() {
        let sent = MsgEvent::Sent {
            id: MsgId(4),
            to: ProcessId::Receiver,
            msg: 2,
            coalesced_into: Some(MsgId(1)),
        };
        assert_eq!(sent.id(), Some(MsgId(4)));
        assert_eq!(sent.to(), ProcessId::Receiver);
        assert_eq!(sent.msg(), 2);
        assert!(sent.to_string().contains("coalesced into #1"));
        let dropped = MsgEvent::Dropped {
            id: None,
            to: ProcessId::Sender,
            msg: 0,
        };
        assert_eq!(dropped.id(), None);
        assert!(dropped.to_string().contains("#?"));
        for e in [
            sent,
            dropped,
            MsgEvent::Delivered {
                id: Some(MsgId(9)),
                to: ProcessId::Receiver,
                msg: 5,
            },
            MsgEvent::Expired {
                id: Some(MsgId(0)),
                to: ProcessId::Sender,
                msg: 1,
            },
        ] {
            let json = serde_json::to_string(&e).unwrap();
            let back: MsgEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn probe_trait_is_object_safe_and_recoverable() {
        let mut boxed: Box<dyn Probe> = Box::new(CountingProbe::default());
        boxed.on_run_start(&DataSeq::from_indices([1, 0]));
        boxed.on_event(0, &Event::SendS { msg: SMsg(1) });
        boxed.on_step_end(0);
        boxed.on_step_end(1);
        let concrete = boxed
            .as_any()
            .downcast_ref::<CountingProbe>()
            .expect("probe recovers its concrete type");
        assert_eq!(concrete.starts, 1);
        assert_eq!(concrete.events, 1);
        assert_eq!(concrete.steps, 2);
    }
}
