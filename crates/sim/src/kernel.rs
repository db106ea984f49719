//! The step kernel: the paper's §2.2 global step, written once.
//!
//! [`World`](crate::World) is the only caller: every run advances by
//! calling [`step`], including each session of the
//! [`SessionEngine`](crate::SessionEngine), whose slots are pooled worlds.
//! The kernel borrows the four components and the input tape, counts into
//! the run's [`RunStats`], and reports everything observable to a
//! [`StepSink`]. The sink decides what a caller sees:
//!
//! * an observed world's recorder keeps the trace, fans events out to
//!   probes and records per-message provenance;
//! * the [`Quiet`] sink is a unit struct with empty hooks and no
//!   provenance, so under monomorphization every hook call — and the event
//!   it would have carried — compiles away, exactly as
//!   [`NoObs`](crate::prof::NoObs) does for the profiler's phase marks.
//!   An unobserved world (trace [`Off`](stp_core::event::TraceMode::Off),
//!   no probes, provenance off) holds no recorder and steps through it:
//!   the sweep engine's E1 cells and every session slot.
//!
//! One step, in order:
//!
//! 1. the scheduler decides deletions, corruptions and at most one
//!    delivery per direction;
//! 2. deletions apply (they model in-transit loss), then corruption
//!    strikes, then deliveries against the post-deletion state
//!    (infeasible choices are ignored);
//! 3. the sender and then the receiver handle their event — `Init` at
//!    step 0, `Deliver(m)` if a message arrived, `Tick` otherwise;
//! 4. outputs apply after the deliveries: writes, then sends, so nothing
//!    is delivered in the step it was sent;
//! 5. the channel's clock advances and copies it expired count as drops.

use crate::metrics::RunStats;
use crate::prof::{Phase, StepObs};
use stp_channel::{Channel, Scheduler};
use stp_core::alphabet::{RMsg, SMsg};
use stp_core::data::DataSeq;
use stp_core::event::{CorruptionKind, Event, ProcessId, Step};
use stp_core::proto::{Receiver, ReceiverEvent, Sender, SenderEvent};

/// The four machines one step drives, borrowed for the step.
pub(crate) struct Components<'a> {
    pub(crate) sender: &'a mut dyn Sender,
    pub(crate) receiver: &'a mut dyn Receiver,
    pub(crate) channel: &'a mut dyn Channel,
    pub(crate) scheduler: &'a mut dyn Scheduler,
}

/// Buffers the expiry drain reuses from step to step, so a warmed step
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    expired_r: Vec<SMsg>,
    expired_s: Vec<RMsg>,
}

/// Where a step reports what happened. The kernel calls a hook at every
/// observable point, in execution order; the provenance hooks
/// (`sent`, `dropped`, `delivered`) only when [`StepSink::provenance`]
/// holds, after the channel operation they describe.
pub(crate) trait StepSink {
    /// Whether the sink follows individual copies by
    /// [`MsgId`](stp_core::event::MsgId).
    fn provenance(&self) -> bool;

    /// A plain trace event happened at step `t`.
    fn event(&mut self, t: Step, event: Event);

    /// The sender handled its event: tape reads it made are now visible.
    fn sender_stepped(&mut self, t: Step, sender: &dyn Sender);

    /// A copy of `msg` addressed to `to` went onto the channel (a send or
    /// an injected forgery).
    fn sent(&mut self, t: Step, channel: &mut dyn Channel, to: ProcessId, msg: u16);

    /// The adversary destroyed a copy of `msg` addressed to `to`.
    fn dropped(&mut self, t: Step, channel: &mut dyn Channel, to: ProcessId, msg: u16);

    /// A copy of `msg` was delivered to `to`.
    fn delivered(&mut self, t: Step, channel: &mut dyn Channel, to: ProcessId, msg: u16);

    /// The channel expired these copies this step. Called only when at
    /// least one copy expired: the common step expires nothing, and a
    /// hook call per step was measurably slower on the sweep workload.
    fn expired(&mut self, t: Step, channel: &mut dyn Channel, to_r: &[SMsg], to_s: &[RMsg]);

    /// Step `t` finished; `t + 1` steps have run.
    fn step_end<O: StepObs>(&mut self, t: Step, obs: &mut O);
}

/// The sink that observes nothing: the step of an unobserved world, and so
/// of every session slot. It holds nothing and its hooks are empty, so the
/// kernel monomorphized over it does only the counting.
pub(crate) struct Quiet;

impl StepSink for Quiet {
    #[inline(always)]
    fn provenance(&self) -> bool {
        false
    }

    #[inline(always)]
    fn event(&mut self, _t: Step, _event: Event) {}

    #[inline(always)]
    fn sender_stepped(&mut self, _t: Step, _sender: &dyn Sender) {}

    #[inline(always)]
    fn sent(&mut self, _t: Step, _channel: &mut dyn Channel, _to: ProcessId, _msg: u16) {}

    #[inline(always)]
    fn dropped(&mut self, _t: Step, _channel: &mut dyn Channel, _to: ProcessId, _msg: u16) {}

    #[inline(always)]
    fn delivered(&mut self, _t: Step, _channel: &mut dyn Channel, _to: ProcessId, _msg: u16) {}

    #[inline(always)]
    fn expired(&mut self, _t: Step, _channel: &mut dyn Channel, _r: &[SMsg], _s: &[RMsg]) {}

    #[inline(always)]
    fn step_end<O: StepObs>(&mut self, _t: Step, _obs: &mut O) {}
}

/// Executes global step `stats.steps` of a run on the input tape `input`,
/// against which every write is checked for safety.
///
/// `obs` marks phase boundaries for the profiler (`NoObs` compiles them
/// away); `deliver`/`expire` carry the channel kind so channel cost
/// splits per kind.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn step<O: StepObs, K: StepSink>(
    c: Components<'_>,
    input: &DataSeq,
    stats: &mut RunStats,
    scratch: &mut Scratch,
    obs: &mut O,
    sink: &mut K,
    deliver: Phase,
    expire: Phase,
) {
    let Components {
        sender,
        receiver,
        channel,
        scheduler,
    } = c;
    obs.mark(Phase::SchedulerDecide);
    let t = stats.steps;
    scheduler.note_progress(t, stats.written);
    let decision = scheduler.decide(t, channel);

    // Adversarial deletions first (they model in-transit loss).
    obs.mark(deliver);
    for &msg in &decision.delete_to_r {
        if channel.delete_to_r(msg).is_ok() {
            stats.drops += 1;
            let to = ProcessId::Receiver;
            sink.event(t, Event::ChannelDrop { to, msg: msg.0 });
            if sink.provenance() {
                sink.dropped(t, channel, to, msg.0);
            }
        }
    }
    for &msg in &decision.delete_to_s {
        if channel.delete_to_s(msg).is_ok() {
            stats.drops += 1;
            let to = ProcessId::Sender;
            sink.event(t, Event::ChannelDrop { to, msg: msg.0 });
            if sink.provenance() {
                sink.dropped(t, channel, to, msg.0);
            }
        }
    }

    // Transient corruption strikes land between loss and delivery: state
    // scrambles and counter desyncs call the processors' opt-in hooks (a
    // protocol without them absorbs the strike), injections forge a
    // message onto the channel as if the peer had sent it, with the
    // payload reduced modulo the victim's alphabet. A strike is recorded
    // only when it took effect, so a scripted replay re-applies exactly
    // the strikes that mattered. Forged copies are not recorded as sends
    // — that would misattribute them to a processor and double-send on
    // replay — but they do get provenance ids.
    for cmd in &decision.corruptions {
        let applied = match cmd.kind {
            CorruptionKind::ScrambleSender => sender.scramble(cmd.draw),
            CorruptionKind::ScrambleReceiver => receiver.scramble(cmd.draw),
            CorruptionKind::DesyncSender => sender.desync(cmd.draw),
            CorruptionKind::DesyncReceiver => receiver.desync(cmd.draw),
            CorruptionKind::InjectToR => {
                let size = sender.alphabet().size();
                size != 0 && {
                    let m = SMsg((cmd.draw % u64::from(size)) as u16);
                    channel.send_s(m);
                    if sink.provenance() {
                        sink.sent(t, channel, ProcessId::Receiver, m.0);
                    }
                    true
                }
            }
            CorruptionKind::InjectToS => {
                let size = receiver.alphabet().size();
                size != 0 && {
                    let m = RMsg((cmd.draw % u64::from(size)) as u16);
                    channel.send_r(m);
                    if sink.provenance() {
                        sink.sent(t, channel, ProcessId::Sender, m.0);
                    }
                    true
                }
            }
        };
        if applied {
            let (kind, draw) = (cmd.kind, cmd.draw);
            sink.event(t, Event::Corruption { kind, draw });
        }
    }

    // Deliveries, against the post-deletion state.
    let delivered_to_s = decision
        .deliver_to_s
        .filter(|m| channel.deliver_to_s(*m).is_ok());
    if let Some(m) = delivered_to_s {
        stats.deliveries_s += 1;
        sink.event(t, Event::DeliverToS { msg: m });
        if sink.provenance() {
            sink.delivered(t, channel, ProcessId::Sender, m.0);
        }
    }
    let delivered_to_r = decision
        .deliver_to_r
        .filter(|m| channel.deliver_to_r(*m).is_ok());
    if let Some(m) = delivered_to_r {
        stats.deliveries_r += 1;
        sink.event(t, Event::DeliverToR { msg: m });
        if sink.provenance() {
            sink.delivered(t, channel, ProcessId::Receiver, m.0);
        }
    }

    // Processor steps. The receiver's step emits no events, so reporting
    // the sender's tape reads before it keeps the trace order and saves
    // a pair of phase marks.
    obs.mark(Phase::SenderStep);
    let (s_event, r_event) = if t == 0 {
        (SenderEvent::Init, ReceiverEvent::Init)
    } else {
        (
            delivered_to_s.map_or(SenderEvent::Tick, SenderEvent::Deliver),
            delivered_to_r.map_or(ReceiverEvent::Tick, ReceiverEvent::Deliver),
        )
    };
    let s_out = sender.on_event(s_event);
    sink.sender_stepped(t, sender);
    obs.mark(Phase::ReceiverStep);
    let r_out = receiver.on_event(r_event);

    // Outputs apply after deliveries: sends become deliverable next step
    // at the earliest. Positions are assigned consecutively, so safety
    // reduces to "each written item matches the input at its position" —
    // exactly what `require::check_safety` verifies on full traces.
    for &item in r_out.write.iter() {
        let pos = stats.written;
        stats.safe &= input.get(pos) == Some(item);
        stats.write_steps.push(t);
        sink.event(t, Event::Write { item, pos });
        stats.written += 1;
    }
    obs.mark(deliver);
    for &m in s_out.send.iter() {
        channel.send_s(m);
        stats.sends_s += 1;
        sink.event(t, Event::SendS { msg: m });
        if sink.provenance() {
            sink.sent(t, channel, ProcessId::Receiver, m.0);
        }
    }
    for &m in r_out.send.iter() {
        channel.send_r(m);
        stats.sends_r += 1;
        sink.event(t, Event::SendR { msg: m });
        if sink.provenance() {
            sink.sent(t, channel, ProcessId::Sender, m.0);
        }
    }

    // Channel clock, then the expiry drain: copies the channel itself
    // destroyed count as drops exactly like adversarial loss.
    obs.mark(expire);
    channel.tick();
    channel.take_expirations(&mut scratch.expired_r, &mut scratch.expired_s);
    if !(scratch.expired_r.is_empty() && scratch.expired_s.is_empty()) {
        stats.drops += scratch.expired_r.len() + scratch.expired_s.len();
        sink.expired(t, channel, &scratch.expired_r, &scratch.expired_s);
        scratch.expired_r.clear();
        scratch.expired_s.clear();
    }

    obs.mark(Phase::Bookkeeping);
    stats.steps = t + 1;
    sink.step_end(t, obs);
}
