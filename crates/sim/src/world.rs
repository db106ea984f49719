//! The lock-step world executor.

use crate::error::SimError;
use crate::metrics::RunStats;
use crate::prof::{NoObs, Phase, PhaseProfiler, ProfObs, StepObs};
use stp_channel::{Channel, CorruptionCommand, DelChannel, DupChannel, EagerScheduler, Scheduler};
use stp_core::alphabet::{RMsg, SMsg};
use stp_core::data::DataSeq;
use stp_core::event::{
    CorruptionKind, Event, MsgEvent, MsgId, Probe, ProcessId, Step, Trace, TraceMode,
};
use stp_core::proto::{Receiver, ReceiverEvent, Sender, SenderEvent};
use stp_core::require;
use stp_protocols::{ResendPolicy, TightReceiver, TightSender};

/// A complete simulated system: two processors, a channel, an adversary,
/// and the trace being recorded.
///
/// Assemble one with [`World::builder`]; the [`TraceMode`] chosen there
/// decides what the trace remembers, while the aggregate counters behind
/// [`World::stats`] are maintained in every mode. A finished world can be
/// rewound with [`World::reset`] and reused for another run, which is how
/// the sweep engine amortizes allocation across a grid.
#[derive(Debug)]
pub struct World {
    sender: Box<dyn Sender>,
    receiver: Box<dyn Receiver>,
    channel: Box<dyn Channel>,
    scheduler: Box<dyn Scheduler>,
    trace: Trace,
    mode: TraceMode,
    probes: Vec<Box<dyn Probe>>,
    // Whether any attached probe asked for per-message provenance; decides
    // both the channel's id bookkeeping and `MsgEvent` emission.
    provenance: bool,
    // Indices into `probes` of the provenance-wanting (resp. plain-event-
    // wanting) ones, precomputed at build time so the per-event fan-outs
    // make one direct call per subscriber instead of asking every probe on
    // every event.
    prov_probes: Vec<usize>,
    event_probes: Vec<usize>,
    // Fast-path flag: every attached probe wants plain events (the common
    // case), so `record` can fan out with a direct slice walk instead of
    // the indexed one.
    all_want_events: bool,
    // Provenance is on AND the channel can actually lose copies (delete
    // or expire) — the only case the per-step loss-id bookkeeping has
    // anything to track.
    prov_loss: bool,
    // Ids are assigned densely from 0 per run, so `(seed, MsgId)` is
    // stable across pooled resets and re-runs of the same cell.
    next_msg_id: u64,
    step: Step,
    written: usize,
    reads_seen: usize,
    // Aggregate counters, maintained in every trace mode so stats-only
    // sweeps can skip event recording entirely.
    sends_s: usize,
    sends_r: usize,
    deliveries_r: usize,
    deliveries_s: usize,
    drops: usize,
    write_steps: Vec<Step>,
    safe: bool,
    // Scratch buffers for draining channel-initiated expiries once per
    // step without allocating.
    expiry_scratch_r: Vec<SMsg>,
    expiry_scratch_s: Vec<RMsg>,
    expiry_id_scratch_r: Vec<Option<MsgId>>,
    expiry_id_scratch_s: Vec<Option<MsgId>>,
    // Ids the adversary deleted during the current step, kept (under
    // provenance) to assert that the expiry drain never re-surfaces a copy
    // already reported dropped in the same step.
    deleted_ids_step: Vec<MsgId>,
}

/// Fluent assembly of a [`World`].
///
/// ```
/// use stp_channel::{DupChannel, EagerScheduler};
/// use stp_core::data::DataSeq;
/// use stp_protocols::{ResendPolicy, TightReceiver, TightSender};
/// use stp_sim::World;
///
/// let input = DataSeq::from_indices([1, 0]);
/// let mut w = World::builder(input.clone())
///     .sender(Box::new(TightSender::new(input, 2, ResendPolicy::Once)))
///     .receiver(Box::new(TightReceiver::new(2, ResendPolicy::Once)))
///     .channel(Box::new(DupChannel::new()))
///     .scheduler(Box::new(EagerScheduler::new()))
///     .build()
///     .unwrap();
/// assert!(w.run_to_completion(100).is_ok());
/// ```
#[derive(Debug)]
pub struct WorldBuilder {
    input: DataSeq,
    sender: Option<Box<dyn Sender>>,
    receiver: Option<Box<dyn Receiver>>,
    channel: Option<Box<dyn Channel>>,
    scheduler: Option<Box<dyn Scheduler>>,
    mode: TraceMode,
    probes: Vec<Box<dyn Probe>>,
}

impl WorldBuilder {
    /// Sets the sender.
    pub fn sender(mut self, sender: Box<dyn Sender>) -> Self {
        self.sender = Some(sender);
        self
    }

    /// Sets the receiver.
    pub fn receiver(mut self, receiver: Box<dyn Receiver>) -> Self {
        self.receiver = Some(receiver);
        self
    }

    /// Sets the channel.
    pub fn channel(mut self, channel: Box<dyn Channel>) -> Self {
        self.channel = Some(channel);
        self
    }

    /// Sets the adversarial scheduler.
    pub fn scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Sets the trace-recording mode (default: [`TraceMode::Full`]).
    pub fn mode(mut self, mode: TraceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches a streaming [`Probe`], which observes every event of every
    /// run regardless of the trace mode (default: none). Call repeatedly
    /// to attach several probes — they are driven in attachment order. The
    /// world calls `Probe::on_run_start` at assembly and on every
    /// [`World::reset`]; recover a concrete probe afterwards with
    /// [`World::probe_of`]. If any attached probe answers
    /// [`Probe::wants_provenance`], the world enables the channel's
    /// per-copy id tracking and feeds every provenance-aware probe a
    /// [`MsgEvent`] stream alongside the plain events.
    pub fn probe(mut self, probe: Box<dyn Probe>) -> Self {
        self.probes.push(probe);
        self
    }

    /// Assembles the world.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MissingComponent`] naming the first component
    /// that was never supplied.
    pub fn build(self) -> Result<World, SimError> {
        let missing = |component| SimError::MissingComponent { component };
        let mut world = World::assemble(
            self.input,
            self.sender.ok_or_else(|| missing("sender"))?,
            self.receiver.ok_or_else(|| missing("receiver"))?,
            self.channel.ok_or_else(|| missing("channel"))?,
            self.scheduler.ok_or_else(|| missing("scheduler"))?,
            self.mode,
        );
        world.probes = self.probes;
        world.prov_probes = world
            .probes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.wants_provenance())
            .map(|(i, _)| i)
            .collect();
        world.provenance = !world.prov_probes.is_empty();
        world.event_probes = world
            .probes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.wants_events())
            .map(|(i, _)| i)
            .collect();
        world.all_want_events = world.event_probes.len() == world.probes.len();
        // Provenance must be switched on before the first send of the run;
        // the flag survives channel resets, so this is a build-time choice.
        world.channel.set_provenance(world.provenance);
        world.prov_loss =
            world.provenance && (world.channel.can_delete() || world.channel.can_expire());
        for p in &mut world.probes {
            p.on_run_start(world.trace.input());
        }
        Ok(world)
    }
}

impl World {
    /// Starts assembling a world for `input`.
    pub fn builder(input: DataSeq) -> WorldBuilder {
        WorldBuilder {
            input,
            sender: None,
            receiver: None,
            channel: None,
            scheduler: None,
            mode: TraceMode::default(),
            probes: Vec::new(),
        }
    }

    fn assemble(
        input: DataSeq,
        sender: Box<dyn Sender>,
        receiver: Box<dyn Receiver>,
        channel: Box<dyn Channel>,
        scheduler: Box<dyn Scheduler>,
        mode: TraceMode,
    ) -> Self {
        World {
            sender,
            receiver,
            channel,
            scheduler,
            trace: Trace::new(input),
            mode,
            probes: Vec::new(),
            provenance: false,
            prov_probes: Vec::new(),
            event_probes: Vec::new(),
            all_want_events: true,
            prov_loss: false,
            next_msg_id: 0,
            step: 0,
            written: 0,
            reads_seen: 0,
            sends_s: 0,
            sends_r: 0,
            deliveries_r: 0,
            deliveries_s: 0,
            drops: 0,
            write_steps: Vec::new(),
            safe: true,
            expiry_scratch_r: Vec::new(),
            expiry_scratch_s: Vec::new(),
            expiry_id_scratch_r: Vec::new(),
            expiry_id_scratch_s: Vec::new(),
            deleted_ids_step: Vec::new(),
        }
    }

    /// Convenience: the paper's tight protocol on `input` over a
    /// duplicating channel with an eager scheduler.
    pub fn tight_dup(input: DataSeq, d: u16) -> Self {
        World::builder(input.clone())
            .sender(Box::new(TightSender::new(input, d, ResendPolicy::Once)))
            .receiver(Box::new(TightReceiver::new(d, ResendPolicy::Once)))
            .channel(Box::new(DupChannel::new()))
            .scheduler(Box::new(EagerScheduler::new()))
            .build()
            .expect("all components supplied")
    }

    /// Convenience: the tight protocol (retransmitting variant) on `input`
    /// over a deleting channel with an eager scheduler.
    pub fn tight_del(input: DataSeq, d: u16) -> Self {
        World::builder(input.clone())
            .sender(Box::new(TightSender::new(
                input,
                d,
                ResendPolicy::EveryTick,
            )))
            .receiver(Box::new(TightReceiver::new(d, ResendPolicy::EveryTick)))
            .channel(Box::new(DelChannel::new()))
            .scheduler(Box::new(EagerScheduler::new()))
            .build()
            .expect("all components supplied")
    }

    /// Rewinds the world for a fresh run on `input`, re-deriving the
    /// scheduler's randomized state from `seed`.
    ///
    /// All four components are reset in place (see [`Sender::reset`] for
    /// the contract), the trace is replaced, and every counter is zeroed —
    /// the subsequent run is bit-identical to one on a freshly built
    /// world, without re-boxing anything.
    pub fn reset(&mut self, input: &DataSeq, seed: u64) {
        self.sender.reset(input);
        self.receiver.reset();
        self.channel.reset();
        self.scheduler.reset(seed);
        self.trace.reset(input);
        self.next_msg_id = 0;
        self.step = 0;
        self.written = 0;
        self.reads_seen = 0;
        self.sends_s = 0;
        self.sends_r = 0;
        self.deliveries_r = 0;
        self.deliveries_s = 0;
        self.drops = 0;
        self.write_steps.clear();
        self.safe = true;
        self.expiry_scratch_r.clear();
        self.expiry_scratch_s.clear();
        self.expiry_id_scratch_r.clear();
        self.expiry_id_scratch_s.clear();
        self.deleted_ids_step.clear();
        for p in &mut self.probes {
            p.on_run_start(self.trace.input());
        }
    }

    /// The trace-recording mode this world was assembled with.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// The current global step (number of steps executed so far).
    pub fn step_count(&self) -> Step {
        self.step
    }

    /// The trace recorded so far. Under [`TraceMode::WritesOnly`] it holds
    /// only `Write` events; under [`TraceMode::Off`] it holds no events at
    /// all — use [`World::stats`] for the aggregates in those modes.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Aggregate statistics of the run so far, maintained incrementally in
    /// every trace mode. Under [`TraceMode::Full`] this equals
    /// [`RunStats::of`] on the recorded trace.
    pub fn stats(&self) -> RunStats {
        RunStats {
            steps: self.step,
            sends_s: self.sends_s,
            sends_r: self.sends_r,
            deliveries_r: self.deliveries_r,
            deliveries_s: self.deliveries_s,
            drops: self.drops,
            written: self.written,
            input_len: self.trace.input().len(),
            safe: self.safe,
            write_steps: self.write_steps.clone(),
        }
    }

    /// The channel, for inspection.
    pub fn channel(&self) -> &dyn Channel {
        &*self.channel
    }

    /// The sender, for inspection.
    pub fn sender(&self) -> &dyn Sender {
        &*self.sender
    }

    /// The receiver, for inspection.
    pub fn receiver(&self) -> &dyn Receiver {
        &*self.receiver
    }

    /// Number of items written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// A hash of the live system state — sender and receiver fingerprints,
    /// the channel's canonical state key, and the output length. Two worlds
    /// with equal fingerprints are (up to hash collision) in the same
    /// global state, so a run revisiting a fingerprint has entered a cycle.
    /// This is what the certificate checker compares when replaying a
    /// fair-cycle witness.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.sender.fingerprint().hash(&mut h);
        self.receiver.fingerprint().hash(&mut h);
        self.channel.state_key().hash(&mut h);
        self.written.hash(&mut h);
        h.finish()
    }

    /// Clones the live parts of the system — `(sender, receiver, channel,
    /// written)` — so an analysis (e.g. the boundedness prober in
    /// `stp-verify`) can explore hypothetical extensions of this exact
    /// point without disturbing the run.
    #[allow(clippy::type_complexity)]
    pub fn fork_parts(&self) -> (Box<dyn Sender>, Box<dyn Receiver>, Box<dyn Channel>, usize) {
        (
            self.sender.box_clone(),
            self.receiver.box_clone(),
            self.channel.box_clone(),
            self.written,
        )
    }

    /// Whether the sender reports completion and the output covers the
    /// whole input.
    pub fn is_complete(&self) -> bool {
        self.sender.is_done() && self.written >= self.trace.input().len()
    }

    /// The first attached probe of concrete type `P`, if one is attached —
    /// how a harness reads a `MetricsProbe`'s statistics back out of a
    /// pooled world.
    pub fn probe_of<P: Probe + 'static>(&self) -> Option<&P> {
        self.probes.iter().find_map(|p| p.as_any().downcast_ref())
    }

    /// Mutable access to the first attached probe of concrete type `P`;
    /// see [`World::probe_of`].
    pub fn probe_of_mut<P: Probe + 'static>(&mut self) -> Option<&mut P> {
        self.probes
            .iter_mut()
            .find_map(|p| p.as_any_mut().downcast_mut())
    }

    /// Whether per-message provenance tracking is active for this world
    /// (at least one attached probe asked for it).
    pub fn provenance_enabled(&self) -> bool {
        self.provenance
    }

    fn record(&mut self, step: Step, event: Event) {
        // Subscribed probes see every event, in execution order,
        // regardless of what the trace mode keeps.
        if self.all_want_events {
            for p in &mut self.probes {
                p.on_event(step, &event);
            }
        } else {
            for &i in &self.event_probes {
                self.probes[i].on_event(step, &event);
            }
        }
        if self.mode.records(&event) {
            self.trace.record(step, event);
        }
    }

    fn emit_msg(&mut self, step: Step, event: MsgEvent) {
        for &i in &self.prov_probes {
            self.probes[i].on_msg_event(step, &event);
        }
    }

    /// Applies one step's corruption commands. Scramble/desync strikes
    /// call the processors' opt-in hooks (a protocol that does not
    /// implement them absorbs the strike silently); injections forge a
    /// message onto the channel as if the peer had sent it, with the
    /// payload reduced modulo the victim's alphabet. Forged copies are
    /// *not* recorded as `SendS`/`SendR` — that would misattribute them
    /// to a processor in the local-history projections and double-send
    /// on replay — but they do get provenance ids so message-lifecycle
    /// probes can follow them.
    fn apply_corruptions(&mut self, t: Step, commands: &[CorruptionCommand]) {
        for cmd in commands {
            let applied = match cmd.kind {
                CorruptionKind::ScrambleSender => self.sender.scramble(cmd.draw),
                CorruptionKind::ScrambleReceiver => self.receiver.scramble(cmd.draw),
                CorruptionKind::DesyncSender => self.sender.desync(cmd.draw),
                CorruptionKind::DesyncReceiver => self.receiver.desync(cmd.draw),
                CorruptionKind::InjectToR => {
                    let size = self.sender.alphabet().size();
                    if size == 0 {
                        false
                    } else {
                        let m = SMsg((cmd.draw % u64::from(size)) as u16);
                        self.channel.send_s(m);
                        if self.provenance {
                            let id = MsgId(self.next_msg_id);
                            self.next_msg_id += 1;
                            let filed = self.channel.note_send_s(m, id);
                            self.emit_msg(
                                t,
                                MsgEvent::Sent {
                                    id,
                                    to: ProcessId::Receiver,
                                    msg: m.0,
                                    coalesced_into: (filed != id).then_some(filed),
                                },
                            );
                        }
                        true
                    }
                }
                CorruptionKind::InjectToS => {
                    let size = self.receiver.alphabet().size();
                    if size == 0 {
                        false
                    } else {
                        let m = RMsg((cmd.draw % u64::from(size)) as u16);
                        self.channel.send_r(m);
                        if self.provenance {
                            let id = MsgId(self.next_msg_id);
                            self.next_msg_id += 1;
                            let filed = self.channel.note_send_r(m, id);
                            self.emit_msg(
                                t,
                                MsgEvent::Sent {
                                    id,
                                    to: ProcessId::Sender,
                                    msg: m.0,
                                    coalesced_into: (filed != id).then_some(filed),
                                },
                            );
                        }
                        true
                    }
                }
            };
            if applied {
                self.record(
                    t,
                    Event::Corruption {
                        kind: cmd.kind,
                        draw: cmd.draw,
                    },
                );
            }
        }
    }

    /// Executes one global step.
    pub fn step(&mut self) {
        // The phases are irrelevant under `NoObs` (marks compile away);
        // any pair works.
        self.step_impl(&mut NoObs, Phase::DeliverPerfect, Phase::ExpirePerfect);
    }

    // One global step observed through an open profiling window (the
    // threaded runner drives this directly when profiled).
    pub(crate) fn step_observed(&mut self, obs: &mut ProfObs, deliver: Phase, expire: Phase) {
        self.step_impl(obs, deliver, expire);
    }

    // The single source of truth for the step body. `O = NoObs`
    // monomorphizes every `obs.mark` to nothing, so the unprofiled
    // `step()` compiles to the same code as before the profiler existed;
    // `O = ProfObs` timestamps each phase boundary. `deliver`/`expire`
    // carry the channel kind so cost splits per kind.
    fn step_impl<O: StepObs>(&mut self, obs: &mut O, deliver: Phase, expire: Phase) {
        obs.mark(Phase::SchedulerDecide);
        let t = self.step;
        self.scheduler.note_progress(t, self.written);
        let decision = self.scheduler.decide(t, &*self.channel);
        if self.prov_loss {
            self.deleted_ids_step.clear();
        }

        // Adversarial deletions first (they model in-transit loss).
        obs.mark(deliver);
        for i in 0..decision.delete_to_r.len() {
            let msg = decision.delete_to_r[i];
            if self.channel.delete_to_r(msg).is_ok() {
                self.drops += 1;
                self.record(
                    t,
                    Event::ChannelDrop {
                        to: ProcessId::Receiver,
                        msg: msg.0,
                    },
                );
                if self.provenance {
                    let id = self.channel.take_deleted_id_to_r();
                    self.deleted_ids_step.extend(id);
                    self.emit_msg(
                        t,
                        MsgEvent::Dropped {
                            id,
                            to: ProcessId::Receiver,
                            msg: msg.0,
                        },
                    );
                }
            }
        }
        for i in 0..decision.delete_to_s.len() {
            let msg = decision.delete_to_s[i];
            if self.channel.delete_to_s(msg).is_ok() {
                self.drops += 1;
                self.record(
                    t,
                    Event::ChannelDrop {
                        to: ProcessId::Sender,
                        msg: msg.0,
                    },
                );
                if self.provenance {
                    let id = self.channel.take_deleted_id_to_s();
                    self.deleted_ids_step.extend(id);
                    self.emit_msg(
                        t,
                        MsgEvent::Dropped {
                            id,
                            to: ProcessId::Sender,
                            msg: msg.0,
                        },
                    );
                }
            }
        }

        // Transient corruption strikes land between loss and delivery:
        // state scrambles and counter desyncs call the processors' opt-in
        // hooks, injections forge messages onto the channel. A strike is
        // recorded (as `Event::Corruption`) only when it took effect, so
        // a scripted replay re-applies exactly the strikes that mattered.
        if !decision.corruptions.is_empty() {
            self.apply_corruptions(t, &decision.corruptions);
        }

        // Deliveries (against the post-deletion state; infeasible choices
        // are ignored, which keeps adversaries honest without crashing).
        let delivered_to_s = decision
            .deliver_to_s
            .filter(|m| self.channel.deliver_to_s(*m).is_ok());
        if let Some(m) = delivered_to_s {
            self.deliveries_s += 1;
            self.record(t, Event::DeliverToS { msg: m });
            if self.provenance {
                let id = self.channel.take_delivered_id_to_s();
                self.emit_msg(
                    t,
                    MsgEvent::Delivered {
                        id,
                        to: ProcessId::Sender,
                        msg: m.0,
                    },
                );
            }
        }
        let delivered_to_r = decision
            .deliver_to_r
            .filter(|m| self.channel.deliver_to_r(*m).is_ok());
        if let Some(m) = delivered_to_r {
            self.deliveries_r += 1;
            self.record(t, Event::DeliverToR { msg: m });
            if self.provenance {
                let id = self.channel.take_delivered_id_to_r();
                self.emit_msg(
                    t,
                    MsgEvent::Delivered {
                        id,
                        to: ProcessId::Receiver,
                        msg: m.0,
                    },
                );
            }
        }

        // Processor steps.
        obs.mark(Phase::SenderStep);
        let s_event = if t == 0 {
            SenderEvent::Init
        } else {
            match delivered_to_s {
                Some(m) => SenderEvent::Deliver(m),
                None => SenderEvent::Tick,
            }
        };
        let r_event = if t == 0 {
            ReceiverEvent::Init
        } else {
            match delivered_to_r {
                Some(m) => ReceiverEvent::Deliver(m),
                None => ReceiverEvent::Tick,
            }
        };
        let s_out = self.sender.on_event(s_event);
        // Record tape reads the sender performed during this step. The
        // receiver's step emits no events, so recording them before it
        // keeps the trace order and saves a pair of phase marks.
        let reads_now = self.sender.reads();
        for pos in self.reads_seen..reads_now {
            if let Some(item) = self.trace.input().get(pos) {
                self.record(t, Event::Read { item, pos });
            }
        }
        self.reads_seen = reads_now;

        obs.mark(Phase::ReceiverStep);
        let r_out = self.receiver.on_event(r_event);

        // Apply outputs after deliveries: sends become deliverable next
        // step at the earliest.
        for &item in r_out.write.iter() {
            // Positions are assigned consecutively, so safety reduces to
            // "each written item matches the input at its position" —
            // exactly what `require::check_safety` verifies on full traces.
            self.safe &= self.trace.input().get(self.written) == Some(item);
            self.write_steps.push(t);
            self.record(
                t,
                Event::Write {
                    item,
                    pos: self.written,
                },
            );
            self.written += 1;
        }
        obs.mark(deliver);
        for &m in s_out.send.iter() {
            self.channel.send_s(m);
            self.sends_s += 1;
            self.record(t, Event::SendS { msg: m });
            if self.provenance {
                let id = MsgId(self.next_msg_id);
                self.next_msg_id += 1;
                let filed = self.channel.note_send_s(m, id);
                self.emit_msg(
                    t,
                    MsgEvent::Sent {
                        id,
                        to: ProcessId::Receiver,
                        msg: m.0,
                        coalesced_into: (filed != id).then_some(filed),
                    },
                );
            }
        }
        for &m in r_out.send.iter() {
            self.channel.send_r(m);
            self.sends_r += 1;
            self.record(t, Event::SendR { msg: m });
            if self.provenance {
                let id = MsgId(self.next_msg_id);
                self.next_msg_id += 1;
                let filed = self.channel.note_send_r(m, id);
                self.emit_msg(
                    t,
                    MsgEvent::Sent {
                        id,
                        to: ProcessId::Sender,
                        msg: m.0,
                        coalesced_into: (filed != id).then_some(filed),
                    },
                );
            }
        }

        // Channel clock (timed channels expire messages here), then the
        // expiry drain: copies the channel itself destroyed this step are
        // counted — and evented — exactly like adversarial loss, except as
        // `ChannelExpire` so replay does not re-inject them.
        obs.mark(expire);
        self.channel.tick();
        self.channel
            .take_expirations(&mut self.expiry_scratch_r, &mut self.expiry_scratch_s);
        if self.prov_loss {
            self.channel
                .take_expiration_ids(&mut self.expiry_id_scratch_r, &mut self.expiry_id_scratch_s);
            // A copy the adversary already deleted this step left the
            // channel then — it must never re-surface through the expiry
            // drain, or drops would be double-counted.
            debug_assert!(
                self.expiry_id_scratch_r
                    .iter()
                    .chain(self.expiry_id_scratch_s.iter())
                    .flatten()
                    .all(|id| !self.deleted_ids_step.contains(id)),
                "take_expirations yielded a copy already reported dropped this step"
            );
        }
        for i in 0..self.expiry_scratch_r.len() {
            let msg = self.expiry_scratch_r[i];
            self.drops += 1;
            self.record(
                t,
                Event::ChannelExpire {
                    to: ProcessId::Receiver,
                    msg: msg.0,
                },
            );
            if self.provenance {
                let id = self.expiry_id_scratch_r.get(i).copied().flatten();
                self.emit_msg(
                    t,
                    MsgEvent::Expired {
                        id,
                        to: ProcessId::Receiver,
                        msg: msg.0,
                    },
                );
            }
        }
        for i in 0..self.expiry_scratch_s.len() {
            let msg = self.expiry_scratch_s[i];
            self.drops += 1;
            self.record(
                t,
                Event::ChannelExpire {
                    to: ProcessId::Sender,
                    msg: msg.0,
                },
            );
            if self.provenance {
                let id = self.expiry_id_scratch_s.get(i).copied().flatten();
                self.emit_msg(
                    t,
                    MsgEvent::Expired {
                        id,
                        to: ProcessId::Sender,
                        msg: msg.0,
                    },
                );
            }
        }
        self.expiry_scratch_r.clear();
        self.expiry_scratch_s.clear();
        self.expiry_id_scratch_r.clear();
        self.expiry_id_scratch_s.clear();

        obs.mark(Phase::Bookkeeping);
        self.step += 1;
        self.trace.set_steps(self.step);
        // Without probes there is nothing to dispatch, and no clock
        // reads are spent on an empty phase.
        if !self.probes.is_empty() {
            obs.mark(Phase::ProbeDispatch);
            for p in &mut self.probes {
                p.on_step_end(t);
            }
            obs.mark(Phase::Bookkeeping);
        }
    }

    /// Runs exactly `steps` global steps and returns the trace.
    pub fn run(&mut self, steps: Step) -> &Trace {
        for _ in 0..steps {
            self.step();
        }
        &self.trace
    }

    /// Runs until [`World::is_complete`] or `max_steps`, whichever first.
    ///
    /// # Errors
    ///
    /// Returns the safety/liveness error if the run ended incomplete or
    /// unsafe (see [`require::check_complete`]).
    pub fn run_to_completion(&mut self, max_steps: Step) -> stp_core::Result<Trace> {
        while self.step < max_steps && !self.is_complete() {
            self.step();
        }
        require::check_complete(&self.trace)?;
        Ok(self.trace.clone())
    }

    /// Runs until `cond` holds or `max_steps` elapsed; reports whether the
    /// condition was reached.
    pub fn run_until<F: FnMut(&World) -> bool>(&mut self, max_steps: Step, mut cond: F) -> bool {
        while self.step < max_steps {
            if cond(self) {
                return true;
            }
            self.step();
        }
        cond(self)
    }

    /// Like [`World::run_until`], but the whole run is one profiling
    /// window of `prof`: channel cost lands in the per-kind
    /// `deliver`/`expire` phases (see [`crate::prof::delivery_phase`]),
    /// the rest in the shared taxonomy. Profiling only observes —
    /// behaviour, trace, and stats are identical to an unprofiled run.
    pub fn run_until_profiled<F: FnMut(&World) -> bool>(
        &mut self,
        max_steps: Step,
        mut cond: F,
        prof: &PhaseProfiler,
        deliver: Phase,
        expire: Phase,
    ) -> bool {
        let mut obs = ProfObs::begin();
        let reached = loop {
            if self.step >= max_steps {
                break cond(self);
            }
            if cond(self) {
                break true;
            }
            self.step_impl(&mut obs, deliver, expire);
        };
        obs.finish(prof);
        reached
    }

    /// Consumes the world and returns the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_channel::{DropHeavyScheduler, DupStormScheduler, RandomScheduler, ReorderScheduler};
    use stp_core::require::{check_complete, check_safety};

    fn seq(v: &[u16]) -> DataSeq {
        DataSeq::from_indices(v.iter().copied())
    }

    fn tight(input: &DataSeq, d: u16, policy: ResendPolicy) -> WorldBuilder {
        World::builder(input.clone())
            .sender(Box::new(TightSender::new(input.clone(), d, policy)))
            .receiver(Box::new(TightReceiver::new(d, policy)))
    }

    #[test]
    fn tight_dup_delivers_under_eager_scheduler() {
        let input = seq(&[2, 0, 1]);
        let mut w = World::tight_dup(input.clone(), 3);
        let trace = w.run_to_completion(1_000).unwrap();
        assert_eq!(trace.output(), input);
        check_complete(&trace).unwrap();
    }

    #[test]
    fn tight_dup_survives_duplication_storms() {
        let input = seq(&[3, 1, 4, 0, 2]);
        for storm_seed in 0..20 {
            let mut w = tight(&input, 5, ResendPolicy::Once)
                .channel(Box::new(DupChannel::new()))
                .scheduler(Box::new(DupStormScheduler::new(storm_seed, 0.9)))
                .build()
                .unwrap();
            let trace = w.run_to_completion(5_000).unwrap();
            assert_eq!(trace.output(), input, "seed={storm_seed}");
        }
    }

    #[test]
    fn tight_del_survives_drop_heavy_adversaries() {
        let input = seq(&[1, 3, 0]);
        for s in 0..20 {
            let mut w = tight(&input, 4, ResendPolicy::EveryTick)
                .channel(Box::new(DelChannel::new()))
                .scheduler(Box::new(DropHeavyScheduler::new(s, 0.4, 0.5)))
                .build()
                .unwrap();
            let trace = w.run_to_completion(20_000).unwrap();
            assert_eq!(trace.output(), input, "seed={s}");
        }
    }

    #[test]
    fn safety_holds_even_when_liveness_is_starved() {
        // A scheduler that never delivers: nothing gets written, but
        // nothing wrong gets written either.
        let input = seq(&[1, 0]);
        let mut w = tight(&input, 2, ResendPolicy::Once)
            .channel(Box::new(DupChannel::new()))
            .scheduler(Box::new(RandomScheduler::new(0, 0.0)))
            .build()
            .unwrap();
        w.run(500);
        assert!(check_safety(w.trace()).is_ok());
        assert_eq!(w.trace().output().len(), 0);
        assert!(!w.is_complete());
    }

    #[test]
    fn reorder_scheduler_cannot_break_the_tight_protocol() {
        let input = seq(&[0, 2, 1, 3]);
        let mut w = tight(&input, 4, ResendPolicy::Once)
            .channel(Box::new(DupChannel::new()))
            .scheduler(Box::new(ReorderScheduler::new()))
            .build()
            .unwrap();
        let trace = w.run_to_completion(2_000).unwrap();
        assert_eq!(trace.output(), input);
    }

    #[test]
    fn runs_are_deterministic_under_a_fixed_seed() {
        let input = seq(&[1, 2, 0]);
        let run = |seed: u64| {
            let mut w = tight(&input, 3, ResendPolicy::EveryTick)
                .channel(Box::new(DelChannel::new()))
                .scheduler(Box::new(DropHeavyScheduler::new(seed, 0.3, 0.6)))
                .build()
                .unwrap();
            w.run(300).clone()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn trace_records_reads_and_writes_with_positions() {
        let input = seq(&[2, 0]);
        let mut w = World::tight_dup(input.clone(), 3);
        let trace = w.run_to_completion(100).unwrap();
        assert_eq!(trace.reads(), 2);
        let writes: Vec<_> = trace
            .events()
            .iter()
            .filter_map(|e| match e.event {
                Event::Write { pos, .. } => Some(pos),
                _ => None,
            })
            .collect();
        assert_eq!(writes, vec![0, 1]);
    }

    #[test]
    fn empty_input_completes_instantly() {
        let mut w = World::tight_dup(seq(&[]), 2);
        let trace = w.run_to_completion(10).unwrap();
        assert_eq!(trace.output(), seq(&[]));
    }

    #[test]
    fn run_until_condition() {
        let input = seq(&[1, 0]);
        let mut w = World::tight_dup(input, 2);
        let reached = w.run_until(1_000, |w| !w.trace().output().is_empty());
        assert!(reached);
        assert!(w.step_count() < 1_000);
        let never = w.run_until(w.step_count() + 5, |w| w.trace().output().len() >= 99);
        assert!(!never);
    }

    #[test]
    fn builder_rejects_missing_components() {
        let err = World::builder(seq(&[0])).build().unwrap_err();
        assert_eq!(
            err,
            SimError::MissingComponent {
                component: "sender"
            }
        );
        let err = tight(&seq(&[0]), 1, ResendPolicy::Once)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::MissingComponent {
                component: "channel"
            }
        );
    }

    #[test]
    fn incremental_stats_match_trace_derived_stats() {
        let input = seq(&[1, 3, 0, 2]);
        for s in 0..8 {
            let mut w = tight(&input, 4, ResendPolicy::EveryTick)
                .channel(Box::new(DelChannel::new()))
                .scheduler(Box::new(DropHeavyScheduler::new(s, 0.3, 0.6)))
                .build()
                .unwrap();
            w.run_until(20_000, World::is_complete);
            assert_eq!(w.stats(), RunStats::of(w.trace()), "seed={s}");
        }
    }

    #[test]
    fn off_mode_records_nothing_but_counts_everything() {
        let input = seq(&[2, 0, 1]);
        let mut full = tight(&input, 3, ResendPolicy::Once)
            .channel(Box::new(DupChannel::new()))
            .scheduler(Box::new(DupStormScheduler::new(7, 0.9)))
            .build()
            .unwrap();
        let mut off = tight(&input, 3, ResendPolicy::Once)
            .channel(Box::new(DupChannel::new()))
            .scheduler(Box::new(DupStormScheduler::new(7, 0.9)))
            .mode(TraceMode::Off)
            .build()
            .unwrap();
        full.run_until(5_000, World::is_complete);
        off.run_until(5_000, World::is_complete);
        assert!(off.trace().events().is_empty());
        assert!(off.is_complete());
        assert_eq!(off.stats(), full.stats(), "mode must not change behaviour");
    }

    #[test]
    fn writes_only_mode_keeps_output_queries_alive() {
        let input = seq(&[1, 0]);
        let mut w = tight(&input, 2, ResendPolicy::Once)
            .channel(Box::new(DupChannel::new()))
            .scheduler(Box::new(EagerScheduler::new()))
            .mode(TraceMode::WritesOnly)
            .build()
            .unwrap();
        w.run_until(1_000, World::is_complete);
        assert_eq!(w.trace().output(), input);
        assert!(w
            .trace()
            .events()
            .iter()
            .all(|e| matches!(e.event, Event::Write { .. })));
    }

    #[test]
    fn probe_stats_match_trace_and_counters() {
        use crate::metrics::MetricsProbe;
        let input = seq(&[1, 3, 0, 2]);
        for s in 0..8 {
            let mut w = tight(&input, 4, ResendPolicy::EveryTick)
                .channel(Box::new(DelChannel::new()))
                .scheduler(Box::new(DropHeavyScheduler::new(s, 0.3, 0.6)))
                .probe(Box::new(MetricsProbe::new()))
                .build()
                .unwrap();
            w.run_until(20_000, World::is_complete);
            let probe_stats = w.probe_of::<MetricsProbe>().unwrap().stats();
            assert_eq!(probe_stats, w.stats(), "seed={s}");
            assert_eq!(probe_stats, RunStats::of(w.trace()), "seed={s}");
        }
    }

    #[test]
    fn probe_works_with_trace_off() {
        use crate::metrics::MetricsProbe;
        let input = seq(&[2, 0, 1]);
        let mut w = tight(&input, 3, ResendPolicy::Once)
            .channel(Box::new(DupChannel::new()))
            .scheduler(Box::new(DupStormScheduler::new(7, 0.9)))
            .mode(TraceMode::Off)
            .probe(Box::new(MetricsProbe::new()))
            .build()
            .unwrap();
        w.run_until(5_000, World::is_complete);
        assert!(w.trace().events().is_empty());
        let probe_stats = w.probe_of::<MetricsProbe>().unwrap().stats();
        assert_eq!(probe_stats, w.stats());
        assert!(probe_stats.is_complete());
    }

    #[test]
    fn probe_resets_with_the_world() {
        use crate::metrics::MetricsProbe;
        let input_a = seq(&[1, 2, 0]);
        let input_b = seq(&[0, 2]);
        let mut pooled = tight(&input_a, 3, ResendPolicy::EveryTick)
            .channel(Box::new(DelChannel::new()))
            .scheduler(Box::new(DropHeavyScheduler::new(5, 0.3, 0.6)))
            .probe(Box::new(MetricsProbe::new()))
            .build()
            .unwrap();
        pooled.run(400);
        pooled.reset(&input_b, 9);
        pooled.run(400);
        let mut fresh = tight(&input_b, 3, ResendPolicy::EveryTick)
            .channel(Box::new(DelChannel::new()))
            .scheduler(Box::new(DropHeavyScheduler::new(9, 0.3, 0.6)))
            .probe(Box::new(MetricsProbe::new()))
            .build()
            .unwrap();
        fresh.run(400);
        assert_eq!(
            pooled.probe_of::<MetricsProbe>().unwrap().stats(),
            fresh.probe_of::<MetricsProbe>().unwrap().stats()
        );
        assert_eq!(pooled.stats(), fresh.stats());
    }

    #[test]
    fn timed_expiries_are_counted_and_evented_as_drops() {
        use stp_channel::TimedChannel;
        // A scheduler that never delivers: on a deadline-1 timed channel
        // every send expires at the end of its sending step.
        let input = seq(&[1, 0]);
        let mut w = tight(&input, 2, ResendPolicy::EveryTick)
            .channel(Box::new(TimedChannel::new(1)))
            .scheduler(Box::new(RandomScheduler::new(0, 0.0)))
            .build()
            .unwrap();
        w.run(50);
        let stats = w.stats();
        assert!(stats.drops > 0, "expiries must register as drops");
        let expire_events = w
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::ChannelExpire { .. }))
            .count();
        assert_eq!(stats.drops, expire_events);
        assert_eq!(stats, RunStats::of(w.trace()));
    }

    #[test]
    fn reset_replays_bit_identically() {
        let input_a = seq(&[1, 2, 0]);
        let input_b = seq(&[0, 2]);
        let mut pooled = tight(&input_a, 3, ResendPolicy::EveryTick)
            .channel(Box::new(DelChannel::new()))
            .scheduler(Box::new(DropHeavyScheduler::new(5, 0.3, 0.6)))
            .build()
            .unwrap();
        pooled.run(400);
        // Rewind onto a different input and seed; must match a fresh world.
        pooled.reset(&input_b, 9);
        pooled.run(400);
        let mut fresh = tight(&input_b, 3, ResendPolicy::EveryTick)
            .channel(Box::new(DelChannel::new()))
            .scheduler(Box::new(DropHeavyScheduler::new(9, 0.3, 0.6)))
            .build()
            .unwrap();
        fresh.run(400);
        assert_eq!(pooled.trace(), fresh.trace());
        assert_eq!(pooled.stats(), fresh.stats());
    }
}
