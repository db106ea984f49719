//! The lock-step world executor.

use crate::error::SimError;
use crate::kernel::{self, Components, Quiet, Scratch, StepSink};
use crate::metrics::RunStats;
use crate::prof::{delivery_phase, expiry_phase, NoObs, Phase, PhaseProfiler, ProfObs, StepObs};
use stp_channel::{Channel, DelChannel, DupChannel, EagerScheduler, Scheduler};
use stp_core::alphabet::{RMsg, SMsg};
use stp_core::data::DataSeq;
use stp_core::event::{Event, MsgEvent, MsgId, Probe, ProcessId, Step, Trace, TraceMode};
use stp_core::proto::{Receiver, Sender};
use stp_core::require;
use stp_protocols::{ResendPolicy, TightReceiver, TightSender};

/// A complete simulated system: two processors, a channel, an adversary,
/// the input tape, and — if anything watches the run — its recorder.
///
/// Assemble one with [`World::builder`]; the [`TraceMode`] chosen there
/// decides what the trace remembers, while the aggregate counters behind
/// [`World::stats`] are maintained in every mode. A finished world can be
/// rewound with [`World::reset`] and reused for another run, which is how
/// the sweep engine amortizes allocation across a grid.
///
/// A world built with [`TraceMode::Off`], no probes and provenance off is
/// *unobserved*: it holds no recorder at all — no trace, no probe list, no
/// provenance buffers — and steps through the kernel's unit `Quiet` sink,
/// which builds no event and tracks no copy. It is the bare step machine;
/// every session slot of the [`SessionEngine`](crate::SessionEngine) is
/// one. Read such a world through [`World::stats`] and
/// [`World::is_complete`]: every call that returns a trace
/// ([`World::trace`], [`World::run`], [`World::run_to_completion`],
/// [`World::into_trace`]) panics on it.
#[derive(Debug)]
pub struct World {
    sender: Box<dyn Sender>,
    receiver: Box<dyn Receiver>,
    channel: Box<dyn Channel>,
    scheduler: Box<dyn Scheduler>,
    // Aggregate counters, maintained in every trace mode so stats-only
    // sweeps can skip event recording entirely.
    stats: RunStats,
    scratch: Scratch,
    input: DataSeq,
    // Present only if the builder asked for a trace, a probe or provenance;
    // the step sink is chosen by matching on it.
    rec: Option<Box<Recorder>>,
}

// An observed world's step sink: the trace, the probes, and the
// per-message provenance state the kernel reports into.
#[derive(Debug)]
struct Recorder {
    trace: Trace,
    mode: TraceMode,
    probes: Vec<Box<dyn Probe>>,
    // Whether the world records per-message provenance; decides both the
    // channel's id bookkeeping and `MsgEvent` recording.
    provenance: bool,
    // The run's provenance stream, in execution order (empty unless
    // `provenance`).
    msg_events: Vec<(Step, MsgEvent)>,
    // Ids are assigned densely from 0 per run, so `(seed, MsgId)` is
    // stable across pooled resets and re-runs of the same cell.
    next_msg_id: u64,
    reads_seen: usize,
    // Scratch for the expiry drain's provenance ids.
    expiry_ids_r: Vec<Option<MsgId>>,
    expiry_ids_s: Vec<Option<MsgId>>,
    // Ids the adversary deleted during the current step, kept (under
    // provenance) to assert that the expiry drain never re-surfaces a copy
    // already reported dropped in the same step.
    deleted_ids: Vec<MsgId>,
}

// Every call that returns a trace reads the recorder through here.
fn observed<R>(rec: Option<R>) -> R {
    rec.expect(
        "this world was built unobserved (TraceMode::Off, no probe, no provenance) \
         and keeps no trace; read World::stats() or World::is_complete() instead",
    )
}

impl Recorder {
    // The recorder a world built with these settings needs: none unless a
    // trace, a probe or provenance would read it. This is the one place
    // observation is switched.
    fn new(
        input: &DataSeq,
        mode: TraceMode,
        probes: Vec<Box<dyn Probe>>,
        provenance: bool,
    ) -> Option<Box<Recorder>> {
        if mode == TraceMode::Off && probes.is_empty() && !provenance {
            return None;
        }
        let mut rec = Recorder {
            trace: Trace::new(input.clone()),
            mode,
            probes,
            provenance,
            msg_events: Vec::new(),
            next_msg_id: 0,
            reads_seen: 0,
            expiry_ids_r: Vec::new(),
            expiry_ids_s: Vec::new(),
            deleted_ids: Vec::new(),
        };
        rec.start_run();
        Some(Box::new(rec))
    }

    fn reset(&mut self, input: &DataSeq) {
        self.trace.reset(input);
        self.msg_events.clear();
        self.next_msg_id = 0;
        self.reads_seen = 0;
        self.deleted_ids.clear();
        self.start_run();
    }

    fn start_run(&mut self) {
        for p in &mut self.probes {
            p.on_run_start(self.trace.input());
        }
    }

    fn emit(&mut self, t: Step, event: MsgEvent) {
        self.msg_events.push((t, event));
    }

    fn expire_one(&mut self, t: Step, to: ProcessId, msg: u16, id: Option<MsgId>) {
        self.event(t, Event::ChannelExpire { to, msg });
        if self.provenance {
            self.emit(t, MsgEvent::Expired { id, to, msg });
        }
    }
}

impl StepSink for Recorder {
    #[inline]
    fn provenance(&self) -> bool {
        self.provenance
    }

    #[inline]
    fn event(&mut self, t: Step, event: Event) {
        // Probes see every event, in execution order, regardless of what
        // the trace mode keeps.
        for p in &mut self.probes {
            p.on_event(t, &event);
        }
        if self.mode.records(&event) {
            self.trace.record(t, event);
        }
    }

    #[inline]
    fn sender_stepped(&mut self, t: Step, sender: &dyn Sender) {
        let reads_now = sender.reads();
        for pos in self.reads_seen..reads_now {
            if let Some(item) = self.trace.input().get(pos) {
                self.event(t, Event::Read { item, pos });
            }
        }
        self.reads_seen = reads_now;
    }

    fn sent(&mut self, t: Step, channel: &mut dyn Channel, to: ProcessId, msg: u16) {
        let id = MsgId(self.next_msg_id);
        self.next_msg_id += 1;
        let filed = match to {
            ProcessId::Receiver => channel.note_send_s(SMsg(msg), id),
            ProcessId::Sender => channel.note_send_r(RMsg(msg), id),
        };
        let coalesced_into = (filed != id).then_some(filed);
        self.emit(
            t,
            MsgEvent::Sent {
                id,
                to,
                msg,
                coalesced_into,
            },
        );
    }

    fn dropped(&mut self, t: Step, channel: &mut dyn Channel, to: ProcessId, msg: u16) {
        let id = match to {
            ProcessId::Receiver => channel.take_deleted_id_to_r(),
            ProcessId::Sender => channel.take_deleted_id_to_s(),
        };
        self.deleted_ids.extend(id);
        self.emit(t, MsgEvent::Dropped { id, to, msg });
    }

    fn delivered(&mut self, t: Step, channel: &mut dyn Channel, to: ProcessId, msg: u16) {
        let id = match to {
            ProcessId::Receiver => channel.take_delivered_id_to_r(),
            ProcessId::Sender => channel.take_delivered_id_to_s(),
        };
        self.emit(t, MsgEvent::Delivered { id, to, msg });
    }

    // Expiries are counted and evented exactly like adversarial loss,
    // except as `ChannelExpire` so replay does not re-inject them.
    fn expired(&mut self, t: Step, channel: &mut dyn Channel, to_r: &[SMsg], to_s: &[RMsg]) {
        if self.provenance {
            channel.take_expiration_ids(&mut self.expiry_ids_r, &mut self.expiry_ids_s);
            // A copy the adversary already deleted this step left the
            // channel then — it must never re-surface through the expiry
            // drain, or drops would be double-counted.
            debug_assert!(
                self.expiry_ids_r
                    .iter()
                    .chain(&self.expiry_ids_s)
                    .flatten()
                    .all(|id| !self.deleted_ids.contains(id)),
                "take_expirations yielded a copy already reported dropped this step"
            );
        }
        for (i, m) in to_r.iter().enumerate() {
            let id = self.expiry_ids_r.get(i).copied().flatten();
            self.expire_one(t, ProcessId::Receiver, m.0, id);
        }
        for (i, m) in to_s.iter().enumerate() {
            let id = self.expiry_ids_s.get(i).copied().flatten();
            self.expire_one(t, ProcessId::Sender, m.0, id);
        }
        self.expiry_ids_r.clear();
        self.expiry_ids_s.clear();
    }

    #[inline]
    fn step_end<O: StepObs>(&mut self, t: Step, obs: &mut O) {
        self.trace.set_steps(t + 1);
        self.deleted_ids.clear();
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
    provenance: bool,
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
    /// [`World::probe_of`].
    pub fn probe(mut self, probe: Box<dyn Probe>) -> Self {
        self.probes.push(probe);
        self
    }

    /// Switches per-message provenance recording on or off (default:
    /// off). When on, the channel tracks an id per copy and the world
    /// records every [`MsgEvent`] of the run, readable through
    /// [`World::msg_events`]. The recording is independent of the trace
    /// mode: the same run records the same stream under every
    /// [`TraceMode`].
    pub fn provenance(mut self, on: bool) -> Self {
        self.provenance = on;
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
        let sender = self.sender.ok_or_else(|| missing("sender"))?;
        let receiver = self.receiver.ok_or_else(|| missing("receiver"))?;
        let mut channel = self.channel.ok_or_else(|| missing("channel"))?;
        let scheduler = self.scheduler.ok_or_else(|| missing("scheduler"))?;
        let stats = RunStats::empty(self.input.len());
        // Provenance must be switched on before the first send of the run;
        // the flag survives channel resets, so this is a build-time choice.
        channel.set_provenance(self.provenance);
        let rec = Recorder::new(&self.input, self.mode, self.probes, self.provenance);
        Ok(World {
            sender,
            receiver,
            channel,
            scheduler,
            stats,
            scratch: Scratch::default(),
            input: self.input,
            rec,
        })
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
            provenance: false,
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
        self.stats.reset(input.len());
        self.input.clone_from(input);
        if let Some(rec) = &mut self.rec {
            rec.reset(input);
        }
    }

    /// The trace-recording mode this world was assembled with.
    pub fn mode(&self) -> TraceMode {
        self.rec.as_ref().map_or(TraceMode::Off, |rec| rec.mode)
    }

    /// The current global step (number of steps executed so far).
    pub fn step_count(&self) -> Step {
        self.stats.steps
    }

    /// The trace recorded so far. Under [`TraceMode::Off`] it holds no
    /// events at all — use [`World::stats`] for the aggregates.
    ///
    /// # Panics
    ///
    /// Panics if the world is unobserved (see the type docs).
    pub fn trace(&self) -> &Trace {
        &observed(self.rec.as_deref()).trace
    }

    /// The input tape of the current run.
    pub(crate) fn input(&self) -> &DataSeq {
        &self.input
    }

    /// Aggregate statistics of the run so far, maintained incrementally in
    /// every trace mode. Under [`TraceMode::Full`] this equals
    /// [`RunStats::of`] on the recorded trace.
    pub fn stats(&self) -> RunStats {
        self.stats.clone()
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
        self.stats.written
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
        self.stats.written.hash(&mut h);
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
            self.stats.written,
        )
    }

    /// Whether the sender reports completion and the output covers the
    /// whole input.
    pub fn is_complete(&self) -> bool {
        self.sender.is_done() && self.stats.written >= self.stats.input_len
    }

    /// The first attached probe of concrete type `P`, if one is attached —
    /// how a harness reads a `MetricsProbe`'s statistics back out of a
    /// pooled world.
    pub fn probe_of<P: Probe + 'static>(&self) -> Option<&P> {
        let rec = self.rec.as_ref()?;
        rec.probes.iter().find_map(|p| p.as_any().downcast_ref())
    }

    /// The run's provenance stream so far: every [`MsgEvent`] with the
    /// step it occurred at, in execution order. Empty unless the world
    /// was built with [`WorldBuilder::provenance`]; cleared by
    /// [`World::reset`].
    pub fn msg_events(&self) -> &[(Step, MsgEvent)] {
        self.rec.as_ref().map_or(&[], |rec| &rec.msg_events)
    }

    /// Executes one global step.
    pub fn step(&mut self) {
        // Stepping once past the current count: the condition never holds.
        self.run_until(self.stats.steps.saturating_add(1), |_| false);
    }

    /// Runs exactly `steps` global steps and returns the trace.
    ///
    /// # Panics
    ///
    /// Panics after the run if the world is unobserved (see the type docs).
    pub fn run(&mut self, steps: Step) -> &Trace {
        self.run_until(self.stats.steps.saturating_add(steps), |_| false);
        self.trace()
    }

    /// Runs until [`World::is_complete`] or `max_steps`, whichever first.
    ///
    /// # Errors
    ///
    /// Returns the safety/liveness error if the run ended incomplete or
    /// unsafe (see [`require::check_complete`]).
    ///
    /// # Panics
    ///
    /// Panics after the run if the world is unobserved (see the type docs).
    pub fn run_to_completion(&mut self, max_steps: Step) -> stp_core::Result<Trace> {
        self.run_until(max_steps, World::is_complete);
        let trace = self.trace();
        require::check_complete(trace)?;
        Ok(trace.clone())
    }

    /// Runs until `cond` holds or `max_steps` elapsed; reports whether the
    /// condition was reached.
    pub fn run_until<F: FnMut(&World) -> bool>(&mut self, max_steps: Step, cond: F) -> bool {
        // The phases are irrelevant under `NoObs`; any pair works.
        let (deliver, expire) = (Phase::DeliverPerfect, Phase::ExpirePerfect);
        self.run_loop(max_steps, cond, &mut NoObs, deliver, expire)
    }

    /// Like [`World::run_until`], but the whole run is one profiling
    /// window of `prof`: channel cost lands in the deliver/expire phases
    /// of the world's channel kind (see [`crate::prof::delivery_phase`]),
    /// the rest in the shared taxonomy. Profiling only observes —
    /// behaviour, trace, and stats are identical to an unprofiled run.
    pub fn run_until_profiled<F: FnMut(&World) -> bool>(
        &mut self,
        max_steps: Step,
        cond: F,
        prof: &PhaseProfiler,
    ) -> bool {
        let kind = self.channel.kind();
        let (deliver, expire) = (delivery_phase(kind), expiry_phase(kind));
        let mut obs = ProfObs::begin();
        let reached = self.run_loop(max_steps, cond, &mut obs, deliver, expire);
        obs.finish(prof);
        reached
    }

    // The stopping rule: `cond` is checked before every step and after the
    // last, and `max_steps` caps the count. An unobserved world steps with
    // the `Quiet` sink, an observed one reports every step to its recorder;
    // `rec` is fixed at build, so the match goes the same way all run.
    fn run_loop<F: FnMut(&World) -> bool, O: StepObs>(
        &mut self,
        max_steps: Step,
        mut cond: F,
        obs: &mut O,
        deliver: Phase,
        expire: Phase,
    ) -> bool {
        loop {
            if cond(self) {
                return true;
            }
            if self.stats.steps >= max_steps {
                return false;
            }
            let components = Components {
                sender: &mut *self.sender,
                receiver: &mut *self.receiver,
                channel: &mut *self.channel,
                scheduler: &mut *self.scheduler,
            };
            let (input, stats, scratch) = (&self.input, &mut self.stats, &mut self.scratch);
            match &mut self.rec {
                None => kernel::step(
                    components, input, stats, scratch, obs, &mut Quiet, deliver, expire,
                ),
                Some(rec) => kernel::step(
                    components, input, stats, scratch, obs, &mut **rec, deliver, expire,
                ),
            }
        }
    }

    /// Consumes the world and returns the recorded trace.
    ///
    /// # Panics
    ///
    /// Panics if the world is unobserved (see the type docs).
    pub fn into_trace(self) -> Trace {
        observed(self.rec).trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_channel::{
        ChannelSpec, DropHeavyScheduler, DupStormScheduler, RandomScheduler, ReorderScheduler,
        SchedulerSpec,
    };
    use stp_core::require::{check_complete, check_safety};
    use stp_protocols::{ProtocolFamily, TightFamily};

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
        assert!(off.is_complete());
        assert_eq!(off.stats(), full.stats(), "mode must not change behaviour");
    }

    #[test]
    #[should_panic(expected = "keeps no trace; read World::stats() or World::is_complete()")]
    fn run_to_completion_on_an_unobserved_world_panics() {
        // The completion check reads the trace, which an unobserved world
        // does not keep.
        let input = seq(&[1, 0]);
        let mut w = tight(&input, 2, ResendPolicy::Once)
            .channel(Box::new(DupChannel::new()))
            .scheduler(Box::new(EagerScheduler::new()))
            .mode(TraceMode::Off)
            .build()
            .unwrap();
        let _ = w.run_to_completion(1_000);
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

    // An E1 world for `x`: the m = 4 tight family on the dup channel under
    // one of the E1 adversaries, recording in `mode`.
    fn e1_world(x: &DataSeq, spec: &SchedulerSpec, seed: u64, mode: TraceMode) -> WorldBuilder {
        let family = TightFamily::new(4, ResendPolicy::Once);
        World::builder(x.clone())
            .sender(family.sender_for(x))
            .receiver(family.receiver())
            .channel(ChannelSpec::Dup.build())
            .scheduler(spec.build(seed))
            .mode(mode)
    }

    // The three adversaries the E1 table sweeps.
    fn e1_adversaries() -> [SchedulerSpec; 3] {
        [
            SchedulerSpec::DupStorm { p_deliver: 0.9 },
            SchedulerSpec::Reorder,
            SchedulerSpec::Random { p_deliver: 0.5 },
        ]
    }

    #[test]
    fn unobserved_observed_and_probed_worlds_agree_on_e1_sequences() {
        use crate::metrics::MetricsProbe;
        let family = TightFamily::new(4, ResendPolicy::Once);
        for spec in e1_adversaries() {
            for x in family.claimed_family().iter() {
                for seed in 0..2 {
                    let mut off = e1_world(x, &spec, seed, TraceMode::Off).build().unwrap();
                    let mut full = e1_world(x, &spec, seed, TraceMode::Full).build().unwrap();
                    let mut probed = e1_world(x, &spec, seed, TraceMode::Off)
                        .probe(Box::new(MetricsProbe::new()))
                        .build()
                        .unwrap();
                    assert!(off.rec.is_none() && full.rec.is_some() && probed.rec.is_some());
                    for w in [&mut off, &mut full, &mut probed] {
                        assert!(w.run_until(16_000, World::is_complete));
                    }
                    let at = format!("{spec:?} x={x:?} seed={seed}");
                    assert_eq!(off.stats(), full.stats(), "{at}");
                    assert_eq!(off.stats(), probed.stats(), "{at}");
                    assert_eq!(off.step_count(), full.step_count(), "{at}");
                    assert_eq!(off.step_count(), probed.step_count(), "{at}");
                }
            }
        }
    }

    #[test]
    fn only_an_observed_world_holds_a_recorder() {
        use crate::metrics::MetricsProbe;
        let x = seq(&[3, 1, 0, 2]);
        let spec = SchedulerSpec::Reorder;
        let recorded = |b: WorldBuilder| b.build().unwrap().rec.is_some();
        assert!(!recorded(e1_world(&x, &spec, 0, TraceMode::Off)));
        assert!(recorded(e1_world(&x, &spec, 0, TraceMode::Full)));
        let probed = e1_world(&x, &spec, 0, TraceMode::Off).probe(Box::new(MetricsProbe::new()));
        assert!(recorded(probed));
        assert!(recorded(
            e1_world(&x, &spec, 0, TraceMode::Off).provenance(true)
        ));
    }

    #[test]
    fn a_world_fits_its_slot_budget() {
        // Four boxed components (64 B), `RunStats` (96), `Scratch` (48),
        // the input (24) and the optional recorder box (8): every session
        // slot is one of these.
        let size = std::mem::size_of::<World>();
        assert!(size <= 240, "World is {size} B");
    }
}
