//! The massively-multi-session engine: a data-oriented session store
//! fronted by a sharded submit/poll API.
//!
//! One [`World`] owns one sender/receiver pair; sweeps
//! iterate worlds one at a time. This module is the scaling step the
//! ROADMAP's "millions of users opening sessions, transmitting, and
//! disconnecting under churn" workload needs: a [`SessionEngine`] holds
//! *columns* (struct-of-arrays) of sender state, receiver state, channel
//! queues and per-session adversary RNG — the same columnar layout
//! [`crate::trace`] uses for spans — and grants every active session a
//! quantum of protocol steps per *round*, running each one ahead of that
//! schedule at admission and releasing its outcome in the round the
//! schedule fixes (see [`SessionEngine`]). Each step is the kernel
//! [`World::step`](crate::World::step)
//! runs, with a sink that observes nothing, so a session's [`RunStats`]
//! are bit-identical to a pooled single-world run of the same
//! [`SessionSpec`] (the `sessions_parity` suite checks the stopping rule
//! and slot recycling around the kernel over the full seed × channel ×
//! family grid).
//!
//! Slots are recycled under churn through the spec-driven provisioning
//! trio — [`FamilySpec::provision`], [`ChannelSpec::provision`],
//! [`SchedulerSpec::provision`] — which generalizes the pooled-world
//! reset machinery from the sweep engine: a retiring session's slot goes
//! onto its *recipe's* free list, and a later admission with the same
//! recipe resets the boxed machines in place instead of re-boxing them.
//!
//! [`SessionServer`] shards the store: `submit` routes round-robin,
//! `poll`/`disconnect` route by the shard bits of the [`SessionId`], and
//! each shard steps independently under its own lock. [`ChurnSpec`] is
//! the seeded open/transmit/disconnect workload generator the
//! `bench_sessions` lanes run; session `k`'s spec is derived purely from
//! `(workload seed, k)`, so the set of sessions — and each session's
//! stats — is independent of the shard count, which
//! [`ChurnReport::digest`] checks.

use crate::engine::SweepSpec;
use crate::fleet::{
    healthy_step_bound, latency_histogram, FleetRegistry, FleetSnapshot, FleetWatch, ShardMetrics,
    StallRecord, WatchdogSpec,
};
use crate::kernel::{self, Components, Quiet, Scratch};
use crate::metrics::{Histogram, RunStats};
use crate::prof::{delivery_phase, expiry_phase, NoObs, Phase, PhaseProfiler, ProfObs, StepObs};
use crate::telemetry::{ProgressMeter, SessionsRecord};
use crate::world::World;
use parking_lot::Mutex;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stp_channel::{Channel, ChannelSpec, Scheduler, SchedulerSpec};
use stp_core::data::DataSeq;
use stp_core::event::{Step, TraceMode};
use stp_core::proto::{Receiver, Sender};
use stp_protocols::FamilySpec;

/// Everything needed to run one STP session: the protocol family, the
/// input to transmit, the channel model, the adversary, its seed, and the
/// session's budgets. The serde form travels next to [`SweepSpec`] /
/// [`ChannelSpec`] / [`SchedulerSpec`] as one spec surface; the legacy
/// sweep path expands into it via [`SweepSpec::session_specs`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// The protocol family recipe.
    pub family: FamilySpec,
    /// The input sequence to transmit.
    pub input: DataSeq,
    /// The channel recipe.
    pub channel: ChannelSpec,
    /// The adversary recipe.
    pub scheduler: SchedulerSpec,
    /// The adversary seed.
    pub seed: u64,
    /// Step budget: the session retires as [`SessionFate::Exhausted`]
    /// when it runs this many steps without completing.
    pub max_steps: Step,
    /// Churn: the user walks away this many rounds after admission
    /// (retiring the session as [`SessionFate::Disconnected`]); `None`
    /// stays until completion or exhaustion.
    #[serde(default)]
    pub ttl_rounds: Option<u64>,
}

impl SessionSpec {
    /// Bridges to the legacy single-world path: builds a [`World`] (trace
    /// off) that runs exactly this session. The parity suite holds the
    /// session store to this world's behaviour, bit for bit.
    pub fn build_world(&self) -> World {
        let family = self.family.build();
        World::builder(self.input.clone())
            .sender(family.sender_for(&self.input))
            .receiver(family.receiver())
            .channel(self.channel.build())
            .scheduler(self.scheduler.build(self.seed))
            .mode(TraceMode::Off)
            .build()
            .expect("all components supplied")
    }
}

impl SweepSpec {
    /// Expands the sweep grid into per-session specs in the engine's
    /// (scheduler-major, then sequence, then seed) order — the bridge
    /// that lets the session server consume the same spec surface as
    /// [`SweepEngine`](crate::engine::SweepEngine).
    pub fn session_specs(&self, family: &FamilySpec) -> Vec<SessionSpec> {
        let claimed = family.build().claimed_family();
        let mut specs =
            Vec::with_capacity(self.schedulers.len() * claimed.len() * self.seeds.len());
        for scheduler in &self.schedulers {
            for input in claimed.iter() {
                for &seed in &self.seeds {
                    specs.push(SessionSpec {
                        family: family.clone(),
                        input: input.clone(),
                        channel: self.channel.clone(),
                        scheduler: scheduler.clone(),
                        seed,
                        max_steps: self.max_steps,
                        ttl_rounds: None,
                    });
                }
            }
        }
        specs
    }
}

/// A session's identity: 16 shard bits over 48 serial bits, so ids route
/// straight back to the owning shard without a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SessionId(u64);

impl SessionId {
    const SERIAL_BITS: u32 = 48;

    /// Packs a shard index and a per-shard serial.
    ///
    /// # Panics
    ///
    /// Panics if `serial` needs more than 48 bits.
    pub fn new(shard: u16, serial: u64) -> SessionId {
        assert!(serial < 1 << Self::SERIAL_BITS, "serial overflows 48 bits");
        SessionId((u64::from(shard) << Self::SERIAL_BITS) | serial)
    }

    /// The owning shard.
    pub fn shard(self) -> u16 {
        (self.0 >> Self::SERIAL_BITS) as u16
    }

    /// The per-shard serial.
    pub fn serial(self) -> u64 {
        self.0 & ((1 << Self::SERIAL_BITS) - 1)
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.shard(), self.serial())
    }
}

/// How a session left the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SessionFate {
    /// The sender finished and the whole input was written.
    Completed,
    /// The step budget ran out first.
    Exhausted,
    /// The user disconnected (TTL churn or an explicit
    /// [`SessionServer::disconnect`]).
    Disconnected,
}

/// The terminal record of one session, handed out (exactly once) by
/// [`SessionServer::drain_completed`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// The session's identity.
    pub id: SessionId,
    /// How it retired.
    pub fate: SessionFate,
    /// The run's statistics — identical to what a single [`World`] run of
    /// the same [`SessionSpec`] reports at the same stopping point.
    pub stats: RunStats,
    /// The engine round the session was submitted on.
    pub submitted_round: u64,
    /// The engine round it retired on.
    pub retired_round: u64,
}

impl SessionOutcome {
    /// Submit-to-retire latency in engine rounds (includes queueing).
    pub fn latency_rounds(&self) -> u64 {
        self.retired_round.saturating_sub(self.submitted_round)
    }
}

/// What [`SessionServer::poll`] reports for an id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionStatus {
    /// Never submitted here, or already drained.
    Unknown,
    /// Waiting for a slot.
    Queued,
    /// In a slot, mid-run.
    Running {
        /// Protocol steps executed so far.
        steps: Step,
    },
    /// Retired; the outcome stays pollable until drained.
    Done {
        /// The terminal record.
        outcome: Box<SessionOutcome>,
    },
}

// Where an id currently lives inside one shard.
enum SlotState {
    Queued { submitted: u64 },
    Running { slot: u32 },
    Done { at: usize },
}

// An interned (family, channel, scheduler) triple plus the free slots
// that last ran it — the unit of reset-in-place recycling.
struct Recipe {
    family: FamilySpec,
    channel: ChannelSpec,
    scheduler: SchedulerSpec,
    free: Vec<u32>,
}

const NO_RECIPE: u32 = u32::MAX;

// How many quanta one visit may run a session ahead of the round-robin
// schedule: admission runs this far, and a session still unfated when
// the schedule catches up gets another horizon. It bounds the work of a
// single visit (a starving session with a huge budget cannot monopolize
// a round); 98.1–98.2% of perfbench's 32 768-session churn pool is
// fated or at its TTL cap within it. A horizon of one quantum is the
// quantum-at-a-time schedule.
const HORIZON_QUANTA: u64 = 4;

// A submitted session waiting for a slot. The recipe triple is interned
// at submit time, so admission — the profiled hot phase — moves a dense
// struct and a recipe id instead of re-comparing (or even carrying)
// three component specs per session.
struct QueuedSession {
    serial: u64,
    submitted: u64,
    rid: u32,
    input: DataSeq,
    seed: u64,
    max_steps: Step,
    ttl_rounds: Option<u64>,
}

// The serial index maps *sequential* per-shard serials to slot states;
// SipHash's DoS resistance buys nothing against keys this engine mints
// itself and its per-insert cost showed up squarely in the admission
// phase profile. Fibonacci multiplicative hashing scrambles sequential
// keys across buckets in one multiply.
#[derive(Default)]
struct SerialHasher(u64);

impl Hasher for SerialHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached for non-u64 keys (none today): FNV-1a fallback.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type SerialMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<SerialHasher>>;

/// One shard of the session store: fixed-capacity slot columns, a recipe
/// table, an admission queue, and a completion buffer.
///
/// The store is data-oriented: every per-session quantity lives in its
/// own column (`Vec`), indexed by slot. Boxed protocol machines,
/// channels and schedulers are *columns of slots* that provisioning
/// reuses in place whenever the incoming session's recipe matches what
/// the slot last ran. Per-session randomized adversary state (the
/// "per-session RNG") lives inside the scheduler column, reseeded per
/// admission.
///
/// The engine keeps a round-robin schedule — each active session is
/// granted `quantum` protocol steps per round — but does not execute it
/// one quantum at a time. A session's outcome is a pure function of its
/// [`SessionSpec`], so admission runs the session *ahead* right after
/// provisioning, while its slot's machines are cache-hot: up to its fate,
/// its TTL cap (`ttl × quantum` steps) or 4 quanta (`HORIZON_QUANTA`),
/// whichever comes first. It then records the round the schedule retires
/// the session in (`admitted + (n − 1) / quantum` for a fate at step
/// `n ≥ 1`, the admission round for `n = 0`, `admitted + ttl` for a walk
/// away). The per-round walk over the dense `active` roster visits
/// sessions in the same order and swap-removes them at the same rounds
/// as a quantum-at-a-time loop would, so outcomes leave in the same
/// order with the same retire rounds and every digest is unchanged; it
/// reads only dense columns, except for the ~2% of churn sessions that
/// need another horizon. Everything a caller sees mid-run — `poll`'s
/// step count, stall records, per-round step counts, a disconnected
/// session's stats — is the schedule's `min(progress, rounds × quantum)`,
/// not the run-ahead progress.
pub struct SessionEngine {
    shard: u16,
    capacity: usize,
    quantum: u32,
    round: u64,
    recipes: Vec<Recipe>,
    // Slot columns (struct-of-arrays), all `capacity` long.
    senders: Vec<Option<Box<dyn Sender>>>,
    receivers: Vec<Option<Box<dyn Receiver>>>,
    channels: Vec<Option<Box<dyn Channel>>>,
    schedulers: Vec<Option<Box<dyn Scheduler>>>,
    slot_recipe: Vec<u32>,
    inputs: Vec<DataSeq>,
    serials: Vec<u64>,
    stats: Vec<RunStats>,
    deadline: Vec<Step>,
    expires: Vec<u64>,
    submitted: Vec<u64>,
    admitted_round: Vec<u64>,
    seeds: Vec<u64>,
    // The round at which the slot's session gets flagged as stalled;
    // `u64::MAX` means disarmed (no watchdog, or already flagged), so
    // the per-round check is one compare.
    stall_at: Vec<u64>,
    // The round the walk next acts on the slot: the retire round once
    // `fate` is known, else the round the schedule steps past the
    // run-ahead progress (`u64::MAX` when the session only walks away).
    due: Vec<u64>,
    fate: Vec<Option<SessionFate>>,
    // Rosters: dense active list (swap-remove retire), never-used slots,
    // admissions waiting for capacity.
    active: Vec<u32>,
    virgin: Vec<u32>,
    queue: VecDeque<QueuedSession>,
    index: SerialMap<SlotState>,
    completed: Vec<SessionOutcome>,
    next_serial: u64,
    recycled: u64,
    // Shared expiry scratch, reused across every slot in the shard.
    scratch: Scratch,
    // Fleet observability: both default off and cost nothing until
    // attached/armed.
    metrics: Option<Arc<ShardMetrics>>,
    watchdog: Option<WatchdogSpec>,
    stalls: Vec<StallRecord>,
    // Phase profiler: off by default; when attached, every
    // `prof.period()`-th run-ahead chunk becomes a profiled window; the
    // other chunks step with marks compiled away.
    prof: Option<Arc<PhaseProfiler>>,
    prof_tick: u64,
}

impl std::fmt::Debug for SessionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionEngine")
            .field("shard", &self.shard)
            .field("capacity", &self.capacity)
            .field("round", &self.round)
            .field("active", &self.active.len())
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl SessionEngine {
    /// An empty shard with `capacity` slots, stepping each active session
    /// up to `quantum` protocol steps per round.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `quantum` is zero.
    pub fn new(shard: u16, capacity: usize, quantum: u32) -> SessionEngine {
        assert!(capacity > 0, "a shard needs at least one slot");
        assert!(quantum > 0, "a round must step at least once");
        let none_senders = (0..capacity).map(|_| None).collect();
        let none_receivers = (0..capacity).map(|_| None).collect();
        let none_channels = (0..capacity).map(|_| None).collect();
        let none_schedulers = (0..capacity).map(|_| None).collect();
        SessionEngine {
            shard,
            capacity,
            quantum,
            round: 0,
            recipes: Vec::new(),
            senders: none_senders,
            receivers: none_receivers,
            channels: none_channels,
            schedulers: none_schedulers,
            slot_recipe: vec![NO_RECIPE; capacity],
            inputs: vec![DataSeq::from_indices([]); capacity],
            serials: vec![0; capacity],
            stats: vec![RunStats::empty(0); capacity],
            deadline: vec![0; capacity],
            expires: vec![u64::MAX; capacity],
            submitted: vec![0; capacity],
            admitted_round: vec![0; capacity],
            seeds: vec![0; capacity],
            stall_at: vec![u64::MAX; capacity],
            due: vec![u64::MAX; capacity],
            fate: vec![None; capacity],
            active: Vec::with_capacity(capacity),
            virgin: (0..capacity as u32).rev().collect(),
            queue: VecDeque::new(),
            index: SerialMap::default(),
            completed: Vec::new(),
            next_serial: 0,
            recycled: 0,
            scratch: Scratch::default(),
            metrics: None,
            watchdog: None,
            stalls: Vec::new(),
            prof: None,
            prof_tick: 0,
        }
    }

    /// Attaches a fleet metrics handle: from here on the engine reports
    /// admissions, retirements and end-of-round gauges into it. Updates
    /// happen at round granularity, never inside the per-step hot loop.
    pub fn attach_metrics(&mut self, metrics: Arc<ShardMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Attaches a phase profiler: every `prof.period()`-th run-ahead
    /// chunk from here on runs as a profiled window attributing time to
    /// [`Phase`]s, and admission (provisioning only) and retirement get
    /// coarse windows of their own, sampled at the same rate. Profiling
    /// is observation-only — session outcomes and the churn digest are
    /// bit-identical with or without it (the `prof_parity` suite
    /// enforces this).
    pub fn attach_profiler(&mut self, prof: Arc<PhaseProfiler>) {
        self.prof = Some(prof);
    }

    /// Arms the stall watchdog: sessions admitted from here on are
    /// flagged (once each, as [`StallRecord`]s) when their age exceeds
    /// the spec's multiple of their family's [`healthy_step_bound`].
    pub fn arm_watchdog(&mut self, spec: WatchdogSpec) {
        self.watchdog = Some(spec);
    }

    /// Hands out every stall flagged since the last drain, exactly once.
    pub fn drain_stalls(&mut self) -> Vec<StallRecord> {
        std::mem::take(&mut self.stalls)
    }

    /// The shard index baked into every [`SessionId`] this engine mints.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// Slots in this shard.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rounds stepped so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Sessions currently in slots.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Sessions waiting for a slot.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Retired sessions not yet drained.
    pub fn completed_len(&self) -> usize {
        self.completed.len()
    }

    /// Admissions that reused a previously-occupied slot (as opposed to a
    /// virgin one) — the recycling the churn bench exercises.
    pub fn slots_recycled(&self) -> u64 {
        self.recycled
    }

    /// No session is active or waiting.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.queue.is_empty()
    }

    /// Accepts a session; it is admitted into a slot at the start of the
    /// next [`SessionEngine::step_round`] with free capacity. Returns the
    /// per-shard serial ([`SessionId::serial`]).
    pub fn submit(&mut self, spec: SessionSpec) -> u64 {
        let serial = self.next_serial;
        self.next_serial += 1;
        if let Some(m) = &self.metrics {
            m.note_submitted();
        }
        self.index.insert(
            serial,
            SlotState::Queued {
                submitted: self.round,
            },
        );
        // Intern the recipe triple now: every later admission keys the
        // slot search and provisioning off the id alone, never
        // re-comparing (or reconstructing) the component specs.
        let rid = self.intern(&spec) as u32;
        self.queue.push_back(QueuedSession {
            serial,
            submitted: self.round,
            rid,
            input: spec.input,
            seed: spec.seed,
            max_steps: spec.max_steps,
            ttl_rounds: spec.ttl_rounds,
        });
        serial
    }

    /// Where the session with this serial stands.
    pub fn poll(&self, serial: u64) -> SessionStatus {
        match self.index.get(&serial) {
            None => SessionStatus::Unknown,
            Some(SlotState::Queued { .. }) => SessionStatus::Queued,
            Some(&SlotState::Running { slot }) => SessionStatus::Running {
                steps: self.scheduled_steps(slot as usize, self.round),
            },
            Some(&SlotState::Done { at }) => SessionStatus::Done {
                outcome: Box::new(self.completed[at].clone()),
            },
        }
    }

    /// Disconnects the session: a queued one retires without running, an
    /// active one retires at the state the round-robin schedule has
    /// reached (the run-ahead is rewound), both as
    /// [`SessionFate::Disconnected`]. Returns `false` for ids that are
    /// done, drained, or unknown.
    pub fn disconnect(&mut self, serial: u64) -> bool {
        match self.index.get(&serial) {
            Some(&SlotState::Running { slot }) => {
                let pos = self
                    .active
                    .iter()
                    .position(|&s| s == slot)
                    .expect("running slot is on the active roster");
                self.rewind(slot as usize);
                self.retire(pos, SessionFate::Disconnected);
                true
            }
            Some(&SlotState::Queued { submitted }) => {
                let at = self
                    .queue
                    .iter()
                    .position(|q| q.serial == serial)
                    .expect("queued serial is in the queue");
                let q = self.queue.remove(at).expect("position came from the queue");
                let outcome = SessionOutcome {
                    id: SessionId::new(self.shard, serial),
                    fate: SessionFate::Disconnected,
                    stats: RunStats::empty(q.input.len()),
                    submitted_round: submitted,
                    retired_round: self.round,
                };
                self.index.insert(
                    serial,
                    SlotState::Done {
                        at: self.completed.len(),
                    },
                );
                self.completed.push(outcome);
                if let Some(m) = &self.metrics {
                    m.note_disconnected();
                }
                true
            }
            _ => false,
        }
    }

    /// Hands out every outcome retired since the last drain, exactly
    /// once; drained ids poll as [`SessionStatus::Unknown`] afterwards.
    /// The next round's buffer starts at the handed-out one's capacity,
    /// so retirements never regrow it.
    pub fn drain_completed(&mut self) -> Vec<SessionOutcome> {
        if self.completed.is_empty() {
            return Vec::new();
        }
        let buffer = Vec::with_capacity(self.completed.capacity());
        let drained = std::mem::replace(&mut self.completed, buffer);
        for outcome in &drained {
            self.index.remove(&outcome.id.serial());
        }
        drained
    }

    /// One engine round: admit from the queue into free slots (running
    /// each admitted session ahead), then walk the active roster,
    /// retiring the sessions whose completion, exhaustion or TTL
    /// disconnect the schedule places in this round.
    pub fn step_round(&mut self) {
        // Clone the profiler handle out so timed closures below can
        // borrow `self` mutably; one Arc clone per round, nothing per
        // slot beyond a predictable branch.
        let prof = self.prof.clone();
        let prof = prof.as_deref();
        self.admit_from_queue(prof);
        let round = self.round;
        // Every session the walk keeps ran a full quantum this round.
        let mut round_steps: u64 = 0;
        let mut i = 0;
        while i < self.active.len() {
            let slot = self.active[i] as usize;
            let fate = if round >= self.expires[slot] {
                Some(SessionFate::Disconnected)
            } else {
                if round >= self.stall_at[slot] {
                    self.flag_stall(slot);
                }
                if round >= self.due[slot] && self.fate[slot].is_none() {
                    self.run_ahead(slot, prof);
                }
                if round >= self.due[slot] {
                    self.fate[slot]
                } else {
                    None
                }
            };
            let Some(fate) = fate else {
                round_steps += u64::from(self.quantum);
                i += 1;
                continue;
            };
            if self.metrics.is_some() {
                round_steps +=
                    self.scheduled_steps(slot, round + 1) - self.scheduled_steps(slot, round);
            }
            match prof {
                // Retirement windows are sampled 1-in-period, like the
                // run-ahead chunks, so shares stay comparable.
                Some(p) => {
                    self.prof_tick += 1;
                    if p.sample(self.prof_tick) {
                        p.time(Phase::Retire, || self.retire(i, fate));
                    } else {
                        self.retire(i, fate);
                    }
                }
                None => self.retire(i, fate),
            }
        }
        self.round += 1;
        if let Some(m) = &self.metrics {
            // O(active) once per round, metered lanes only: the age of
            // the oldest session still in a slot.
            let oldest = self
                .active
                .iter()
                .map(|&s| self.admitted_round[s as usize])
                .min();
            let age = oldest.map_or(0, |o| self.round.saturating_sub(o));
            m.end_round(
                self.round,
                self.queue.len() as u64,
                self.active.len() as u64,
                age,
                round_steps,
            );
        }
    }

    fn admit_from_queue(&mut self, prof: Option<&PhaseProfiler>) {
        // Batch admission: the free-slot budget is computed once and the
        // loop pops exactly that many entries — each admission is a
        // dense-struct move plus a recipe-id-keyed slot reset, followed
        // by the session's run-ahead while the slot is hot.
        let admits = (self.capacity - self.active.len()).min(self.queue.len());
        if admits == 0 {
            return;
        }
        if let Some(p) = prof {
            // Admission windows are sampled per admitting round at the
            // same 1-in-period rate as the chunk and retire windows, so
            // phase shares stay comparable. (Timing every admission round
            // against 1-in-period step samples overcounted admission by
            // the sampling period — the profile that motivated the fast
            // path read 77% where the true share was ~3%.) A sampled
            // round provisions the whole batch inside the window and runs
            // the sessions ahead after it, so the window prices
            // provisioning only.
            self.prof_tick += 1;
            if p.sample(self.prof_tick) {
                let first = self.active.len();
                p.time(Phase::Admission, || {
                    for _ in 0..admits {
                        self.admit();
                    }
                });
                for i in first..self.active.len() {
                    self.run_ahead(self.active[i] as usize, prof);
                }
                return;
            }
        }
        for _ in 0..admits {
            let slot = self.admit();
            self.run_ahead(slot, prof);
        }
    }

    /// Rounds until [`SessionEngine::is_idle`], stopping after
    /// `max_rounds`; reports whether idle was reached.
    pub fn run_until_idle(&mut self, max_rounds: u64) -> bool {
        for _ in 0..max_rounds {
            if self.is_idle() {
                return true;
            }
            self.step_round();
        }
        self.is_idle()
    }

    fn intern(&mut self, spec: &SessionSpec) -> usize {
        if let Some(i) = self.recipes.iter().position(|r| {
            r.family == spec.family && r.channel == spec.channel && r.scheduler == spec.scheduler
        }) {
            return i;
        }
        self.recipes.push(Recipe {
            family: spec.family.clone(),
            channel: spec.channel.clone(),
            scheduler: spec.scheduler.clone(),
            free: Vec::new(),
        });
        self.recipes.len() - 1
    }

    // Provisions the queue's head into a free slot and returns the slot.
    fn admit(&mut self) -> usize {
        debug_assert!(self.active.len() < self.capacity);
        let QueuedSession {
            serial,
            submitted,
            rid,
            input,
            seed,
            max_steps,
            ttl_rounds,
        } = self
            .queue
            .pop_front()
            .expect("admission budget covers the queue");
        // Prefer a slot that last ran this exact recipe (reset in place),
        // then a virgin slot, then cannibalize any other free slot.
        let slot = self.recipes[rid as usize]
            .free
            .pop()
            .or_else(|| self.virgin.pop())
            .or_else(|| self.recipes.iter_mut().find_map(|r| r.free.pop()))
            .expect("active < capacity implies a free slot exists");
        let slot = slot as usize;

        let prev = self.slot_recipe[slot];
        if prev != NO_RECIPE {
            self.recycled += 1;
        }
        if let Some(m) = &self.metrics {
            m.note_admitted(prev != NO_RECIPE);
        }
        self.inputs[slot] = input;
        self.seeds[slot] = seed;
        if prev == rid {
            // Recipe-keyed fast path (the recipe's own free list hit, the
            // overwhelmingly common case under steady churn): interned
            // equality already proves the slot's machines were built from
            // this exact triple, so reset them in place without the three
            // spec comparisons `provision` would repeat per admission.
            // Behaviourally identical to the provision path by the reset
            // contract — `sessions_parity` pins this bit-for-bit.
            self.reset_slot(slot);
        } else {
            let (prev_family, prev_channel, prev_scheduler) = if prev == NO_RECIPE {
                (None, None, None)
            } else {
                let r = &self.recipes[prev as usize];
                (Some(&r.family), Some(&r.channel), Some(&r.scheduler))
            };
            self.recipes[rid as usize].family.provision(
                prev_family,
                &self.inputs[slot],
                &mut self.senders[slot],
                &mut self.receivers[slot],
            );
            self.recipes[rid as usize]
                .channel
                .provision(&mut self.channels[slot], prev_channel);
            self.recipes[rid as usize].scheduler.provision(
                &mut self.schedulers[slot],
                prev_scheduler,
                seed,
            );
        }

        let input_len = self.inputs[slot].len();
        self.slot_recipe[slot] = rid;
        self.admitted_round[slot] = self.round;
        self.stall_at[slot] = match &self.watchdog {
            Some(w) => self.round.saturating_add(w.threshold_rounds(
                healthy_step_bound(&self.recipes[rid as usize].family, input_len),
                self.quantum,
            )),
            None => u64::MAX,
        };
        self.stats[slot].reset(input_len);
        self.serials[slot] = serial;
        self.deadline[slot] = max_steps;
        self.expires[slot] = ttl_rounds.map_or(u64::MAX, |ttl| self.round.saturating_add(ttl));
        self.submitted[slot] = submitted;
        self.fate[slot] = None;
        self.active.push(slot as u32);
        self.index
            .insert(serial, SlotState::Running { slot: slot as u32 });
        slot
    }

    // Resets the slot's machines in place for its current input and
    // seed — the admission fast path, and the rewind of a disconnect.
    fn reset_slot(&mut self, slot: usize) {
        self.senders[slot]
            .as_mut()
            .expect("occupied slot has a sender")
            .reset(&self.inputs[slot]);
        self.receivers[slot]
            .as_mut()
            .expect("occupied slot has a receiver")
            .reset();
        self.channels[slot]
            .as_mut()
            .expect("occupied slot has a channel")
            .reset();
        self.schedulers[slot]
            .as_mut()
            .expect("occupied slot has a scheduler")
            .reset(self.seeds[slot]);
    }

    fn retire(&mut self, pos: usize, fate: SessionFate) {
        let slot = self.active.swap_remove(pos) as usize;
        let serial = self.serials[slot];
        self.stall_at[slot] = u64::MAX;
        if let Some(m) = &self.metrics {
            match fate {
                SessionFate::Completed => {
                    m.note_completed(self.round.saturating_sub(self.submitted[slot]));
                }
                SessionFate::Exhausted => m.note_exhausted(),
                SessionFate::Disconnected => m.note_disconnected(),
            }
        }
        let outcome = SessionOutcome {
            id: SessionId::new(self.shard, serial),
            fate,
            stats: self.stats[slot].clone(),
            submitted_round: self.submitted[slot],
            retired_round: self.round,
        };
        self.recipes[self.slot_recipe[slot] as usize]
            .free
            .push(slot as u32);
        self.index.insert(
            serial,
            SlotState::Done {
                at: self.completed.len(),
            },
        );
        self.completed.push(outcome);
    }

    // Flags the session in `slot` as stalled, exactly once per
    // admission: reconstructs its full SessionSpec from the recipe table
    // and the slot columns (complete replay provenance), buffers the
    // StallRecord for `drain_stalls`, and disarms the slot's threshold.
    // The session keeps running — the watchdog observes, it does not
    // kill.
    fn flag_stall(&mut self, slot: usize) {
        self.stall_at[slot] = u64::MAX;
        let r = &self.recipes[self.slot_recipe[slot] as usize];
        let expected = healthy_step_bound(&r.family, self.inputs[slot].len());
        let threshold = self
            .watchdog
            .as_ref()
            .map_or(0, |w| w.threshold_rounds(expected, self.quantum));
        let spec = SessionSpec {
            family: r.family.clone(),
            input: self.inputs[slot].clone(),
            channel: r.channel.clone(),
            scheduler: r.scheduler.clone(),
            seed: self.seeds[slot],
            max_steps: self.deadline[slot],
            ttl_rounds: (self.expires[slot] != u64::MAX)
                .then(|| self.expires[slot] - self.admitted_round[slot]),
        };
        self.stalls.push(StallRecord {
            experiment: String::new(),
            shard: self.shard,
            serial: self.serials[slot],
            round: self.round,
            age_rounds: self.round.saturating_sub(self.admitted_round[slot]),
            threshold_rounds: threshold,
            expected_steps: expected,
            steps: self.scheduled_steps(slot, self.round),
            spec,
        });
        if let Some(m) = &self.metrics {
            m.note_stall();
        }
    }

    // The steps the round-robin schedule has run for the session in
    // `slot` before `round`: its run-ahead progress, capped at a quantum
    // per round since admission. (The progress is final once the session
    // has a fate or reached its TTL cap, so the cap is exact.)
    fn scheduled_steps(&self, slot: usize, round: u64) -> Step {
        let rounds = round - self.admitted_round[slot];
        self.stats[slot]
            .steps
            .min(rounds.saturating_mul(u64::from(self.quantum)))
    }

    // Runs the session in `slot` one horizon ahead (see `run_chunk`),
    // every `prof.period()`-th chunk as a profiled window charged to the
    // step phases.
    fn run_ahead(&mut self, slot: usize, prof: Option<&PhaseProfiler>) {
        if let Some(p) = prof {
            self.prof_tick += 1;
            if p.sample(self.prof_tick) {
                let channel = &self.recipes[self.slot_recipe[slot] as usize].channel;
                let (deliver, expire) = (delivery_phase(channel), expiry_phase(channel));
                let mut obs = ProfObs::begin();
                self.run_chunk(slot, &mut obs, deliver, expire);
                obs.finish(p);
                return;
            }
        }
        // Phases are irrelevant under `NoObs` (marks compile away).
        self.run_chunk(
            slot,
            &mut NoObs,
            Phase::DeliverPerfect,
            Phase::ExpirePerfect,
        );
    }

    // Steps the session in `slot` until its fate, its TTL cap or
    // `HORIZON_QUANTA` more quanta, then records when the walk acts on it
    // next (`due`). A session that expires in its admission round (TTL
    // 0) stops at 0 steps, and the walk's expiry check, which comes
    // before any fate, retires it.
    fn run_chunk<O: StepObs>(&mut self, slot: usize, obs: &mut O, deliver: Phase, expire: Phase) {
        let q = u64::from(self.quantum);
        let admitted = self.admitted_round[slot];
        let cap = match self.expires[slot] {
            u64::MAX => Step::MAX,
            expires => (expires - admitted).saturating_mul(q),
        };
        let limit = self.stats[slot]
            .steps
            .saturating_add(HORIZON_QUANTA * q)
            .min(cap);
        let fate = self.advance(slot, limit, obs, deliver, expire);
        let steps = self.stats[slot].steps;
        self.fate[slot] = fate;
        self.due[slot] = match fate {
            Some(_) => admitted + steps.saturating_sub(1) / q,
            // Walks away at `expires`, which the walk checks first.
            None if steps >= cap => u64::MAX,
            None => admitted + steps / q,
        };
    }

    // Steps the session in `slot` up to `limit` steps through the shared
    // kernel with the `Quiet` sink (no event is built, no provenance
    // tracked), keeping `World::run_until(max_steps, is_complete)`'s
    // stopping rule: completion is checked before each step and after the
    // last, and the budget caps the count. Returns the fate it stopped at.
    fn advance<O: StepObs>(
        &mut self,
        slot: usize,
        limit: Step,
        obs: &mut O,
        deliver: Phase,
        expire: Phase,
    ) -> Option<SessionFate> {
        let sender = &mut **self.senders[slot].as_mut().expect("active slot has sender");
        let receiver = &mut **self.receivers[slot]
            .as_mut()
            .expect("active slot has receiver");
        let channel = &mut **self.channels[slot]
            .as_mut()
            .expect("active slot has channel");
        let scheduler = &mut **self.schedulers[slot]
            .as_mut()
            .expect("active slot has scheduler");
        let stats = &mut self.stats[slot];
        let deadline = self.deadline[slot];
        let mut sink = Quiet {
            input: &self.inputs[slot],
        };
        loop {
            if sender.is_done() && stats.written >= stats.input_len {
                return Some(SessionFate::Completed);
            }
            if stats.steps >= deadline {
                return Some(SessionFate::Exhausted);
            }
            if stats.steps >= limit {
                return None;
            }
            let components = Components {
                sender: &mut *sender,
                receiver: &mut *receiver,
                channel: &mut *channel,
                scheduler: &mut *scheduler,
            };
            kernel::step(
                components,
                stats,
                &mut self.scratch,
                obs,
                &mut sink,
                deliver,
                expire,
            );
        }
    }

    // Puts the session in `slot` back at the step count the schedule has
    // reached: resets its machines through the admission reset path and
    // replays that many steps, all of which precede the session's fate.
    fn rewind(&mut self, slot: usize) {
        let steps = self.scheduled_steps(slot, self.round);
        if steps == self.stats[slot].steps {
            return;
        }
        self.reset_slot(slot);
        self.stats[slot].reset(self.inputs[slot].len());
        let (deliver, expire) = (Phase::DeliverPerfect, Phase::ExpirePerfect);
        let fate = self.advance(slot, steps, &mut NoObs, deliver, expire);
        debug_assert_eq!(fate, None, "the schedule stops short of the fate");
    }
}

/// Shape of a [`SessionServer`]: how many shards, how many slots each,
/// and the per-round step quantum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Independent shards (each its own [`SessionEngine`] and lock).
    #[serde(default = "default_shards")]
    pub shards: u16,
    /// Slots per shard.
    #[serde(default = "default_capacity")]
    pub capacity_per_shard: usize,
    /// Protocol steps per session per round.
    #[serde(default = "default_quantum")]
    pub quantum: u32,
    /// Stall watchdog; `None` (the default) runs without one.
    #[serde(default)]
    pub watchdog: Option<WatchdogSpec>,
}

fn default_shards() -> u16 {
    1
}

fn default_capacity() -> usize {
    1024
}

fn default_quantum() -> u32 {
    8
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec {
            shards: default_shards(),
            capacity_per_shard: default_capacity(),
            quantum: default_quantum(),
            watchdog: None,
        }
    }
}

/// The sharded submit/poll front of the session store.
///
/// `submit` routes round-robin across shards; `poll` and `disconnect`
/// route by the id's shard bits. Shards step in lockstep under
/// [`SessionServer::step_rounds`] / [`SessionServer::run_until_idle`];
/// each shard is an independently locked [`SessionEngine`], so callers on
/// different shards never contend.
#[derive(Debug)]
pub struct SessionServer {
    engines: Vec<Mutex<SessionEngine>>,
    router: AtomicUsize,
    fleet: Option<FleetRegistry>,
}

impl SessionServer {
    /// Builds the server: `spec.shards` empty engines (no fleet
    /// registry; see [`SessionServer::with_fleet`]). A `spec.watchdog`
    /// arms every shard's stall watchdog either way.
    ///
    /// # Panics
    ///
    /// Panics if the spec names zero shards, slots, or quantum.
    pub fn new(spec: &ServerSpec) -> SessionServer {
        assert!(spec.shards > 0, "a server needs at least one shard");
        let engines = (0..spec.shards)
            .map(|s| {
                let mut engine = SessionEngine::new(s, spec.capacity_per_shard, spec.quantum);
                if let Some(w) = spec.watchdog {
                    engine.arm_watchdog(w);
                }
                Mutex::new(engine)
            })
            .collect();
        SessionServer {
            engines,
            router: AtomicUsize::new(0),
            fleet: None,
        }
    }

    /// Builds the server with a [`FleetRegistry`] attached: every shard
    /// reports into its own [`ShardMetrics`], and
    /// [`SessionServer::snapshot`] / [`SessionServer::watch`] observe
    /// the fleet live.
    pub fn with_fleet(spec: &ServerSpec) -> SessionServer {
        let mut server = SessionServer::new(spec);
        let fleet = FleetRegistry::new(spec.shards);
        for (s, engine) in server.engines.iter_mut().enumerate() {
            engine.get_mut().attach_metrics(fleet.shard(s as u16));
        }
        server.fleet = Some(fleet);
        server
    }

    /// The fleet registry, when built via [`SessionServer::with_fleet`].
    pub fn fleet(&self) -> Option<&FleetRegistry> {
        self.fleet.as_ref()
    }

    /// A point-in-time [`FleetSnapshot`] of every shard's metrics, taken
    /// without stopping (or locking) any shard; `None` unless built via
    /// [`SessionServer::with_fleet`].
    pub fn snapshot(&self) -> Option<FleetSnapshot> {
        self.fleet.as_ref().map(FleetRegistry::snapshot)
    }

    /// A delta-tracking [`FleetWatch`] over the fleet; `None` unless
    /// built via [`SessionServer::with_fleet`].
    pub fn watch(&self) -> Option<FleetWatch> {
        self.fleet.as_ref().map(FleetRegistry::watch)
    }

    /// Drains every shard's watchdog flags, exactly once, shard-major.
    pub fn drain_stalls(&self) -> Vec<StallRecord> {
        let mut out = Vec::new();
        for engine in &self.engines {
            out.append(&mut engine.lock().drain_stalls());
        }
        out
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// Accepts a session on the next shard in round-robin order.
    pub fn submit(&self, spec: SessionSpec) -> SessionId {
        let shard = self.router.fetch_add(1, Ordering::Relaxed) % self.engines.len();
        self.submit_to(shard as u16, spec)
    }

    /// Accepts a session on a specific shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn submit_to(&self, shard: u16, spec: SessionSpec) -> SessionId {
        let serial = self.engines[shard as usize].lock().submit(spec);
        SessionId::new(shard, serial)
    }

    /// Where the session stands. Ids from another server (shard out of
    /// range) report [`SessionStatus::Unknown`].
    pub fn poll(&self, id: SessionId) -> SessionStatus {
        match self.engines.get(id.shard() as usize) {
            Some(engine) => engine.lock().poll(id.serial()),
            None => SessionStatus::Unknown,
        }
    }

    /// Disconnects the session; see [`SessionEngine::disconnect`].
    pub fn disconnect(&self, id: SessionId) -> bool {
        match self.engines.get(id.shard() as usize) {
            Some(engine) => engine.lock().disconnect(id.serial()),
            None => false,
        }
    }

    /// Steps every shard `rounds` rounds, in lockstep.
    pub fn step_rounds(&self, rounds: u64) {
        for _ in 0..rounds {
            for engine in &self.engines {
                engine.lock().step_round();
            }
        }
    }

    /// Rounds (lockstep across shards) until every shard is idle,
    /// stopping after `max_rounds`; reports whether idle was reached.
    pub fn run_until_idle(&self, max_rounds: u64) -> bool {
        for _ in 0..max_rounds {
            if self.engines.iter().all(|e| e.lock().is_idle()) {
                return true;
            }
            for engine in &self.engines {
                engine.lock().step_round();
            }
        }
        self.engines.iter().all(|e| e.lock().is_idle())
    }

    /// Sessions currently in slots, across all shards.
    pub fn active_sessions(&self) -> usize {
        self.engines.iter().map(|e| e.lock().active_len()).sum()
    }

    /// Sessions waiting for slots, across all shards.
    pub fn queued_sessions(&self) -> usize {
        self.engines.iter().map(|e| e.lock().queued_len()).sum()
    }

    /// Drains every shard's outcomes; each outcome is handed out exactly
    /// once, shard-major. A lone shard's buffer is handed out as it is.
    pub fn drain_completed(&self) -> Vec<SessionOutcome> {
        if let [engine] = self.engines.as_slice() {
            return engine.lock().drain_completed();
        }
        let mut out = Vec::new();
        for engine in &self.engines {
            out.append(&mut engine.lock().drain_completed());
        }
        out
    }
}

/// One entry in a churn workload's session mix: the recipe a slice of the
/// synthetic users runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTemplate {
    /// The protocol family recipe.
    pub family: FamilySpec,
    /// The channel recipe.
    pub channel: ChannelSpec,
    /// The adversary recipe.
    pub scheduler: SchedulerSpec,
}

/// A seeded open/transmit/disconnect workload: `sessions` users arrive
/// `arrivals_per_round` per round (round-robin over shards), each running
/// a [`SessionTemplate`] from the mix on an input drawn from the
/// template's claimed family, and a `disconnect_rate` fraction walk away
/// `disconnect_after` rounds after admission.
///
/// Session `k`'s spec is a pure function of `(seed, k)`, so the workload
/// — and every per-session outcome — is identical at any shard count;
/// [`ChurnReport::digest`] is the order-insensitive check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Total sessions the workload opens.
    pub sessions: u64,
    /// Arrival rate: sessions `k` with `k / arrivals_per_round == r`
    /// arrive on round `r`.
    pub arrivals_per_round: u64,
    /// Server shape the workload runs on.
    #[serde(default)]
    pub server: ServerSpec,
    /// Per-session step budget.
    pub max_steps: Step,
    /// Workload seed: drives per-session input choice, adversary seed and
    /// walk-away draws.
    pub seed: u64,
    /// Fraction of sessions that disconnect early, in `[0, 1]`.
    #[serde(default)]
    pub disconnect_rate: f64,
    /// Rounds after admission an early-disconnecting session walks away.
    #[serde(default = "default_disconnect_after")]
    pub disconnect_after: u64,
    /// The session mix; session `k` runs template `k % mix.len()`.
    pub mix: Vec<SessionTemplate>,
}

fn default_disconnect_after() -> u64 {
    1
}

impl ChurnSpec {
    /// The per-template input pools (each template's claimed family),
    /// computed once per run.
    ///
    /// # Panics
    ///
    /// Panics if a template's family claims no sequences.
    pub fn claimed_inputs(&self) -> Vec<Vec<DataSeq>> {
        self.mix
            .iter()
            .map(|t| {
                let seqs = t.family.build().claimed_family().seqs().to_vec();
                assert!(!seqs.is_empty(), "template family claims no sequences");
                seqs
            })
            .collect()
    }

    /// Session `k`'s spec — a pure function of `(self.seed, k)` and the
    /// mix, independent of shard count and arrival interleaving.
    pub fn session_at(&self, k: u64, claimed: &[Vec<DataSeq>]) -> SessionSpec {
        let t = (k % self.mix.len() as u64) as usize;
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let pool = &claimed[t];
        let input = pool[rng.gen_range(0..pool.len())].clone();
        let seed = rng.next_u64();
        let ttl = (self.disconnect_rate > 0.0 && rng.gen_bool(self.disconnect_rate))
            .then_some(self.disconnect_after);
        let template = &self.mix[t];
        SessionSpec {
            family: template.family.clone(),
            input,
            channel: template.channel.clone(),
            scheduler: template.scheduler.clone(),
            seed,
            max_steps: self.max_steps,
            ttl_rounds: ttl,
        }
    }
}

/// What a churn run measured, merged across shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Shards the workload ran on.
    pub shards: usize,
    /// Sessions submitted.
    pub submitted: u64,
    /// Sessions that completed their transmission.
    pub completed: u64,
    /// Sessions that ran out of step budget.
    pub exhausted: u64,
    /// Sessions that walked away.
    pub disconnected: u64,
    /// Protocol steps executed across every session.
    pub total_steps: u64,
    /// Engine rounds, max across shards.
    pub rounds: u64,
    /// Submit-to-retire latency of *completed* sessions, in rounds.
    pub latency_rounds: Histogram,
    /// Order-insensitive digest over per-session `(fate, stats)` — equal
    /// digests at different shard counts certify the sharding changed
    /// scheduling only, not any session's outcome.
    pub digest: u64,
    /// Wall-clock seconds for the whole run (threads included).
    pub wall_secs: f64,
    /// Per-shard busy seconds — the time each shard's engine spent
    /// stepping its own sessions. On a machine with a core per shard,
    /// wall time converges to the maximum of these (the critical path).
    pub shard_busy_secs: Vec<f64>,
    /// Sessions the stall watchdog flagged (empty unless
    /// `server.watchdog` was set), with full replay provenance.
    #[serde(default)]
    pub stalls: Vec<StallRecord>,
}

impl ChurnReport {
    /// The parallel critical path: the busiest shard's seconds. This is
    /// what aggregate throughput is computed against, so the number
    /// measures sharding quality (balance + per-shard speed) rather than
    /// how many cores the benchmark host happens to have.
    pub fn critical_path_secs(&self) -> f64 {
        self.shard_busy_secs.iter().copied().fold(0.0, f64::max)
    }

    /// Completed sessions per critical-path second.
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.critical_path_secs();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// p99 submit-to-retire latency of completed sessions, in rounds.
    pub fn p99_latency_rounds(&self) -> f64 {
        self.latency_rounds.quantile(0.99)
    }

    /// Flattens for the `{"sessions": …}` telemetry line.
    pub fn record(&self, experiment: &str) -> SessionsRecord {
        SessionsRecord {
            experiment: experiment.to_string(),
            shards: self.shards,
            submitted: self.submitted,
            completed: self.completed,
            exhausted: self.exhausted,
            disconnected: self.disconnected,
            total_steps: self.total_steps,
            rounds: self.rounds,
            wall_secs: self.wall_secs,
            busy_secs: self.critical_path_secs(),
            sessions_per_sec: self.sessions_per_sec(),
            p99_latency_rounds: self.p99_latency_rounds(),
        }
    }

    /// Folds another run's report into this one, as shards running side
    /// by side: counters and digests add, rounds and wall seconds take
    /// the maximum, distributions, per-shard busy seconds and stalls
    /// concatenate.
    pub fn merge(&mut self, mut other: ChurnReport) {
        self.shards += other.shards;
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.exhausted += other.exhausted;
        self.disconnected += other.disconnected;
        self.total_steps += other.total_steps;
        self.rounds = self.rounds.max(other.rounds);
        self.latency_rounds.merge(&other.latency_rounds);
        self.digest = self.digest.wrapping_add(other.digest);
        self.wall_secs = self.wall_secs.max(other.wall_secs);
        self.shard_busy_secs.append(&mut other.shard_busy_secs);
        self.stalls.append(&mut other.stalls);
    }
}

fn outcome_digest(outcome: &SessionOutcome) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (outcome.fate == SessionFate::Completed).hash(&mut h);
    (outcome.fate == SessionFate::Disconnected).hash(&mut h);
    outcome.stats.steps.hash(&mut h);
    outcome.stats.sends_s.hash(&mut h);
    outcome.stats.sends_r.hash(&mut h);
    outcome.stats.deliveries_r.hash(&mut h);
    outcome.stats.deliveries_s.hash(&mut h);
    outcome.stats.drops.hash(&mut h);
    outcome.stats.written.hash(&mut h);
    outcome.stats.input_len.hash(&mut h);
    outcome.stats.safe.hash(&mut h);
    outcome.stats.write_steps.hash(&mut h);
    h.finish()
}

// One shard's share of the workload, as a one-shard report whose wall
// seconds are its busy seconds.
fn run_shard(
    spec: &ChurnSpec,
    shard: u16,
    claimed: &[Vec<DataSeq>],
    meter: Option<&ProgressMeter>,
    metrics: Option<Arc<ShardMetrics>>,
    prof: Option<&Arc<PhaseProfiler>>,
) -> ChurnReport {
    let shards = u64::from(spec.server.shards.max(1));
    let arrivals = spec.arrivals_per_round.max(1);
    let mut engine = SessionEngine::new(shard, spec.server.capacity_per_shard, spec.server.quantum);
    if let Some(m) = metrics {
        engine.attach_metrics(m);
    }
    if let Some(p) = prof {
        engine.attach_profiler(Arc::clone(p));
    }
    if let Some(w) = spec.server.watchdog {
        engine.arm_watchdog(w);
    }
    let mut progress = meter.map(ProgressMeter::local);
    let mut out = ChurnReport {
        shards: 1,
        submitted: 0,
        completed: 0,
        exhausted: 0,
        disconnected: 0,
        total_steps: 0,
        rounds: 0,
        latency_rounds: latency_histogram(),
        digest: 0,
        wall_secs: 0.0,
        shard_busy_secs: Vec::new(),
        stalls: Vec::new(),
    };
    let started = Instant::now();
    // Shard `s` owns sessions `k ≡ s (mod shards)`; session `k` arrives
    // on round `k / arrivals` regardless of shard count.
    let mut k = u64::from(shard);
    while k < spec.sessions || !engine.is_idle() {
        while k < spec.sessions && k / arrivals <= engine.round() {
            engine.submit(spec.session_at(k, claimed));
            out.submitted += 1;
            k += shards;
        }
        engine.step_round();
        for outcome in engine.drain_completed() {
            match outcome.fate {
                SessionFate::Completed => {
                    out.completed += 1;
                    out.latency_rounds.record(outcome.latency_rounds() as f64);
                }
                SessionFate::Exhausted => out.exhausted += 1,
                SessionFate::Disconnected => out.disconnected += 1,
            }
            out.total_steps += outcome.stats.steps;
            out.digest = out.digest.wrapping_add(outcome_digest(&outcome));
            if let Some(p) = progress.as_mut() {
                p.add(1);
            }
        }
    }
    out.rounds = engine.round();
    out.wall_secs = started.elapsed().as_secs_f64();
    out.shard_busy_secs.push(out.wall_secs);
    out.stalls = engine.drain_stalls();
    out
}

/// How [`run_churn`] runs a workload: what observes it, and whether
/// the shards run on their own threads or one after another. The
/// default runs one thread per shard with nothing attached.
///
/// Observation never changes results: per-session outcomes and the
/// report's digest are identical under every combination, and only the
/// timing fields differ between threaded and isolated runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnRun<'a> {
    /// Live progress, ticked once per drained outcome; shard threads
    /// announce themselves so liveness shows in every snapshot.
    pub meter: Option<&'a ProgressMeter>,
    /// A registry each shard reports into (the metered lane). Another
    /// thread holding a clone can sample [`FleetRegistry::snapshot`] /
    /// [`FleetRegistry::watch`] while the workload runs. Its shard count
    /// must equal `spec.server.shards`.
    pub fleet: Option<&'a FleetRegistry>,
    /// A phase profiler every shard engine shares: each
    /// `period()`-th run-ahead chunk becomes a profiled window, so the
    /// per-phase cost table covers the whole fleet.
    pub profiler: Option<&'a Arc<PhaseProfiler>>,
    /// Step each shard in isolation, sequentially on the calling thread,
    /// so [`ChurnReport::shard_busy_secs`] is each shard's exact
    /// single-threaded cost with no core contention. This is the bench
    /// timing mode: on a host with a core per shard, wall time converges
    /// to the critical path these numbers bound.
    pub isolated: bool,
}

/// Runs the churn workload as `run` says.
///
/// # Panics
///
/// Panics if the spec has no session mix, its disconnect rate is outside
/// `0..=1`, or `run.fleet`'s shard count differs from
/// `spec.server.shards`.
pub fn run_churn(spec: &ChurnSpec, run: &ChurnRun<'_>) -> ChurnReport {
    let ChurnRun {
        meter,
        fleet,
        profiler: prof,
        isolated,
    } = *run;
    assert!(!spec.mix.is_empty(), "a churn workload needs a session mix");
    assert!(
        (0.0..=1.0).contains(&spec.disconnect_rate),
        "disconnect_rate out of range"
    );
    let claimed = spec.claimed_inputs();
    let shards = spec.server.shards.max(1);
    if let Some(f) = fleet {
        assert_eq!(
            f.shard_count(),
            usize::from(shards),
            "fleet registry shard count must match the workload's"
        );
    }
    if let Some(m) = meter {
        m.begin(spec.sessions as usize);
    }
    let wall = Instant::now();
    let outs: Vec<ChurnReport> = if isolated || shards == 1 {
        (0..shards)
            .map(|s| run_shard(spec, s, &claimed, meter, fleet.map(|f| f.shard(s)), prof))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| {
                    let claimed = &claimed;
                    let metrics = fleet.map(|f| f.shard(s));
                    scope.spawn(move || {
                        if let Some(m) = meter {
                            m.worker_started();
                        }
                        let out = run_shard(spec, s, claimed, meter, metrics, prof);
                        if let Some(m) = meter {
                            m.worker_finished();
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    };
    let wall_secs = wall.elapsed().as_secs_f64();
    if let Some(m) = meter {
        m.finish();
    }
    let mut report = outs
        .into_iter()
        .reduce(|mut report, shard| {
            report.merge(shard);
            report
        })
        .expect("a workload has at least one shard");
    report.wall_secs = wall_secs;
    debug_assert_eq!(report.submitted, spec.sessions);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_protocols::ResendPolicy;

    fn tight_spec(input: &[u16], seed: u64) -> SessionSpec {
        SessionSpec {
            family: FamilySpec::Tight {
                d: 3,
                policy: ResendPolicy::Once,
            },
            input: DataSeq::from_indices(input.iter().copied()),
            channel: ChannelSpec::Dup,
            scheduler: SchedulerSpec::DupStorm { p_deliver: 0.9 },
            seed,
            max_steps: 5_000,
            ttl_rounds: None,
        }
    }

    fn churn_mix() -> Vec<SessionTemplate> {
        vec![
            SessionTemplate {
                family: FamilySpec::Tight {
                    d: 3,
                    policy: ResendPolicy::Once,
                },
                channel: ChannelSpec::Dup,
                scheduler: SchedulerSpec::DupStorm { p_deliver: 0.9 },
            },
            SessionTemplate {
                family: FamilySpec::Abp {
                    domain: 2,
                    max_len: 3,
                },
                channel: ChannelSpec::LossyFifo,
                scheduler: SchedulerSpec::Random { p_deliver: 0.8 },
            },
        ]
    }

    fn small_churn(sessions: u64, shards: u16) -> ChurnSpec {
        ChurnSpec {
            sessions,
            arrivals_per_round: 16,
            server: ServerSpec {
                shards,
                capacity_per_shard: 32,
                quantum: 8,
                watchdog: None,
            },
            max_steps: 2_000,
            seed: 42,
            disconnect_rate: 0.1,
            disconnect_after: 2,
            mix: churn_mix(),
        }
    }

    #[test]
    fn session_id_round_trips_shard_and_serial() {
        let id = SessionId::new(7, 123_456);
        assert_eq!(id.shard(), 7);
        assert_eq!(id.serial(), 123_456);
        assert_eq!(id.to_string(), "7:123456");
        let top = SessionId::new(u16::MAX, (1 << 48) - 1);
        assert_eq!(top.shard(), u16::MAX);
        assert_eq!(top.serial(), (1 << 48) - 1);
    }

    #[test]
    fn submit_poll_drain_lifecycle() {
        let server = SessionServer::new(&ServerSpec {
            shards: 1,
            capacity_per_shard: 8,
            quantum: 8,
            watchdog: None,
        });
        let id = server.submit(tight_spec(&[1, 2, 0], 7));
        assert_eq!(server.poll(id), SessionStatus::Queued);
        server.step_rounds(1);
        match server.poll(id) {
            SessionStatus::Running { steps } => assert!(steps > 0),
            SessionStatus::Done { .. } => {} // fast completion is fine
            other => panic!("expected running or done, got {other:?}"),
        }
        assert!(server.run_until_idle(10_000));
        let outcome = match server.poll(id) {
            SessionStatus::Done { outcome } => outcome,
            other => panic!("expected done, got {other:?}"),
        };
        assert_eq!(outcome.fate, SessionFate::Completed);
        assert!(outcome.stats.safe);
        assert_eq!(outcome.stats.written, 3);
        let drained = server.drain_completed();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0], *outcome);
        // Exactly-once: drained ids are forgotten.
        assert_eq!(server.poll(id), SessionStatus::Unknown);
        assert!(server.drain_completed().is_empty());
    }

    #[test]
    fn stats_match_a_single_world_run() {
        for seed in 0..16 {
            let spec = tight_spec(&[2, 0, 1], seed);
            let mut world = spec.build_world();
            world.run_until(spec.max_steps, World::is_complete);

            let mut engine = SessionEngine::new(0, 4, 8);
            let serial = engine.submit(spec);
            assert!(engine.run_until_idle(10_000));
            let SessionStatus::Done { outcome } = engine.poll(serial) else {
                panic!("session must have retired");
            };
            assert_eq!(outcome.stats, world.stats(), "seed={seed}");
        }
    }

    #[test]
    fn slot_recycling_replays_bit_identically() {
        // Two laps of the same five sessions through a 2-slot shard: the
        // second lap reuses slots (reset in place) and must reproduce the
        // first lap's stats exactly.
        let specs: Vec<SessionSpec> = (0..5).map(|s| tight_spec(&[1, 2, 0], s)).collect();
        let mut engine = SessionEngine::new(0, 2, 8);
        let lap = |engine: &mut SessionEngine| -> Vec<RunStats> {
            let serials: Vec<u64> = specs.iter().map(|s| engine.submit(s.clone())).collect();
            assert!(engine.run_until_idle(10_000));
            let stats = serials
                .iter()
                .map(|&s| match engine.poll(s) {
                    SessionStatus::Done { outcome } => outcome.stats.clone(),
                    other => panic!("expected done, got {other:?}"),
                })
                .collect();
            engine.drain_completed();
            stats
        };
        let first = lap(&mut engine);
        assert!(engine.slots_recycled() > 0, "2 slots, 5 sessions: recycles");
        let second = lap(&mut engine);
        assert_eq!(first, second);
    }

    #[test]
    fn cross_recipe_recycling_rebuilds_slots() {
        // Alternate two recipes through a 1-slot shard: every admission
        // after the first recycles the slot, half across recipes.
        let mut engine = SessionEngine::new(0, 1, 8);
        let abp = SessionSpec {
            family: FamilySpec::Abp {
                domain: 2,
                max_len: 3,
            },
            input: DataSeq::from_indices([1, 0]),
            channel: ChannelSpec::LossyFifo,
            scheduler: SchedulerSpec::Random { p_deliver: 0.8 },
            seed: 3,
            max_steps: 2_000,
            ttl_rounds: None,
        };
        let tight = tight_spec(&[2, 1], 3);
        for round in 0..3 {
            for spec in [&abp, &tight] {
                let mut solo = SessionEngine::new(0, 1, 8);
                let fresh_serial = solo.submit(spec.clone());
                assert!(solo.run_until_idle(10_000));
                let SessionStatus::Done { outcome: fresh } = solo.poll(fresh_serial) else {
                    panic!("fresh run must retire");
                };
                let serial = engine.submit(spec.clone());
                assert!(engine.run_until_idle(10_000));
                let SessionStatus::Done { outcome } = engine.poll(serial) else {
                    panic!("recycled run must retire");
                };
                assert_eq!(outcome.stats, fresh.stats, "round={round}");
                engine.drain_completed();
            }
        }
        assert!(engine.slots_recycled() >= 5);
    }

    #[test]
    fn backpressure_queues_and_eventually_completes() {
        let server = SessionServer::new(&ServerSpec {
            shards: 1,
            capacity_per_shard: 1,
            quantum: 8,
            watchdog: None,
        });
        let ids: Vec<SessionId> = (0..3)
            .map(|s| server.submit(tight_spec(&[1, 0], s)))
            .collect();
        assert_eq!(server.queued_sessions(), 3);
        assert!(server.run_until_idle(100_000));
        for id in ids {
            match server.poll(id) {
                SessionStatus::Done { outcome } => {
                    assert_eq!(outcome.fate, SessionFate::Completed);
                }
                other => panic!("expected done, got {other:?}"),
            }
        }
    }

    #[test]
    fn disconnect_running_and_queued_sessions() {
        let server = SessionServer::new(&ServerSpec {
            shards: 1,
            capacity_per_shard: 1,
            quantum: 1,
            watchdog: None,
        });
        // Starved adversary: the session would never finish on its own.
        let mut starved = tight_spec(&[1, 0], 0);
        starved.scheduler = SchedulerSpec::Random { p_deliver: 0.0 };
        let running = server.submit(starved.clone());
        let queued = server.submit(starved);
        server.step_rounds(3);
        assert!(matches!(
            server.poll(running),
            SessionStatus::Running { .. }
        ));
        assert_eq!(server.poll(queued), SessionStatus::Queued);

        assert!(server.disconnect(running));
        assert!(server.disconnect(queued));
        let drained = server.drain_completed();
        assert_eq!(drained.len(), 2);
        assert!(drained
            .iter()
            .all(|o| o.fate == SessionFate::Disconnected && o.stats.safe));
        let with_steps = drained.iter().find(|o| o.id == running).unwrap();
        assert!(with_steps.stats.steps > 0, "ran before disconnecting");
        let without = drained.iter().find(|o| o.id == queued).unwrap();
        assert_eq!(without.stats.steps, 0, "never admitted");
        // A second disconnect is a no-op.
        assert!(!server.disconnect(running));
    }

    #[test]
    fn ttl_churn_disconnects_after_the_configured_rounds() {
        let mut spec = tight_spec(&[1, 0], 0);
        spec.scheduler = SchedulerSpec::Random { p_deliver: 0.0 };
        spec.ttl_rounds = Some(3);
        let mut engine = SessionEngine::new(0, 4, 2);
        let serial = engine.submit(spec);
        assert!(engine.run_until_idle(100));
        let SessionStatus::Done { outcome } = engine.poll(serial) else {
            panic!("ttl must retire the session");
        };
        assert_eq!(outcome.fate, SessionFate::Disconnected);
        // Admitted on round 0, expired at round 3: three 2-step rounds.
        assert_eq!(outcome.stats.steps, 6);
    }

    // What the round-robin schedule makes of `spec` admitted at round
    // `admitted` with quantum `q`: its fate, retire round and final stats.
    fn scheduled_outcome(
        spec: &SessionSpec,
        q: u64,
        admitted: u64,
    ) -> (SessionFate, u64, RunStats) {
        let mut world = spec.build_world();
        if spec.ttl_rounds == Some(0) {
            // The expiry check precedes every fate check.
            return (SessionFate::Disconnected, admitted, world.stats());
        }
        let cap = spec.ttl_rounds.map_or(Step::MAX, |ttl| ttl * q);
        let completed = world.run_until(spec.max_steps.min(cap), World::is_complete);
        let n = world.stats().steps;
        let fate = if completed {
            SessionFate::Completed
        } else if n >= spec.max_steps {
            SessionFate::Exhausted
        } else {
            let ttl = spec
                .ttl_rounds
                .expect("only a TTL stops a run short of its budget");
            return (SessionFate::Disconnected, admitted + ttl, world.stats());
        };
        (fate, admitted + n.saturating_sub(1) / q, world.stats())
    }

    // A world run of `spec` capped at `steps` steps.
    fn world_after(spec: &SessionSpec, steps: Step) -> RunStats {
        let mut world = spec.build_world();
        world.run_until(steps, World::is_complete);
        world.stats()
    }

    #[test]
    fn round_resolved_observables_follow_the_quantum_schedule() {
        // Idle rounds before the submit, so the admission round is not 0.
        const IDLE: u64 = 2;
        const MAX_ROUNDS: u64 = 64;
        let starving = |spec: SessionSpec| SessionSpec {
            scheduler: SchedulerSpec::Random { p_deliver: 0.0 },
            ..spec
        };
        let mut grid: Vec<SessionSpec> = (0..4).map(|s| tight_spec(&[1, 2, 0], s)).collect();
        grid.push(SessionSpec {
            family: FamilySpec::Abp {
                domain: 2,
                max_len: 3,
            },
            channel: ChannelSpec::LossyFifo,
            scheduler: SchedulerSpec::Random { p_deliver: 0.8 },
            ..tight_spec(&[1, 0, 1], 9)
        });
        grid.push(SessionSpec {
            channel: ChannelSpec::Del,
            scheduler: SchedulerSpec::Random { p_deliver: 0.7 },
            ..tight_spec(&[2, 1, 0], 10)
        });
        grid.push(SessionSpec {
            ttl_rounds: Some(0),
            ..tight_spec(&[1, 0], 1)
        });
        grid.push(SessionSpec {
            ttl_rounds: Some(0),
            max_steps: 0,
            ..tight_spec(&[1, 0], 1)
        });
        grid.push(SessionSpec {
            ttl_rounds: Some(2),
            ..tight_spec(&[1, 2, 0], 2)
        });
        grid.push(SessionSpec {
            ttl_rounds: Some(2),
            ..starving(tight_spec(&[1, 0], 3))
        });
        grid.push(tight_spec(&[], 4));
        grid.push(SessionSpec {
            max_steps: 0,
            ..tight_spec(&[1, 0], 5)
        });
        // Budgets off the quantum grid (13) and on it for every quantum
        // below (24): the exhaustion lands inside a quantum and exactly
        // on a boundary.
        for max_steps in [13, 24] {
            grid.push(SessionSpec {
                max_steps,
                ..starving(tight_spec(&[1, 0], 6))
            });
        }
        let long = SessionSpec {
            max_steps: 1_000_000,
            ..starving(tight_spec(&[1, 2, 0], 8))
        };
        grid.push(long.clone());
        for q in [1u32, 3, 8] {
            let qs = u64::from(q);
            for spec in &grid {
                let (fate, retire, last) = scheduled_outcome(spec, qs, IDLE);
                let mut retired = false;
                let mut progress = 0;
                for k in 1..=MAX_ROUNDS {
                    let ctx = format!("q={q} round {k} after admission, {spec:?}");
                    let mut engine = SessionEngine::new(0, 4, q);
                    for _ in 0..IDLE {
                        engine.step_round();
                    }
                    let serial = engine.submit(spec.clone());
                    for _ in 0..k {
                        engine.step_round();
                    }
                    let round = engine.round();
                    if retire < round {
                        let SessionStatus::Done { outcome } = engine.poll(serial) else {
                            panic!("{ctx}: expected the session retired in round {retire}");
                        };
                        assert_eq!(outcome.fate, fate, "{ctx}");
                        assert_eq!(outcome.retired_round, retire, "{ctx}");
                        assert_eq!(outcome.submitted_round, IDLE, "{ctx}");
                        assert_eq!(outcome.stats, last, "{ctx}");
                        retired = true;
                        break;
                    }
                    let scheduled = world_after(spec, (round - IDLE) * qs);
                    assert_eq!(
                        engine.poll(serial),
                        SessionStatus::Running {
                            steps: scheduled.steps
                        },
                        "{ctx}"
                    );
                    // Bounded work per visit: at most 4 quanta
                    // (`HORIZON_QUANTA`) past the previous visit, so at
                    // most 4 by the end of the admission round.
                    let slot = engine.active[0] as usize;
                    let ran = engine.stats[slot].steps;
                    assert!(
                        ran - progress <= 4 * qs && ran <= (k + 3) * qs,
                        "{ctx}: {ran} steps run, {progress} a round earlier"
                    );
                    progress = ran;
                    assert!(engine.disconnect(serial), "{ctx}");
                    let drained = engine.drain_completed();
                    assert_eq!(drained.len(), 1, "{ctx}");
                    assert_eq!(drained[0].fate, SessionFate::Disconnected, "{ctx}");
                    assert_eq!(drained[0].retired_round, round, "{ctx}");
                    assert_eq!(drained[0].stats, scheduled, "{ctx}: disconnect stats");
                }
                assert_eq!(retired, *spec != long, "q={q}: {spec:?}");
            }
        }
    }

    #[test]
    fn exhaustion_caps_steps_at_the_budget() {
        let mut spec = tight_spec(&[1, 0], 0);
        spec.scheduler = SchedulerSpec::Random { p_deliver: 0.0 };
        spec.max_steps = 10;
        let mut engine = SessionEngine::new(0, 4, 8);
        let serial = engine.submit(spec);
        assert!(engine.run_until_idle(100));
        let SessionStatus::Done { outcome } = engine.poll(serial) else {
            panic!("budget must retire the session");
        };
        assert_eq!(outcome.fate, SessionFate::Exhausted);
        assert_eq!(outcome.stats.steps, 10);
    }

    #[test]
    fn empty_input_completes_like_a_world_run() {
        // A fresh sender only learns it is done at Init, so both the
        // world loop and the session store charge the empty input one
        // step — parity is the contract, not zero.
        let spec = tight_spec(&[], 0);
        let mut world = spec.build_world();
        world.run_until(spec.max_steps, World::is_complete);

        let mut engine = SessionEngine::new(0, 4, 8);
        let serial = engine.submit(spec);
        assert!(engine.run_until_idle(10));
        let SessionStatus::Done { outcome } = engine.poll(serial) else {
            panic!("empty input must complete");
        };
        assert_eq!(outcome.fate, SessionFate::Completed);
        assert_eq!(outcome.stats, world.stats());
        assert_eq!(outcome.stats.steps, 1);
    }

    #[test]
    fn churn_outcomes_are_shard_count_invariant() {
        let base = run_churn(&small_churn(400, 1), &ChurnRun::default());
        assert_eq!(base.submitted, 400);
        assert_eq!(
            base.completed + base.exhausted + base.disconnected,
            base.submitted
        );
        assert!(base.completed > 0);
        assert!(base.disconnected > 0, "10% walk-away rate must show up");
        for shards in [2u16, 4] {
            let sharded = run_churn(&small_churn(400, shards), &ChurnRun::default());
            assert_eq!(sharded.completed, base.completed, "shards={shards}");
            assert_eq!(sharded.exhausted, base.exhausted, "shards={shards}");
            assert_eq!(sharded.disconnected, base.disconnected, "shards={shards}");
            assert_eq!(sharded.total_steps, base.total_steps, "shards={shards}");
            assert_eq!(sharded.digest, base.digest, "shards={shards}");
        }
    }

    #[test]
    fn churn_threaded_and_isolated_agree() {
        let spec = small_churn(300, 3);
        let threaded = run_churn(&spec, &ChurnRun::default());
        let isolated = run_churn(
            &spec,
            &ChurnRun {
                isolated: true,
                ..ChurnRun::default()
            },
        );
        assert_eq!(threaded.digest, isolated.digest);
        assert_eq!(threaded.completed, isolated.completed);
        assert_eq!(threaded.latency_rounds, isolated.latency_rounds);
        assert_eq!(isolated.shard_busy_secs.len(), 3);
        assert!(isolated.critical_path_secs() > 0.0);
        assert!(isolated.sessions_per_sec() > 0.0);
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let a = run_churn(&small_churn(200, 2), &ChurnRun::default());
        let b = run_churn(&small_churn(200, 2), &ChurnRun::default());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.completed, b.completed);
        let mut other = small_churn(200, 2);
        other.seed = 43;
        let c = run_churn(&other, &ChurnRun::default());
        assert_ne!(a.digest, c.digest, "seed must matter");
    }

    #[test]
    fn churn_report_flattens_to_a_sessions_record() {
        let report = run_churn(
            &small_churn(120, 2),
            &ChurnRun {
                isolated: true,
                ..ChurnRun::default()
            },
        );
        let record = report.record("bench_sessions");
        assert_eq!(record.shards, 2);
        assert_eq!(record.completed, report.completed);
        assert!(record.sessions_per_sec > 0.0);
        assert!(record.p99_latency_rounds >= 1.0);
    }

    #[test]
    fn sweep_spec_expands_to_session_specs_in_grid_order() {
        let sweep = SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
            .seeds([0, 1]);
        let family = FamilySpec::Tight {
            d: 2,
            policy: ResendPolicy::Once,
        };
        let specs = sweep.session_specs(&family);
        let claimed = family.build().claimed_family();
        assert_eq!(specs.len(), claimed.len() * 2);
        assert_eq!(specs[0].input, claimed.seqs()[0]);
        assert_eq!(specs[0].seed, 0);
        assert_eq!(specs[1].seed, 1);
        assert_eq!(specs[2].input, claimed.seqs()[1]);
        assert!(specs.iter().all(|s| s.channel == ChannelSpec::Dup));
    }

    #[test]
    fn watchdog_flags_a_starved_session_with_replay_provenance() {
        // A session the adversary starves outright: it can never
        // complete, so its age crosses the (deliberately tight)
        // threshold and the watchdog must flag it — once — while
        // letting it keep running.
        let mut starved = tight_spec(&[1, 2, 0], 7);
        starved.scheduler = SchedulerSpec::Random { p_deliver: 0.0 };
        starved.max_steps = 5_000;
        let mut engine = SessionEngine::new(3, 4, 8);
        engine.arm_watchdog(WatchdogSpec {
            multiplier: 1.0,
            min_rounds: 2,
        });
        let serial = engine.submit(starved.clone());
        for _ in 0..20 {
            engine.step_round();
        }
        let stalls = engine.drain_stalls();
        assert_eq!(stalls.len(), 1, "flagged exactly once");
        let stall = &stalls[0];
        assert_eq!(stall.shard, 3);
        assert_eq!(stall.serial, serial);
        assert_eq!(stall.spec, starved, "full provenance round-trips");
        assert!(stall.age_rounds >= stall.threshold_rounds);
        assert_eq!(stall.expected_steps, healthy_step_bound(&starved.family, 3));
        assert!(stall.steps > 0, "it was running when flagged");
        // Drains are exactly-once; the session was not killed.
        assert!(engine.drain_stalls().is_empty());
        assert!(matches!(engine.poll(serial), SessionStatus::Running { .. }));
        // The provenance replays through the single-world path and
        // reproduces the stall: the session never completes.
        let mut world = stall.spec.build_world();
        world.run_until(1_000, World::is_complete);
        assert!(!world.is_complete(), "replayed session is indeed stuck");
    }

    #[test]
    fn watchdog_stays_silent_on_a_clean_churn_grid() {
        // Zero false positives: 32 seeded churn workloads under the
        // default watchdog, none of which starve anyone. Every stall —
        // and every exhaustion, which would signal the workload itself
        // leaves too little budget — must be absent.
        for seed in 0..32u64 {
            let mut spec = small_churn(100, 2);
            spec.seed = seed;
            spec.server.watchdog = Some(WatchdogSpec::default());
            let report = run_churn(&spec, &ChurnRun::default());
            assert_eq!(report.exhausted, 0, "seed={seed}: clean workload");
            assert!(
                report.stalls.is_empty(),
                "seed={seed}: false positive {:?}",
                report.stalls[0]
            );
        }
    }

    #[test]
    fn metered_churn_is_outcome_identical_and_fleet_counts_reconcile() {
        let spec = small_churn(300, 2);
        let unmetered = run_churn(&spec, &ChurnRun::default());
        let fleet = FleetRegistry::new(2);
        let metered = run_churn(
            &spec,
            &ChurnRun {
                fleet: Some(&fleet),
                ..ChurnRun::default()
            },
        );
        assert_eq!(metered.digest, unmetered.digest);
        assert_eq!(metered.completed, unmetered.completed);
        assert_eq!(metered.latency_rounds, unmetered.latency_rounds);
        let stats = fleet.snapshot().stats();
        assert_eq!(stats.submitted, metered.submitted);
        assert_eq!(stats.completed, metered.completed);
        assert_eq!(stats.disconnected, metered.disconnected);
        assert_eq!(stats.exhausted, metered.exhausted);
        assert_eq!(stats.steps, metered.total_steps);
        assert_eq!(stats.round, metered.rounds);
        assert_eq!(stats.admitted, stats.recycle_hits + stats.recycle_misses);
        // Same samples, same bucket layout: the fleet's merged latency
        // distribution is the report's, exactly.
        assert_eq!(stats.latency, metered.latency_rounds);
        assert!(stats.p99_latency_rounds() >= 1.0);
    }

    // A metered single-shard churn over dup, lossy-fifo and del (the
    // last two also under a deleting adversary), with an explicit
    // disconnect of a queued and of a running session every few rounds.
    // `check` sees the engine and its metrics at every round boundary,
    // right after `step_round`.
    fn metered_churn_with_disconnects(
        mut check: impl FnMut(&SessionEngine, &crate::fleet::FleetStats),
    ) {
        let mut spec = small_churn(3_000, 1);
        let drop_heavy = SchedulerSpec::DropHeavy {
            p_drop: 0.2,
            p_deliver: 0.7,
        };
        spec.mix.extend([
            SessionTemplate {
                family: FamilySpec::Tight {
                    d: 4,
                    policy: ResendPolicy::EveryTick,
                },
                channel: ChannelSpec::Del,
                scheduler: drop_heavy.clone(),
            },
            SessionTemplate {
                family: FamilySpec::Abp {
                    domain: 2,
                    max_len: 3,
                },
                channel: ChannelSpec::LossyFifo,
                scheduler: drop_heavy,
            },
        ]);
        let claimed = spec.claimed_inputs();
        let metrics = Arc::new(ShardMetrics::new(0));
        let mut engine = SessionEngine::new(0, 32, 8);
        engine.attach_metrics(Arc::clone(&metrics));
        let (mut k, mut queued_cuts, mut running_cuts) = (0, 0, 0);
        while k < spec.sessions || !engine.is_idle() {
            for _ in 0..spec.arrivals_per_round {
                if k < spec.sessions {
                    engine.submit(spec.session_at(k, &claimed));
                    k += 1;
                }
            }
            if engine.round() % 5 == 2 {
                let newest = engine.next_serial - 1;
                if engine.poll(newest) == SessionStatus::Queued {
                    assert!(engine.disconnect(newest));
                    queued_cuts += 1;
                }
                if let Some(&slot) = engine.active.first() {
                    assert!(engine.disconnect(engine.serials[slot as usize]));
                    running_cuts += 1;
                }
            }
            engine.step_round();
            engine.drain_completed();
            check(&engine, &metrics.snapshot());
        }
        assert!(queued_cuts > 10 && running_cuts > 10);
    }

    #[test]
    fn fleet_counters_are_conserved_at_every_round_boundary() {
        let mut rounds = 0;
        metered_churn_with_disconnects(|engine, s| {
            let round = engine.round();
            assert_eq!(
                s.submitted,
                s.completed + s.disconnected + s.exhausted + s.active + s.queued,
                "round {round}: every submitted session is retired, active or queued"
            );
            assert_eq!(
                s.admitted,
                s.recycle_hits + s.recycle_misses,
                "round {round}: every admission is a recycle hit or miss"
            );
            assert_eq!(s.active, engine.active_len() as u64);
            assert_eq!(s.queued, engine.queued_len() as u64);
            rounds += 1;
        });
        assert!(rounds > 100, "{rounds} rounds checked");
    }

    #[test]
    fn run_stats_are_conserved_on_consuming_channels() {
        let (mut checks, mut dropped) = (0, 0);
        metered_churn_with_disconnects(|engine, _| {
            for &slot in &engine.active {
                let slot = slot as usize;
                let recipe = &engine.recipes[engine.slot_recipe[slot] as usize];
                if !matches!(recipe.channel, ChannelSpec::Del | ChannelSpec::LossyFifo) {
                    continue;
                }
                let st = &engine.stats[slot];
                let channel = engine.channels[slot].as_ref().expect("active slot");
                let in_flight = channel.pending_to_r() + channel.pending_to_s();
                assert_eq!(
                    (st.sends_s + st.sends_r) as u64,
                    (st.deliveries_r + st.deliveries_s + st.drops) as u64 + in_flight,
                    "round {} slot {slot} on {:?}: sent = delivered + dropped + in flight",
                    engine.round(),
                    recipe.channel
                );
                checks += 1;
                dropped += usize::from(st.drops > 0);
            }
        });
        assert!(checks > 1_000, "{checks} slot checks");
        assert!(dropped > 100, "{dropped} checks saw a drop");
    }

    #[test]
    fn server_with_fleet_snapshots_without_stopping() {
        let server = SessionServer::with_fleet(&ServerSpec {
            shards: 2,
            capacity_per_shard: 8,
            quantum: 8,
            watchdog: Some(WatchdogSpec::default()),
        });
        assert!(server.fleet().is_some());
        let mut watch = server.watch().expect("fleet is attached");
        let ids: Vec<SessionId> = (0..6)
            .map(|s| server.submit(tight_spec(&[1, 0], s)))
            .collect();
        assert!(server.run_until_idle(10_000));
        let snap = server.snapshot().expect("fleet is attached");
        let stats = snap.stats();
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.active, 0);
        // Six completions: a real percentile, not the empty sentinel.
        assert!(stats.p99_latency_rounds() >= 0.0);
        let delta = watch.tick();
        assert_eq!(delta.sessions_per_sec(None) * delta.secs, 6.0);
        assert!(server.drain_stalls().is_empty(), "healthy fleet");
        for id in ids {
            assert!(matches!(server.poll(id), SessionStatus::Done { .. }));
        }
    }

    #[test]
    fn session_and_churn_specs_round_trip_json() {
        let spec = tight_spec(&[1, 2, 0], 9);
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(serde_json::from_str::<SessionSpec>(&json).unwrap(), spec);

        let churn = small_churn(100, 4);
        let json = serde_json::to_string(&churn).unwrap();
        assert_eq!(serde_json::from_str::<ChurnSpec>(&json).unwrap(), churn);

        // `server` and `ttl_rounds` are defaulted, so a minimal spec parses.
        let minimal = r#"{"sessions":10,"arrivals_per_round":2,"max_steps":100,"seed":1,
            "mix":[{"family":{"Tight":{"d":2,"policy":"Once"}},
                    "channel":"Dup","scheduler":"Eager"}]}"#;
        let parsed: ChurnSpec = serde_json::from_str(minimal).unwrap();
        assert_eq!(parsed.server, ServerSpec::default());
        assert_eq!(parsed.disconnect_rate, 0.0);
    }
}
