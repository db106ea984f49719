//! The massively-multi-session engine: a session store fronted by a
//! sharded submit/poll API.
//!
//! One [`World`] runs one transmission: two processors, a channel and an
//! adversary, advanced one global step at a time (§2.2). A
//! [`SessionEngine`] holds a pool of such worlds, one stack per
//! recipe (the (family, channel, scheduler) triple), each built
//! unobserved (trace off, no probe, no provenance): it holds no recorder,
//! every step runs the kernel's quiet sink, and a session's [`RunStats`]
//! are those of [`SessionSpec::build_world`] run to the same stopping
//! point. Around the worlds the engine keeps dense per-slot columns
//! (budgets, rounds, due rounds, fates, inputs, final stats) and grants
//! every active session a quantum of protocol steps per *round*, running
//! each one ahead of that schedule at admission and releasing its outcome
//! in the round the schedule fixes (see [`SessionEngine`]). The
//! `sessions_parity` suite checks the engine's stopping rule and world
//! recycling over the full seed × channel × family grid.
//!
//! A slot borrows a world only while its session still has steps to run.
//! Once the run-ahead reaches the session's fate or its TTL cap, the
//! world's stats move into the slot's stats column and the world goes back
//! onto its recipe's stack, where the next admission of that recipe
//! rewinds it with [`World::reset`] instead of building a new one.
//!
//! [`SessionServer`] shards the store: `submit` routes round-robin,
//! `poll`/`disconnect` route by the shard bits of the [`SessionId`], and
//! each shard steps independently. [`ChurnSpec`] is
//! the seeded open/transmit/disconnect workload generator the
//! `bench_sessions` lanes run; session `k`'s spec is derived purely from
//! `(workload seed, k)`, so the set of sessions — and each session's
//! stats — is independent of the shard count, which
//! [`ChurnReport::digest`] checks.

use crate::engine::SweepSpec;
use crate::fleet::{
    healthy_step_bound, FleetRegistry, FleetSnapshot, FleetStats, ShardMetrics, StallRecord,
    WatchdogSpec,
};
use crate::metrics::RunStats;
use crate::prof::{Phase, PhaseProfiler};
use crate::telemetry::SessionsRecord;
use crate::world::World;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_core::data::DataSeq;
use stp_core::event::{Step, TraceMode};
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
    /// Builds the [`World`] (trace off) that runs exactly this session:
    /// the world a session slot is built as, so a stall record's replay
    /// and the slot that ran the session start from the same machine.
    pub fn build_world(&self) -> World {
        let SessionSpec {
            family,
            input,
            channel,
            scheduler,
            seed,
            ..
        } = self;
        unobserved_world(family, channel, scheduler, input.clone(), *seed)
    }
}

// The unobserved world running `input` under the recipe (family, channel,
// scheduler) with adversary seed `seed`: how the session store builds a
// slot, and how `SessionSpec::build_world` builds a replay.
fn unobserved_world(
    family: &FamilySpec,
    channel: &ChannelSpec,
    scheduler: &SchedulerSpec,
    input: DataSeq,
    seed: u64,
) -> World {
    let family = family.build();
    let sender = family.sender_for(&input);
    World::builder(input)
        .sender(sender)
        .receiver(family.receiver())
        .channel(channel.build())
        .scheduler(scheduler.build(seed))
        .mode(TraceMode::Off)
        .build()
        .expect("all components supplied")
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

// An interned (family, channel, scheduler) triple plus its idle worlds,
// most recently returned on top — the unit of reset-in-place recycling.
// The worlds stay boxed: a release or a lease moves a pointer between a
// slot and this stack, not a whole `World`.
#[allow(clippy::vec_box)]
struct Recipe {
    family: FamilySpec,
    channel: ChannelSpec,
    scheduler: SchedulerSpec,
    idle: Vec<Box<World>>,
}

impl Recipe {
    // A world of this recipe set up to run `input` under adversary seed
    // `seed`: the top idle world rewound, or a new build when none is
    // idle. Interned equality proves an idle world was built from this
    // exact recipe, and the reset contract makes the rewound world run
    // bit-identically to a fresh build.
    fn lease(&mut self, input: &DataSeq, seed: u64) -> Box<World> {
        match self.idle.pop() {
            Some(mut world) => {
                world.reset(input, seed);
                world
            }
            None => Box::new(unobserved_world(
                &self.family,
                &self.channel,
                &self.scheduler,
                input.clone(),
                seed,
            )),
        }
    }
}

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

/// One shard of the session store: fixed-capacity slots, a recipe table
/// with a pool of idle worlds per recipe, an admission queue, and a
/// completion buffer.
///
/// A slot holds an unobserved [`World`] (trace off, no probe, no
/// provenance, hence no recorder) only while its session still has steps
/// to run; the engine steps it only through [`World::run_until`] and
/// [`World::run_until_profiled`]. Admission takes any free slot and
/// rewinds the idle world its recipe returned last with
/// [`World::reset`], or builds one when the recipe has none idle. When
/// the run-ahead (below) reaches the session's fate or its TTL cap, the
/// world's stats move into the slot's stats column and the world goes
/// back onto its recipe's stack. Everything the per-round walk reads
/// lives in dense columns indexed by slot: the due round, fate, expiry,
/// stall threshold, serial, budget, rounds and seed.
///
/// The engine keeps a round-robin schedule — each active session is
/// granted `quantum` protocol steps per round — but does not execute it
/// one quantum at a time. A session's outcome is a pure function of its
/// [`SessionSpec`], so admission runs the session *ahead* right after
/// readying its slot, while the slot's world is cache-hot: up to its fate,
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
///
/// The engine counts its shard's session events in one [`FleetStats`]
/// row ([`SessionEngine::fleet_stats`]): retirements and stalls update
/// it in place, every round adds its steps, and the figures the engine's
/// own fields already hold (round, submissions, the admission split, the
/// gauges) are filled in where the row is read. With a registry attached
/// ([`SessionEngine::attach_metrics`]) the engine publishes the row there
/// at the end of every round.
pub struct SessionEngine {
    shard: u16,
    capacity: usize,
    quantum: u32,
    round: u64,
    recipes: Vec<Recipe>,
    // Slot columns, all `capacity` long. A slot's world is `Some` only
    // while its session still has steps to run; then its stats move to
    // `stats` and the world to its recipe's idle stack.
    worlds: Vec<Option<Box<World>>>,
    stats: Vec<RunStats>,
    inputs: Vec<DataSeq>,
    slot_recipe: Vec<u32>,
    serials: Vec<u64>,
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
    // Rosters: dense active list (swap-remove retire), free slots,
    // admissions waiting for capacity.
    active: Vec<u32>,
    free: Vec<u32>,
    queue: VecDeque<QueuedSession>,
    completed: Vec<SessionOutcome>,
    next_serial: u64,
    // Admissions that rewound a pooled world, and that built one.
    recycled: u64,
    built: u64,
    // The shard's fleet row. `round`, `submitted`, the admission split
    // and the gauges are filled from the fields above (see `fill_row`);
    // the rest is counted here.
    row: FleetStats,
    // Fleet observability: the registry slot the row is published to
    // and the watchdog both default off and cost nothing until
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
        SessionEngine {
            shard,
            capacity,
            quantum,
            round: 0,
            recipes: Vec::new(),
            worlds: (0..capacity).map(|_| None).collect(),
            // Built one by one: `vec!` clones an entry per slot, and an
            // empty `DataSeq`'s clone is an out-of-line call that made
            // this column ten times dearer to build.
            stats: (0..capacity).map(|_| RunStats::empty(0)).collect(),
            inputs: (0..capacity).map(|_| DataSeq::default()).collect(),
            slot_recipe: vec![0; capacity],
            serials: vec![0; capacity],
            deadline: vec![0; capacity],
            expires: vec![u64::MAX; capacity],
            submitted: vec![0; capacity],
            admitted_round: vec![0; capacity],
            seeds: vec![0; capacity],
            stall_at: vec![u64::MAX; capacity],
            due: vec![u64::MAX; capacity],
            fate: vec![None; capacity],
            active: Vec::with_capacity(capacity),
            free: (0..capacity as u32).rev().collect(),
            queue: VecDeque::new(),
            completed: Vec::new(),
            next_serial: 0,
            recycled: 0,
            built: 0,
            row: FleetStats::new(shard),
            metrics: None,
            watchdog: None,
            stalls: Vec::new(),
            prof: None,
            prof_tick: 0,
        }
    }

    /// Attaches a registry slot: from here on the engine publishes its
    /// [`FleetStats`] row into it at the end of every round, with one
    /// lock and no allocation.
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

    /// Admissions that rewound a pooled world (as opposed to building
    /// one) — the recycling the churn bench exercises.
    pub fn slots_recycled(&self) -> u64 {
        self.recycled
    }

    /// The shard's [`FleetStats`] row: every session event counted so
    /// far, with the round, submission, admission and gauge figures
    /// brought up to date, so both fleet conservation laws hold.
    pub fn fleet_stats(&mut self) -> &FleetStats {
        self.fill_row();
        &self.row
    }

    // Fills the row's figures that the engine's own fields already hold.
    // The oldest session's age costs O(active), so this runs only where
    // the row is read or published, not on every round.
    fn fill_row(&mut self) {
        let oldest = self
            .active
            .iter()
            .map(|&s| self.admitted_round[s as usize])
            .min();
        let row = &mut self.row;
        row.oldest_active_age = oldest.map_or(0, |o| self.round.saturating_sub(o));
        row.round = self.round;
        row.submitted = self.next_serial;
        row.recycle_hits = self.recycled;
        row.recycle_misses = self.built;
        row.admitted = row.recycle_hits + row.recycle_misses;
        row.active = self.active.len() as u64;
        row.queued = self.queue.len() as u64;
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

    /// Where the session with this serial stands, found by scanning the
    /// active slots, then the queue, then the undrained completion
    /// buffer: O(queued + active + undrained).
    pub fn poll(&self, serial: u64) -> SessionStatus {
        if let Some(pos) = self.active_pos(serial) {
            let slot = self.active[pos] as usize;
            return SessionStatus::Running {
                steps: self.scheduled_steps(slot, self.round),
            };
        }
        if self.queue.iter().any(|q| q.serial == serial) {
            return SessionStatus::Queued;
        }
        match self.completed.iter().find(|o| o.id.serial() == serial) {
            Some(outcome) => SessionStatus::Done {
                outcome: Box::new(outcome.clone()),
            },
            None => SessionStatus::Unknown,
        }
    }

    /// Disconnects the session: a queued one retires without running, an
    /// active one retires at the state the round-robin schedule has
    /// reached (the run-ahead is rewound), both as
    /// [`SessionFate::Disconnected`]. Returns `false` for ids that are
    /// done, drained, or unknown. Like [`SessionEngine::poll`], it finds
    /// the session by scanning the rosters.
    pub fn disconnect(&mut self, serial: u64) -> bool {
        if let Some(pos) = self.active_pos(serial) {
            self.rewind(self.active[pos] as usize);
            self.retire(pos, SessionFate::Disconnected);
            return true;
        }
        let Some(at) = self.queue.iter().position(|q| q.serial == serial) else {
            return false;
        };
        let q = self.queue.remove(at).expect("position came from the queue");
        self.completed.push(SessionOutcome {
            id: SessionId::new(self.shard, serial),
            fate: SessionFate::Disconnected,
            stats: RunStats::empty(q.input.len()),
            submitted_round: q.submitted,
            retired_round: self.round,
        });
        self.row.disconnected += 1;
        true
    }

    // The active-roster position of the session with this serial. Only
    // active slots are matched: a free slot keeps its last serial.
    fn active_pos(&self, serial: u64) -> Option<usize> {
        self.active
            .iter()
            .position(|&slot| self.serials[slot as usize] == serial)
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
        std::mem::replace(&mut self.completed, buffer)
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
            round_steps +=
                self.scheduled_steps(slot, round + 1) - self.scheduled_steps(slot, round);
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
        self.row.steps += round_steps;
        self.row.round_cost.record(round_steps as f64);
        if let Some(m) = self.metrics.clone() {
            self.fill_row();
            m.publish(&self.row);
        }
    }

    fn admit_from_queue(&mut self, prof: Option<&PhaseProfiler>) {
        // Batch admission: the free-slot budget is computed once and the
        // loop pops exactly that many entries. Each admitted session runs
        // ahead at once, so a session fated in its run-ahead hands its
        // world to the next admission of its recipe.
        let admits = (self.capacity - self.active.len()).min(self.queue.len());
        for _ in 0..admits {
            let slot = match prof {
                // Admissions are sampled 1-in-period, like retirements
                // and run-ahead chunks, so phase shares stay comparable.
                // (Timing every admission round against 1-in-period step
                // samples overcounted admission by the sampling period.)
                // A sampled window times one admission and leaves the
                // interleaving alone: admitting a whole batch before any
                // run-ahead would build a world for every session in it.
                Some(p) => {
                    self.prof_tick += 1;
                    if p.sample(self.prof_tick) {
                        p.time(Phase::Admission, || self.admit())
                    } else {
                        self.admit()
                    }
                }
                None => self.admit(),
            };
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
            idle: Vec::new(),
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
        let slot = self
            .free
            .pop()
            .expect("active < capacity implies a free slot exists") as usize;
        let recipe = &mut self.recipes[rid as usize];
        if recipe.idle.is_empty() {
            self.built += 1;
        } else {
            self.recycled += 1;
        }
        self.worlds[slot] = Some(recipe.lease(&input, seed));
        self.stall_at[slot] = match &self.watchdog {
            Some(w) => self.round.saturating_add(w.threshold_rounds(
                healthy_step_bound(&recipe.family, input.len()),
                self.quantum,
            )),
            None => u64::MAX,
        };
        self.inputs[slot] = input;
        self.seeds[slot] = seed;
        self.slot_recipe[slot] = rid;
        self.admitted_round[slot] = self.round;
        self.serials[slot] = serial;
        self.deadline[slot] = max_steps;
        self.expires[slot] = ttl_rounds.map_or(u64::MAX, |ttl| self.round.saturating_add(ttl));
        self.submitted[slot] = submitted;
        self.fate[slot] = None;
        self.active.push(slot as u32);
        slot
    }

    // Moves the stats of the world in `slot`, if it still holds one, into
    // the slot's stats column, and the world back onto its recipe's idle
    // stack.
    fn release(&mut self, slot: usize) {
        if let Some(mut world) = self.worlds[slot].take() {
            self.stats[slot] = world.take_stats();
            self.recipes[self.slot_recipe[slot] as usize]
                .idle
                .push(world);
        }
    }

    // The steps the session in `slot` has run: its world's count while it
    // holds one, else the final count in the stats column.
    fn progress(&self, slot: usize) -> Step {
        match &self.worlds[slot] {
            Some(world) => world.step_count(),
            None => self.stats[slot].steps,
        }
    }

    fn retire(&mut self, pos: usize, fate: SessionFate) {
        let slot = self.active.swap_remove(pos) as usize;
        let serial = self.serials[slot];
        self.stall_at[slot] = u64::MAX;
        match fate {
            SessionFate::Completed => {
                self.row.completed += 1;
                let latency = self.round.saturating_sub(self.submitted[slot]);
                self.row.latency.record(latency as f64);
            }
            SessionFate::Exhausted => self.row.exhausted += 1,
            SessionFate::Disconnected => self.row.disconnected += 1,
        }
        debug_assert!(self.worlds[slot].is_none(), "retiring slot holds a world");
        let outcome = SessionOutcome {
            id: SessionId::new(self.shard, serial),
            fate,
            stats: std::mem::replace(&mut self.stats[slot], RunStats::empty(0)),
            submitted_round: self.submitted[slot],
            retired_round: self.round,
        };
        self.free.push(slot as u32);
        self.completed.push(outcome);
    }

    // The full spec of the session in `slot`, rebuilt from the recipe
    // table and the slot's columns: complete replay provenance.
    fn spec(&self, slot: usize) -> SessionSpec {
        let r = &self.recipes[self.slot_recipe[slot] as usize];
        SessionSpec {
            family: r.family.clone(),
            input: self.inputs[slot].clone(),
            channel: r.channel.clone(),
            scheduler: r.scheduler.clone(),
            seed: self.seeds[slot],
            max_steps: self.deadline[slot],
            ttl_rounds: (self.expires[slot] != u64::MAX)
                .then(|| self.expires[slot] - self.admitted_round[slot]),
        }
    }

    // Flags the session in `slot` as stalled, exactly once per
    // admission: buffers a StallRecord carrying the session's full spec
    // for `drain_stalls`, and disarms the slot's threshold. The session
    // keeps running — the watchdog observes, it does not kill.
    fn flag_stall(&mut self, slot: usize) {
        self.stall_at[slot] = u64::MAX;
        let spec = self.spec(slot);
        let expected = healthy_step_bound(&spec.family, spec.input.len());
        let threshold = self
            .watchdog
            .as_ref()
            .map_or(0, |w| w.threshold_rounds(expected, self.quantum));
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
        self.row.stalls += 1;
    }

    // The steps the round-robin schedule has run for the session in
    // `slot` before `round`: its run-ahead progress, capped at a quantum
    // per round since admission. (The progress is final once the session
    // has a fate or reached its TTL cap, so the cap is exact.)
    fn scheduled_steps(&self, slot: usize, round: u64) -> Step {
        let rounds = round - self.admitted_round[slot];
        self.progress(slot)
            .min(rounds.saturating_mul(u64::from(self.quantum)))
    }

    // Steps the session in `slot` until its fate, its TTL cap or
    // `HORIZON_QUANTA` more quanta, every `prof.period()`-th chunk as a
    // profiled window charged to the step phases, then records when the
    // walk acts on it next (`due`). The world's stopping rule is the
    // session's: completion is checked before each step and after the
    // last, and the budget caps the count. A session that expires in its
    // admission round (TTL 0) stops at 0 steps, and the walk's expiry
    // check, which comes before any fate, retires it. A session with a
    // fate or at its TTL cap has no steps left to run, so its world is
    // released.
    fn run_ahead(&mut self, slot: usize, prof: Option<&PhaseProfiler>) {
        let sampled = match prof {
            Some(p) => {
                self.prof_tick += 1;
                p.sample(self.prof_tick).then_some(p)
            }
            None => None,
        };
        let q = u64::from(self.quantum);
        let admitted = self.admitted_round[slot];
        let cap = match self.expires[slot] {
            u64::MAX => Step::MAX,
            expires => (expires - admitted).saturating_mul(q),
        };
        let deadline = self.deadline[slot];
        let world = self.worlds[slot].as_mut().expect("active slot has a world");
        let limit = world
            .step_count()
            .saturating_add(HORIZON_QUANTA * q)
            .min(cap)
            .min(deadline);
        let complete = match sampled {
            Some(p) => world.run_until_profiled(limit, World::is_complete, p),
            None => world.run_until(limit, World::is_complete),
        };
        let steps = world.step_count();
        let fate = if complete {
            Some(SessionFate::Completed)
        } else if steps >= deadline {
            Some(SessionFate::Exhausted)
        } else {
            None
        };
        self.fate[slot] = fate;
        self.due[slot] = match fate {
            Some(_) => admitted + steps.saturating_sub(1) / q,
            // Walks away at `expires`, which the walk checks first.
            None if steps >= cap => u64::MAX,
            None => admitted + steps / q,
        };
        if fate.is_some() || steps >= cap {
            self.release(slot);
        }
    }

    // Puts the session in `slot` back at the step count the schedule has
    // reached, with its world released: when the run-ahead went further,
    // replays that many steps, all of which precede the session's fate,
    // on a world leased from the pool (the slot's own, if it had one).
    fn rewind(&mut self, slot: usize) {
        let steps = self.scheduled_steps(slot, self.round);
        self.release(slot);
        if steps < self.stats[slot].steps {
            let recipe = &mut self.recipes[self.slot_recipe[slot] as usize];
            let mut world = recipe.lease(&self.inputs[slot], self.seeds[slot]);
            let complete = world.run_until(steps, World::is_complete);
            debug_assert!(!complete, "the schedule stops short of the fate");
            self.worlds[slot] = Some(world);
            self.release(slot);
        }
    }
}

/// Shape of a [`SessionServer`]: how many shards, how many slots each,
/// and the per-round step quantum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Independent shards (each its own [`SessionEngine`]).
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
/// [`SessionServer::step_rounds`] / [`SessionServer::run_until_idle`].
///
/// The server is single-threaded: a shard's worlds hold the component
/// trait objects, which are not `Send`, so each shard is a
/// [`SessionEngine`] in a `RefCell` and the router a `Cell`. To run
/// shards on separate threads, build one engine per thread, as
/// [`run_churn`] does.
#[derive(Debug)]
pub struct SessionServer {
    engines: Vec<RefCell<SessionEngine>>,
    router: Cell<usize>,
}

impl SessionServer {
    /// Builds the server: `spec.shards` empty engines. A `spec.watchdog`
    /// arms every shard's stall watchdog.
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
                RefCell::new(engine)
            })
            .collect();
        SessionServer {
            engines,
            router: Cell::new(0),
        }
    }

    /// A [`FleetSnapshot`] of every shard's [`FleetStats`] row
    /// ([`SessionEngine::fleet_stats`]).
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            shards: self
                .engines
                .iter()
                .map(|e| e.borrow_mut().fleet_stats().clone())
                .collect(),
        }
    }

    /// Drains every shard's watchdog flags, exactly once, shard-major.
    pub fn drain_stalls(&self) -> Vec<StallRecord> {
        let mut out = Vec::new();
        for engine in &self.engines {
            out.append(&mut engine.borrow_mut().drain_stalls());
        }
        out
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// Accepts a session on the next shard in round-robin order.
    pub fn submit(&self, spec: SessionSpec) -> SessionId {
        let next = self.router.get();
        self.router.set(next.wrapping_add(1));
        let shard = next % self.engines.len();
        self.submit_to(shard as u16, spec)
    }

    /// Accepts a session on a specific shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn submit_to(&self, shard: u16, spec: SessionSpec) -> SessionId {
        let serial = self.engines[shard as usize].borrow_mut().submit(spec);
        SessionId::new(shard, serial)
    }

    /// Where the session stands; see [`SessionEngine::poll`], which
    /// scans the owning shard's rosters, O(queued + active + undrained).
    /// Ids from another server (shard out of range) report
    /// [`SessionStatus::Unknown`].
    pub fn poll(&self, id: SessionId) -> SessionStatus {
        match self.engines.get(id.shard() as usize) {
            Some(engine) => engine.borrow().poll(id.serial()),
            None => SessionStatus::Unknown,
        }
    }

    /// Disconnects the session; see [`SessionEngine::disconnect`], which
    /// scans the owning shard's rosters, O(queued + active + undrained).
    pub fn disconnect(&self, id: SessionId) -> bool {
        match self.engines.get(id.shard() as usize) {
            Some(engine) => engine.borrow_mut().disconnect(id.serial()),
            None => false,
        }
    }

    /// Steps every shard `rounds` rounds, in lockstep.
    pub fn step_rounds(&self, rounds: u64) {
        for _ in 0..rounds {
            for engine in &self.engines {
                engine.borrow_mut().step_round();
            }
        }
    }

    /// Rounds (lockstep across shards) until every shard is idle,
    /// stopping after `max_rounds`; reports whether idle was reached.
    pub fn run_until_idle(&self, max_rounds: u64) -> bool {
        for _ in 0..max_rounds {
            if self.engines.iter().all(|e| e.borrow().is_idle()) {
                return true;
            }
            for engine in &self.engines {
                engine.borrow_mut().step_round();
            }
        }
        self.engines.iter().all(|e| e.borrow().is_idle())
    }

    /// Sessions currently in slots, across all shards.
    pub fn active_sessions(&self) -> usize {
        self.engines.iter().map(|e| e.borrow().active_len()).sum()
    }

    /// Sessions waiting for slots, across all shards.
    pub fn queued_sessions(&self) -> usize {
        self.engines.iter().map(|e| e.borrow().queued_len()).sum()
    }

    /// Drains every shard's outcomes; each outcome is handed out exactly
    /// once, shard-major. A lone shard's buffer is handed out as it is.
    pub fn drain_completed(&self) -> Vec<SessionOutcome> {
        if let [engine] = self.engines.as_slice() {
            return engine.borrow_mut().drain_completed();
        }
        let mut out = Vec::new();
        for engine in &self.engines {
            out.append(&mut engine.borrow_mut().drain_completed());
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
    /// Every shard engine's [`FleetStats`] row at the end of the run,
    /// merged: the session counts, steps, rounds and the submit-to-retire
    /// latency of completed sessions.
    pub fleet: FleetStats,
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
    /// Shards the workload ran on: the shard rows merged into
    /// [`ChurnReport::fleet`], each with one busy-seconds entry.
    pub fn shards(&self) -> usize {
        self.fleet.shards
    }

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
            self.fleet.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// p99 submit-to-retire latency of completed sessions, in rounds
    /// (`0.0` when none completed).
    pub fn p99_latency_rounds(&self) -> f64 {
        self.fleet.latency.quantile(0.99)
    }

    /// Flattens for the `{"sessions": …}` telemetry line.
    pub fn record(&self, experiment: &str) -> SessionsRecord {
        SessionsRecord {
            experiment: experiment.to_string(),
            shards: self.shards(),
            submitted: self.fleet.submitted,
            completed: self.fleet.completed,
            exhausted: self.fleet.exhausted,
            disconnected: self.fleet.disconnected,
            total_steps: self.fleet.steps,
            rounds: self.fleet.round,
            wall_secs: self.wall_secs,
            busy_secs: self.critical_path_secs(),
            sessions_per_sec: self.sessions_per_sec(),
            p99_latency_rounds: self.p99_latency_rounds(),
        }
    }

    /// Folds another run's report into this one, as shards running side
    /// by side: fleet rows merge ([`FleetStats::merge`]), digests add,
    /// wall seconds take the maximum, per-shard busy seconds and stalls
    /// concatenate.
    pub fn merge(&mut self, mut other: ChurnReport) {
        self.fleet.merge(&other.fleet);
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
    let mut digest = 0u64;
    let started = Instant::now();
    // Shard `s` owns sessions `k ≡ s (mod shards)`; session `k` arrives
    // on round `k / arrivals` regardless of shard count.
    let mut k = u64::from(shard);
    while k < spec.sessions || !engine.is_idle() {
        while k < spec.sessions && k / arrivals <= engine.round() {
            engine.submit(spec.session_at(k, claimed));
            k += shards;
        }
        engine.step_round();
        for outcome in &engine.drain_completed() {
            digest = digest.wrapping_add(outcome_digest(outcome));
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();
    ChurnReport {
        fleet: engine.fleet_stats().clone(),
        digest,
        wall_secs,
        shard_busy_secs: vec![wall_secs],
        stalls: engine.drain_stalls(),
    }
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
    /// A registry each shard publishes its [`FleetStats`] row into at
    /// the end of every round (the metered lane). Another thread holding
    /// a clone can sample [`FleetRegistry::snapshot`] /
    /// [`FleetRegistry::watch`] while the workload runs; the aggregate's
    /// `completed + exhausted + disconnected` against `submitted` is the
    /// run's live progress. Its shard count must equal
    /// `spec.server.shards`.
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

/// Runs the churn workload as `run` says. Nothing is printed while it
/// runs: live progress is read from `run.fleet`'s rows.
///
/// # Panics
///
/// Panics if the spec has no session mix, its disconnect rate is outside
/// `0..=1`, or `run.fleet`'s shard count differs from
/// `spec.server.shards`.
pub fn run_churn(spec: &ChurnSpec, run: &ChurnRun<'_>) -> ChurnReport {
    let ChurnRun {
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
    let wall = Instant::now();
    let outs: Vec<ChurnReport> = if isolated || shards == 1 {
        (0..shards)
            .map(|s| run_shard(spec, s, &claimed, fleet.map(|f| f.shard(s)), prof))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| {
                    let claimed = &claimed;
                    let metrics = fleet.map(|f| f.shard(s));
                    scope.spawn(move || run_shard(spec, s, claimed, metrics, prof))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    };
    let wall_secs = wall.elapsed().as_secs_f64();
    let mut report = outs
        .into_iter()
        .reduce(|mut report, shard| {
            report.merge(shard);
            report
        })
        .expect("a workload has at least one shard");
    report.wall_secs = wall_secs;
    debug_assert_eq!(report.fleet.submitted, spec.sessions);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetDelta;
    use std::sync::atomic::Ordering;
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
        // second lap reuses pooled worlds (reset in place) and must
        // reproduce the first lap's stats exactly.
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
    fn alternating_recipes_each_reuse_their_pooled_world() {
        // Alternate two recipes through a 1-slot shard: each recipe builds
        // one world on its first admission and rewinds it on every later
        // one, and every run equals a fresh one.
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
        let fleet = engine.fleet_stats();
        assert_eq!(fleet.recycle_misses, 2, "one build per recipe");
        assert!(fleet.recycle_hits >= 4, "{} reuses", fleet.recycle_hits);
        assert_eq!(
            engine.recipes.iter().map(|r| r.idle.len()).sum::<usize>(),
            2
        );
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
    fn server_with_fleet_snapshots_without_stopping() {
        let server = SessionServer::new(&ServerSpec {
            shards: 2,
            capacity_per_shard: 1,
            quantum: 8,
            watchdog: Some(WatchdogSpec::default()),
        });
        let ids: Vec<SessionId> = (0..6)
            .map(|s| server.submit(tight_spec(&[1, 0], s)))
            .collect();
        let start = Instant::now();
        let prev = server.snapshot();
        let stats = prev.stats();
        assert_eq!((stats.submitted, stats.queued), (6, 6));
        assert!(server.run_until_idle(100_000));
        let snapshot = server.snapshot();
        let stats = snapshot.stats();
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.active, 0);
        // Six completions: a real percentile, not the empty sentinel.
        assert!(stats.p99_latency_rounds() >= 0.0);
        let delta = FleetDelta {
            secs: start.elapsed().as_secs_f64(),
            prev,
            snapshot,
        };
        assert_eq!(delta.sessions_per_sec(None), 6.0 / delta.secs);
        assert!(server.drain_stalls().is_empty(), "healthy fleet");
        for id in ids {
            assert!(matches!(server.poll(id), SessionStatus::Done { .. }));
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
    fn poll_answers_agree_with_the_rosters_at_every_round_boundary() {
        let mut starved = tight_spec(&[1, 0], 0);
        starved.scheduler = SchedulerSpec::Random { p_deliver: 0.0 };
        let walk_away = SessionSpec {
            ttl_rounds: Some(2),
            ..starved.clone()
        };
        let specs = [
            tight_spec(&[1, 2, 0], 1),
            starved.clone(), // disconnected while running
            walk_away,
            tight_spec(&[2, 1], 2),
            starved, // disconnected while queued
            tight_spec(&[1, 0], 3),
            tight_spec(&[0, 2, 1], 4),
        ];
        let mut engine = SessionEngine::new(0, 2, 2);
        let serials: Vec<u64> = specs.into_iter().map(|s| engine.submit(s)).collect();
        let never_issued = serials.len() as u64;
        let (running_cut, queued_cut, ttl) = (serials[1], serials[4], serials[2]);
        let mut polled: std::collections::HashMap<u64, SessionOutcome> = Default::default();
        let mut drained: Vec<SessionOutcome> = Vec::new();
        loop {
            let round = engine.round();
            let (mut queued, mut running, mut done) = (0, 0, 0);
            for &serial in &serials {
                match engine.poll(serial) {
                    SessionStatus::Unknown => assert!(
                        drained.iter().any(|o| o.id.serial() == serial),
                        "round {round}: serial {serial} polls unknown before its drain"
                    ),
                    SessionStatus::Queued => queued += 1,
                    SessionStatus::Running { .. } => running += 1,
                    SessionStatus::Done { outcome } => {
                        done += 1;
                        polled.insert(serial, *outcome);
                    }
                }
            }
            assert_eq!(
                (queued, running, done),
                (
                    engine.queued_len(),
                    engine.active_len(),
                    engine.completed_len()
                ),
                "round {round}: queued / running / done answers"
            );
            let gone = drained.iter().map(|o| o.id.serial());
            for serial in gone.chain([never_issued]) {
                assert_eq!(engine.poll(serial), SessionStatus::Unknown, "{serial}");
                assert!(!engine.disconnect(serial), "round {round}: {serial}");
            }
            if engine.is_idle() && engine.completed_len() == 0 {
                break;
            }
            assert!(round < 1_000, "the shard never drained");
            if round == 1 {
                assert!(matches!(
                    engine.poll(running_cut),
                    SessionStatus::Running { .. }
                ));
                assert_eq!(engine.poll(queued_cut), SessionStatus::Queued);
                assert!(engine.disconnect(running_cut));
                assert!(engine.disconnect(queued_cut));
            } else if round % 3 == 2 {
                for outcome in engine.drain_completed() {
                    let seen = polled.remove(&outcome.id.serial());
                    assert_eq!(seen.as_ref(), Some(&outcome), "round {round}");
                    drained.push(outcome);
                }
            }
            engine.step_round();
        }
        assert!(polled.is_empty(), "polled as done but never drained");
        assert_eq!(drained.len(), serials.len());
        for outcome in &drained {
            let serial = outcome.id.serial();
            let walked = [running_cut, queued_cut, ttl].contains(&serial);
            let fate = if walked {
                SessionFate::Disconnected
            } else {
                SessionFate::Completed
            };
            assert_eq!(outcome.fate, fate, "serial {serial}");
        }
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
                    let ran = engine.progress(engine.active[0] as usize);
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

    // A completing session and a quantum under which the admission
    // run-ahead reaches its fate but the schedule retires it only in a
    // later round: `(spec, quantum, final steps)`.
    fn fated_ahead_of_schedule() -> (SessionSpec, u32, Step) {
        let spec = tight_spec(&[1, 2, 0], 5);
        let mut world = spec.build_world();
        assert!(world.run_until(spec.max_steps, World::is_complete));
        let n = world.step_count();
        // n ≤ 4q, so the admission run-ahead reaches the fate, and
        // (n − 1) / q ≥ 1, so the schedule retires it after round 1.
        let q = n.div_ceil(4);
        assert!(n >= 3 && (n - 1) / q >= 1, "{n} steps");
        (spec, q as u32, n)
    }

    #[test]
    fn disconnecting_a_fated_session_replays_on_a_pooled_world() {
        let (spec, q, n) = fated_ahead_of_schedule();
        let mut engine = SessionEngine::new(0, 4, q);
        let serial = engine.submit(spec.clone());
        engine.step_round();
        let slot = engine.active[0] as usize;
        assert!(engine.worlds[slot].is_none(), "the fated world went back");
        assert_eq!(engine.recipes[0].idle.len(), 1);
        assert_eq!(engine.stats[slot].steps, n);
        let scheduled = u64::from(q);
        assert_eq!(
            engine.poll(serial),
            SessionStatus::Running { steps: scheduled }
        );
        assert!(engine.disconnect(serial));
        let drained = engine.drain_completed();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].fate, SessionFate::Disconnected);
        assert_eq!(drained[0].stats, world_after(&spec, scheduled));
        // The replay borrowed the pooled world and returned it.
        assert_eq!(engine.recipes[0].idle.len(), 1);
        assert!(engine.worlds.iter().all(Option::is_none));
    }

    #[test]
    fn a_stall_record_of_a_fated_session_carries_its_full_spec() {
        let (spec, q, _) = fated_ahead_of_schedule();
        let mut engine = SessionEngine::new(2, 4, q);
        engine.arm_watchdog(WatchdogSpec {
            multiplier: 0.0,
            min_rounds: 1,
        });
        let serial = engine.submit(spec.clone());
        // Round 0 admits and runs the session to its fate; round 1 flags
        // it before the schedule retires it.
        engine.step_round();
        let slot = engine.active[0] as usize;
        assert!(engine.worlds[slot].is_none(), "the fated world went back");
        engine.step_round();
        let stalls = engine.drain_stalls();
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].serial, serial);
        assert_eq!(stalls[0].spec, spec, "input and budgets included");
        assert_eq!(stalls[0].steps, u64::from(q));
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
        let (base, digest) = (base.fleet, base.digest);
        assert_eq!(base.submitted, 400);
        assert_eq!(
            base.completed + base.exhausted + base.disconnected,
            base.submitted
        );
        assert!(base.completed > 0);
        assert!(base.disconnected > 0, "10% walk-away rate must show up");
        for shards in [2u16, 4] {
            let sharded = run_churn(&small_churn(400, shards), &ChurnRun::default());
            assert_eq!(sharded.digest, digest, "shards={shards}");
            let sharded = sharded.fleet;
            assert_eq!(sharded.completed, base.completed, "shards={shards}");
            assert_eq!(sharded.exhausted, base.exhausted, "shards={shards}");
            assert_eq!(sharded.disconnected, base.disconnected, "shards={shards}");
            assert_eq!(sharded.steps, base.steps, "shards={shards}");
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
        assert_eq!(threaded.fleet.completed, isolated.fleet.completed);
        assert_eq!(threaded.fleet.latency, isolated.fleet.latency);
        assert_eq!(isolated.shard_busy_secs.len(), 3);
        assert!(isolated.critical_path_secs() > 0.0);
        assert!(isolated.sessions_per_sec() > 0.0);
    }

    #[test]
    fn every_run_mode_counts_its_shards_once() {
        for shards in [1, 3, 4] {
            let spec = small_churn(120, shards);
            let fleet = FleetRegistry::new(shards);
            let prof = Arc::new(PhaseProfiler::new(4));
            let base = ChurnRun::default();
            let modes = [
                base,
                ChurnRun {
                    isolated: true,
                    ..base
                },
                ChurnRun {
                    fleet: Some(&fleet),
                    ..base
                },
                ChurnRun {
                    profiler: Some(&prof),
                    ..base
                },
            ];
            for run in &modes {
                let report = run_churn(&spec, run);
                let n = usize::from(shards);
                assert_eq!(report.shard_busy_secs.len(), n, "{run:?}");
                assert_eq!(report.shards(), n, "{run:?}");
                assert_eq!(report.fleet.shards, n, "{run:?}");
            }
        }
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let a = run_churn(&small_churn(200, 2), &ChurnRun::default());
        let b = run_churn(&small_churn(200, 2), &ChurnRun::default());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.fleet.completed, b.fleet.completed);
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
        assert_eq!(record.completed, report.fleet.completed);
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
            assert_eq!(report.fleet.exhausted, 0, "seed={seed}: clean workload");
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
        assert_eq!(metered.fleet, unmetered.fleet);
        // The registry holds the rows the report was folded from.
        let stats = fleet.snapshot().stats();
        assert_eq!(stats, metered.fleet);
        assert_eq!(stats.admitted, stats.recycle_hits + stats.recycle_misses);
        assert!(stats.p99_latency_rounds() >= 1.0);
    }

    #[test]
    fn fleet_laws_hold_in_every_snapshot_taken_during_a_threaded_run() {
        let spec = small_churn(4_000, 4);
        let fleet = FleetRegistry::new(4);
        let done = std::sync::atomic::AtomicBool::new(false);
        let (report, last) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                // Live progress is the aggregate's retired count: it
                // never goes back between consecutive samples.
                let mut retired = 0;
                for sample in 0u64.. {
                    let finished = done.load(Ordering::Acquire);
                    let snap = fleet.snapshot();
                    let stats = snap.stats();
                    for row in snap.shards.iter().chain([&stats]) {
                        if let Err(law) = row.record("t").check_conservation() {
                            panic!("sample {sample}, shard {:?}: {law}", row.shard);
                        }
                    }
                    let now = stats.completed + stats.exhausted + stats.disconnected;
                    assert!(
                        now >= retired,
                        "sample {sample}: progress {retired} -> {now}"
                    );
                    retired = now;
                    if finished {
                        return stats;
                    }
                }
                unreachable!("the sampler stops once the run is done")
            });
            let report = run_churn(
                &spec,
                &ChurnRun {
                    fleet: Some(&fleet),
                    ..ChurnRun::default()
                },
            );
            done.store(true, Ordering::Release);
            (report, sampler.join().expect("sampler"))
        });
        // The last sample was taken after the run ended.
        assert_eq!(last, report.fleet);
        assert_eq!(last.submitted, 4_000);
        assert_eq!(
            last.completed + last.exhausted + last.disconnected,
            spec.sessions
        );
    }

    // `small_churn(3_000, 1)` over dup, lossy-fifo and del, the last two
    // also under a deleting adversary.
    fn drop_heavy_churn() -> ChurnSpec {
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
        spec
    }

    #[test]
    fn a_full_churn_shard_builds_worlds_for_few_of_its_slots() {
        // `bench_sessions`' mix and shard shape: 4096 slots, 4096
        // arrivals a round, quantum 8. Most sessions reach their fate in
        // the admission run-ahead and hand their world to the next
        // admission of the recipe, so the shard builds worlds for at most
        // a tenth of its slots (221 of 4096 on this workload). One world
        // per slot would read 4096 here.
        let mut mix = churn_mix();
        mix.push(SessionTemplate {
            family: FamilySpec::Tight {
                d: 4,
                policy: ResendPolicy::EveryTick,
            },
            channel: ChannelSpec::Del,
            scheduler: SchedulerSpec::Random { p_deliver: 0.7 },
        });
        let spec = ChurnSpec {
            sessions: 3 * 4_096,
            arrivals_per_round: 4_096,
            server: ServerSpec {
                shards: 1,
                capacity_per_shard: 4_096,
                quantum: 8,
                watchdog: None,
            },
            max_steps: 2_000,
            seed: 0x5E55_1045,
            disconnect_rate: 0.05,
            disconnect_after: 2,
            mix,
        };
        let fleet = run_churn(&spec, &ChurnRun::default()).fleet;
        let slots = spec.server.capacity_per_shard as u64;
        assert_eq!(fleet.admitted, spec.sessions);
        assert!(
            fleet.recycle_misses * 10 <= slots,
            "{} worlds built for {slots} slots",
            fleet.recycle_misses
        );
    }

    #[test]
    fn churn_outcomes_are_pinned() {
        // Every session's outcome is a pure function of its spec, so a
        // change to the store that moves any of them moves the digest,
        // the step total or a fate count. A change that moves these
        // constants changes what sessions do, and has to say why.
        let report = run_churn(&drop_heavy_churn(), &ChurnRun::default());
        let fleet = &report.fleet;
        assert_eq!(format!("{:016x}", report.digest), "309a622f483b937e");
        assert_eq!(fleet.steps, 32_543);
        assert_eq!(
            (fleet.completed, fleet.exhausted, fleet.disconnected),
            (2_951, 0, 49)
        );
    }

    // A metered single-shard churn over dup, lossy-fifo and del (the
    // last two also under a deleting adversary), with an explicit
    // disconnect of a queued and of a running session every few rounds.
    // `check` sees the engine and its metrics at every round boundary,
    // right after `step_round`.
    fn metered_churn_with_disconnects(
        mut check: impl FnMut(&SessionEngine, &crate::fleet::FleetStats),
    ) {
        let spec = drop_heavy_churn();
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
    fn session_worlds_stay_unobserved() {
        // A world built with a recording mode would put the trace, probe
        // and provenance sink on the churn hot path. Every running and
        // every pooled world is checked at every round boundary: 1 428
        // checks on this workload (6 051 when each slot kept a world).
        let mut checked = 0;
        metered_churn_with_disconnects(|engine, _| {
            let pooled = engine.recipes.iter().flat_map(|r| &r.idle);
            for world in engine.worlds.iter().flatten().chain(pooled) {
                assert_eq!(world.mode(), TraceMode::Off);
                assert!(world.msg_events().is_empty());
                checked += 1;
            }
        });
        assert!(checked > 1_000, "{checked} worlds checked");
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
                // A fated session's world has gone back to the pool: check
                // a replay of its spec to the slot's final step count,
                // which must reproduce the slot's stats column.
                let replay;
                let world = match &engine.worlds[slot] {
                    Some(world) => world,
                    None => {
                        let mut w = engine.spec(slot).build_world();
                        w.run_until(engine.stats[slot].steps, World::is_complete);
                        assert_eq!(w.stats(), engine.stats[slot], "slot {slot} replay");
                        replay = w;
                        &replay
                    }
                };
                let (st, channel) = (world.stats(), world.channel());
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
