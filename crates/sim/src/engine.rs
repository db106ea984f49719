//! The high-throughput sweep engine: one declarative [`SweepSpec`], a
//! pool of persistent worker [`World`]s, and a lock-free merge.
//!
//! The legacy sweep path boxed four fresh trait objects per grid cell
//! (sender, receiver, channel, scheduler) and recorded a full event trace
//! even when only the final statistics were wanted. [`SweepEngine`]
//! removes both costs:
//!
//! * **Pooled worlds** — each worker thread assembles one [`World`] per
//!   scheduler recipe the first time it meets it, then
//!   [`World::reset`]s it between runs. The reset contract (every
//!   component behaves as freshly constructed) makes this exactly
//!   equivalent to re-boxing, without the allocations.
//! * **Optional tracing** — the spec carries a
//!   [`TraceMode`]; under [`TraceMode::Off`] the run
//!   allocates no events at all. In every mode a run's statistics come
//!   from one source, the world's incremental counters
//!   ([`World::stats`]).
//! * **In-place fill** — the grid's result slots are allocated once, in
//!   run order, and dealt out in 16-cell chunks from a shared
//!   [`Mutex`]; each worker writes every run straight into its slot, so
//!   there are no per-worker buckets. The calling thread is always one of
//!   the workers, so at `threads(1)` the grid runs serially with nothing
//!   spawned, and [`SweepEngine::run_isolated`] is the same loop over a
//!   static deal.
//! * **Seed-major runs** — within each scheduler block the cells run
//!   seed-major (every sequence under one seed, then the next seed), so a
//!   pooled world is reset to the seed it already holds and its scheduler
//!   replays the seed's keystream
//!   ([`ChaCha8Rng::reseed`](rand_chacha::ChaCha8Rng::reseed)) instead of
//!   computing it again.
//!
//! The grid itself is the cartesian product *schedulers × claimed
//! sequences × seeds*, and the outcome lists it scheduler-major, then
//! sequence, then seed, so a single-scheduler spec reproduces the legacy
//! sweep order bit-for-bit. With one seed the run order is that grid
//! order; with more, the runs are put back into grid order after the
//! join.
//!
//! For scaling measurements on oversubscribed or single-core hosts,
//! [`SweepEngine::run_isolated`] runs each worker's share of a static
//! deal in turn on the calling thread and times it, so throughput can be
//! judged from the critical path rather than from wall-clock.

use crate::prof::PhaseProfiler;
use crate::runner::{MemberRun, SweepOutcome};
use crate::world::World;
use serde::{Deserialize, Serialize};
use std::iter;
use std::sync::Mutex;
use std::time::Instant;
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_core::data::DataSeq;
use stp_core::event::{Step, TraceMode};
use stp_protocols::ProtocolFamily;

/// A declarative description of an entire sweep: the grid, the channel
/// and adversary recipes, the tracing policy and the thread count. It is
/// plain serde data, so a spec can travel in a JSON config file or a bug
/// report and reproduce the sweep exactly.
///
/// Every run's [`RunStats`](crate::RunStats) come from its world's own
/// counters ([`World::stats`]), whatever the trace mode. Unknown keys are
/// ignored when parsing, so a spec that carries the removed `"probe"` or
/// `"slo"` key still loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Step budget per run.
    pub max_steps: Step,
    /// Adversary seeds to try per sequence.
    pub seeds: Vec<u64>,
    /// What each run's trace remembers. Defaults to [`TraceMode::Full`];
    /// stats-only sweeps should use [`TraceMode::Off`].
    #[serde(default)]
    pub trace_mode: TraceMode,
    /// Worker threads. `0` (the default) means one per available core;
    /// `1` runs the grid on the calling thread.
    #[serde(default)]
    pub threads: usize,
    /// Record per-message provenance on every pooled world (default
    /// `false`; see [`WorldBuilder::provenance`](crate::WorldBuilder::provenance)).
    /// This switches the channel's id bookkeeping on and records every
    /// run's [`MsgEvent`](stp_core::event::MsgEvent) stream, from which
    /// [`MsgSpans::of`](crate::trace::MsgSpans::of) folds the run's
    /// per-message lifecycles. It does not change the trace mode; its cost
    /// is benchmarked by `bench_sweep`'s traced lane.
    #[serde(default)]
    pub traced: bool,
    /// Channel recipe, rebuilt once per pooled world.
    pub channel: ChannelSpec,
    /// Adversary recipes; the grid runs every sequence × seed under each.
    pub schedulers: Vec<SchedulerSpec>,
}

impl SweepSpec {
    /// A spec with the legacy defaults (10 000 steps, seeds `[0, 1, 2]`,
    /// full tracing, auto threads) over one channel and one adversary.
    pub fn new(channel: ChannelSpec, scheduler: SchedulerSpec) -> Self {
        SweepSpec {
            max_steps: 10_000,
            seeds: vec![0, 1, 2],
            trace_mode: TraceMode::default(),
            threads: 0,
            traced: false,
            channel,
            schedulers: vec![scheduler],
        }
    }

    /// Replaces the step budget.
    pub fn max_steps(mut self, max_steps: Step) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Replaces the seed list.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Replaces the tracing policy.
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// Replaces the worker-thread count (`0` = one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Toggles provenance recording on every pooled world.
    pub fn traced(mut self, traced: bool) -> Self {
        self.traced = traced;
        self
    }

    /// Adds another adversary recipe to the grid.
    pub fn also_scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.schedulers.push(scheduler);
        self
    }

    /// The number of grid cells this spec describes for `family`.
    pub fn grid_size(&self, family: &dyn ProtocolFamily) -> usize {
        self.schedulers.len() * family.claimed_len() * self.seeds.len()
    }

    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::Eager)
    }
}

/// The engine: owns a [`SweepSpec`] and runs protocol families through
/// it. Construction is free; all work happens in [`SweepEngine::run`].
#[derive(Debug, Clone)]
pub struct SweepEngine {
    spec: SweepSpec,
}

/// Grid cells per chunk: the unit in which workers take slots to fill
/// from the shared deal of [`SweepEngine::run`], so the deal's lock is
/// taken once per 16 cells.
const DEAL_CHUNK: usize = 16;

/// A timed [`SweepEngine::run_isolated`] result: the merged outcome plus
/// per-worker busy seconds, from which the critical-path throughput is
/// derived.
#[derive(Debug, Clone)]
pub struct IsolatedReport {
    /// The merged sweep outcome, identical to [`SweepEngine::run`].
    pub outcome: SweepOutcome,
    /// Busy seconds per worker, indexed by worker id.
    pub worker_busy_secs: Vec<f64>,
    /// Wall-clock seconds for the whole isolated pass: the sum of the
    /// busy times, plus building the claimed family and the slots before
    /// them and packaging the outcome after.
    pub wall_secs: f64,
}

impl IsolatedReport {
    /// The slowest worker's busy time — the wall-clock a perfectly
    /// parallel host would need for this partition.
    pub fn critical_path_secs(&self) -> f64 {
        self.worker_busy_secs.iter().copied().fold(0.0, f64::max)
    }

    /// Aggregate runs per second over the critical path.
    pub fn runs_per_sec(&self) -> f64 {
        let cp = self.critical_path_secs();
        if cp > 0.0 {
            self.outcome.len() as f64 / cp
        } else {
            0.0
        }
    }
}

impl SweepEngine {
    /// Wraps a spec.
    pub fn new(spec: SweepSpec) -> Self {
        SweepEngine { spec }
    }

    /// The spec this engine runs.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// Runs the whole grid across the spec's worker threads, pooling one
    /// world per (worker, scheduler recipe). Cells run seed-major within
    /// each scheduler block, so consecutive cells on a worker share a seed
    /// and replay its keystream. Results are returned in grid order
    /// (scheduler, then sequence, then seed), identical for every thread
    /// count; at `threads(1)` the one worker is the calling thread and
    /// nothing is spawned.
    pub fn run(&self, family: &dyn ProtocolFamily) -> SweepOutcome {
        self.run_inner(family, None)
    }

    /// [`SweepEngine::run`] with a phase profiler attached: every
    /// [`period`](PhaseProfiler::period)-th grid cell per worker runs as
    /// one profiled window, attributing time to [`Phase`](crate::prof::Phase)s
    /// split by the spec's channel kind. Results are bit-identical to an
    /// unprofiled run — profiling only observes (see `tests/prof_parity.rs`).
    pub fn run_profiled(&self, family: &dyn ProtocolFamily, prof: &PhaseProfiler) -> SweepOutcome {
        self.run_inner(family, Some(prof))
    }

    fn run_inner(&self, family: &dyn ProtocolFamily, prof: Option<&PhaseProfiler>) -> SweepOutcome {
        let threads = self.spec.resolved_threads();
        self.run_grid(family, |claimed, slots| {
            let deal = Mutex::new(slots.chunks_mut(DEAL_CHUNK).enumerate());
            // One worker: it captures only shared references, so it is
            // `Copy` and runs both on spawned threads and on this one.
            let worker = || {
                let next = || {
                    deal.lock()
                        .expect("no worker panics holding the deal")
                        .next()
                };
                let cells =
                    iter::from_fn(next).flat_map(|(c, chunk)| (c * DEAL_CHUNK..).zip(chunk));
                self.fill(family, claimed, prof, cells);
            };
            // The calling thread is worker 0; `threads - 1` more are spawned.
            std::thread::scope(|scope| {
                for _ in 1..threads {
                    scope.spawn(worker);
                }
                worker();
            });
        })
    }

    /// Runs every worker's share of a static deal sequentially on the
    /// calling thread, timing each worker's busy loop. The worker count
    /// is the spec's `threads`, and cell `i` of the run order (seed-major
    /// within each scheduler block, as in [`SweepEngine::run`]) goes to
    /// worker `i % threads`. The merged outcome is in grid order and
    /// bit-identical to [`SweepEngine::run`], and
    /// [`IsolatedReport::runs_per_sec`] measures the partition's critical
    /// path: what that many real cores would achieve, judged from one.
    pub fn run_isolated(&self, family: &dyn ProtocolFamily) -> IsolatedReport {
        let wall = Instant::now();
        let workers = self.spec.resolved_threads();
        let mut busy = Vec::with_capacity(workers);
        let outcome = self.run_grid(family, |claimed, slots| {
            for w in 0..workers {
                let t = Instant::now();
                self.fill(family, claimed, None, dealt(slots, workers, w));
                busy.push(t.elapsed().as_secs_f64());
            }
        });
        IsolatedReport {
            outcome,
            worker_busy_secs: busy,
            wall_secs: wall.elapsed().as_secs_f64(),
        }
    }

    /// Allocates the grid's slots once, in run order, lets `deal` hand
    /// them to workers that fill them in place, and packages the runs in
    /// grid order.
    fn run_grid(
        &self,
        family: &dyn ProtocolFamily,
        deal: impl FnOnce(&[DataSeq], &mut [Option<MemberRun>]),
    ) -> SweepOutcome {
        let claimed = family.claimed_family();
        let (seqs, seeds) = (claimed.len(), self.spec.seeds.len());
        let cells = self.spec.schedulers.len() * seqs * seeds;
        let mut slots = vec![None; cells];
        deal(claimed.seqs(), &mut slots);
        let ran = |run: Option<MemberRun>| run.expect("every grid cell ran exactly once");
        let runs = if seeds > 1 && seqs > 1 {
            // Grid cell (sequence x, seed s) of a scheduler block ran as
            // slot (s, x) of the same block.
            let per_scheduler = seqs * seeds;
            (0..cells)
                .map(|g| {
                    let (block, rest) = (g - g % per_scheduler, g % per_scheduler);
                    ran(slots[block + (rest % seeds) * seqs + rest / seeds].take())
                })
                .collect()
        } else {
            // Run order is grid order. `Option<MemberRun>` and `MemberRun`
            // share a layout, so this collect reuses the slot vector's
            // buffer.
            slots.into_iter().map(ran).collect()
        };
        SweepOutcome::from_runs(runs)
    }

    /// One worker's fill loop: runs every `(run index, slot)` it is handed
    /// on its own pool of worlds (one per scheduler recipe, built lazily
    /// and reset between cells; worlds never cross threads, so the boxed
    /// components need no `Send` bound) and writes each run into its slot.
    /// A cell's `(scheduler, sequence, seed)` follows from its run index:
    /// scheduler-major, then seed, then sequence, so a world's consecutive
    /// cells share a seed.
    fn fill<'s>(
        &self,
        family: &dyn ProtocolFamily,
        claimed: &[DataSeq],
        prof: Option<&PhaseProfiler>,
        cells: impl Iterator<Item = (usize, &'s mut Option<MemberRun>)>,
    ) {
        let spec = &self.spec;
        let mut worlds: Vec<Option<World>> = (0..spec.schedulers.len()).map(|_| None).collect();
        let seqs = claimed.len();
        let per_scheduler = seqs * spec.seeds.len();
        // Per-worker sampling tick: each worker profiles every
        // `period`-th of *its own* cells, so the sampled share is
        // independent of the thread count.
        let mut tick: u64 = 0;
        for (i, slot) in cells {
            let cell_prof = prof.filter(|p| {
                tick += 1;
                p.sample(tick)
            });
            let (sched, rest) = (i / per_scheduler, i % per_scheduler);
            let seed = spec.seeds[rest / seqs];
            let x = &claimed[rest % seqs];
            let run = run_cell(&mut worlds, family, spec, sched, x, seed, cell_prof);
            *slot = Some(run);
        }
    }
}

/// Worker `w`'s share of [`SweepEngine::run_isolated`]'s static deal of
/// `slots` over `workers` workers: every `workers`-th cell from cell `w`,
/// with its index. Single cells rather than 16-cell chunks keep the deal
/// balanced however cell cost drifts across the sequences: in seed-major
/// order a chunk holds neighbouring sequences of one seed, so a chunk
/// deal can give each worker the same sequences under every seed. A
/// worker's consecutive cells still share a seed.
fn dealt<T>(slots: &mut [T], workers: usize, w: usize) -> impl Iterator<Item = (usize, &mut T)> {
    slots.iter_mut().enumerate().skip(w).step_by(workers)
}

/// Executes one grid cell on a pooled world, building it on first use and
/// resetting it otherwise. The reset path and the fresh-build path are
/// behaviourally identical by the component reset contract — the parity
/// test in `tests/parity.rs` pins this down against the legacy runner.
fn run_cell(
    worlds: &mut [Option<World>],
    family: &dyn ProtocolFamily,
    spec: &SweepSpec,
    sched: usize,
    x: &DataSeq,
    seed: u64,
    prof: Option<&PhaseProfiler>,
) -> MemberRun {
    let slot = &mut worlds[sched];
    let world = match slot {
        Some(w) => {
            w.reset(x, seed);
            w
        }
        None => {
            let world = World::builder(x.clone())
                .sender(family.sender_for(x))
                .receiver(family.receiver())
                .channel(spec.channel.build())
                .scheduler(spec.schedulers[sched].build(seed))
                .mode(spec.trace_mode)
                .provenance(spec.traced)
                .build();
            slot.insert(world.expect("engine supplies every component"))
        }
    };
    match prof {
        // A sampled cell: the whole run is one profiling window, with
        // channel cost split by the world's channel kind. Unsampled cells
        // take the unchanged fast path.
        Some(p) => {
            world.run_until_profiled(spec.max_steps, World::is_complete, p);
        }
        None => {
            world.run_until(spec.max_steps, World::is_complete);
        }
    }
    let trace = if spec.trace_mode == TraceMode::Off {
        None
    } else {
        Some(world.trace().clone())
    };
    MemberRun {
        input: x.clone(),
        seed,
        scheduler: sched,
        stats: world.stats(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_protocols::{ResendPolicy, TightFamily};

    fn storm_spec() -> SweepSpec {
        SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
            .max_steps(5_000)
            .seeds([0, 7])
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = storm_spec()
            .trace_mode(TraceMode::Off)
            .threads(3)
            .also_scheduler(SchedulerSpec::Reorder);
        let json = serde_json::to_string_pretty(&spec).expect("serializes");
        let back: SweepSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn spec_defaults_apply_when_fields_are_omitted() {
        // trace_mode and threads are optional in the wire format.
        let json = r#"{
            "max_steps": 100,
            "seeds": [4],
            "channel": "Del",
            "schedulers": ["Eager"]
        }"#;
        let spec: SweepSpec = serde_json::from_str(json).expect("parses");
        assert_eq!(spec.trace_mode, TraceMode::Full);
        assert_eq!(spec.threads, 0);
        assert!(!spec.traced);
        // Specs written before the `probe` and `slo` fields were removed
        // still parse, to the same spec: unknown keys are ignored.
        let old = r#"{
            "max_steps": 100,
            "seeds": [4],
            "trace_mode": "Full",
            "threads": 0,
            "probe": true,
            "traced": false,
            "channel": "Del",
            "schedulers": ["Eager"],
            "slo": {
                "action": {"DeletionBurst": {"copies": 2}},
                "duration": 3,
                "direction": "Both",
                "seed": 0,
                "max_steps": 20000
            }
        }"#;
        let old: SweepSpec = serde_json::from_str(old).expect("parses");
        assert_eq!(old, spec);
    }

    #[test]
    fn traced_sweeps_reconcile_and_change_no_stats() {
        use crate::trace::MsgSpans;
        let family = TightFamily::new(3, ResendPolicy::Once);
        let plain = SweepEngine::new(storm_spec().threads(1)).run(&family);
        let traced_spec = storm_spec()
            .trace_mode(TraceMode::Off)
            .traced(true)
            .threads(1);
        let traced = SweepEngine::new(traced_spec.clone()).run(&family);
        assert_eq!(plain.len(), traced.len());
        for (a, b) in plain.runs.iter().zip(&traced.runs) {
            assert_eq!(a.stats, b.stats, "tracing must not change behaviour");
        }
        // The flag survives the wire format.
        let json = serde_json::to_string(&traced_spec).expect("serializes");
        let back: SweepSpec = serde_json::from_str(&json).expect("parses");
        assert!(back.traced);
        // And a traced world really records a reconciling span stream.
        let mut worlds: Vec<Option<World>> = vec![None];
        // A non-empty sequence, so the run actually exercises the channel.
        let claimed = family.claimed_family();
        let x = claimed
            .seqs()
            .iter()
            .max_by_key(|s| s.len())
            .unwrap()
            .clone();
        let run = run_cell(&mut worlds, &family, &traced_spec, 0, &x, 0, None);
        let world = worlds[0].as_ref().unwrap();
        let probe = MsgSpans::of(world.msg_events(), world.step_count());
        probe.reconcile(&run.stats).expect("spans reconcile");
        assert!(!probe.spans().is_empty());
    }

    #[test]
    fn off_mode_stats_equal_the_full_trace_derivation() {
        // A cell's stats have one source, the world's counters. Check
        // them against an independent derivation: `RunStats::of` folding
        // the same cell's full event trace.
        use crate::metrics::RunStats;
        let family = TightFamily::new(3, ResendPolicy::Once);
        let spec = storm_spec().also_scheduler(SchedulerSpec::Reorder);
        let full = SweepEngine::new(spec.clone().threads(1)).run(&family);
        let off = SweepEngine::new(spec.trace_mode(TraceMode::Off).threads(4)).run(&family);
        assert_eq!(full.len(), off.len());
        for (f, o) in full.runs.iter().zip(&off.runs) {
            let trace = f.trace.as_ref().expect("Full mode keeps the trace");
            assert_eq!(o.stats, RunStats::of(trace), "{} seed {}", o.input, o.seed);
            assert!(o.trace.is_none());
        }
        assert_eq!(full.report(), off.report());
    }

    #[test]
    fn parallel_run_matches_serial_run() {
        let family = TightFamily::new(3, ResendPolicy::Once);
        let serial = SweepEngine::new(storm_spec().threads(1)).run(&family);
        let parallel = SweepEngine::new(storm_spec().threads(4)).run(&family);
        assert_eq!(serial.runs, parallel.runs);
        assert!(parallel.all_complete(), "failures: {:?}", parallel.failures);
    }

    #[test]
    fn multi_scheduler_grids_tag_runs_with_their_recipe_index() {
        let family = TightFamily::new(2, ResendPolicy::EveryTick);
        let spec = SweepSpec::new(ChannelSpec::Del, SchedulerSpec::Eager)
            .also_scheduler(SchedulerSpec::DropHeavy {
                p_drop: 0.3,
                p_deliver: 0.6,
            })
            .max_steps(20_000)
            .seeds([3])
            .threads(1);
        let outcome = SweepEngine::new(spec).run(&family);
        let grid = family.claimed_family().len();
        assert_eq!(outcome.len(), grid * 2);
        assert!(outcome.runs[..grid].iter().all(|r| r.scheduler == 0));
        assert!(outcome.runs[grid..].iter().all(|r| r.scheduler == 1));
        assert!(outcome.all_complete(), "failures: {:?}", outcome.failures);
    }

    #[test]
    fn campaign_reset_survives_pooled_reuse_bit_identically() {
        // Regression guard for the pooled-world path: a CampaignScheduler
        // carries per-clause firing state, an OnWrite progress latch and a
        // PRNG cursor, all of which must be fully rewound by reset() when
        // the SweepEngine reuses a world across cells. A second lap over
        // 32 seeds must be bit-identical, and every pooled cell must match
        // a world built fresh for that cell.
        use stp_channel::campaign::{Direction, FaultAction, FaultClause, FaultPlan, Trigger};
        let family = TightFamily::new(3, ResendPolicy::EveryTick);
        let plan = FaultPlan::new(11)
            .with(
                FaultClause::new(FaultAction::StateScramble, Trigger::OnWrite { index: 1 })
                    .direction(Direction::ToReceiver),
            )
            .with(
                FaultClause::new(
                    FaultAction::DeletionBurst { copies: 1 },
                    Trigger::EveryK {
                        period: 7,
                        offset: 3,
                    },
                )
                .repeats(3),
            );
        let spec = SweepSpec::new(
            ChannelSpec::Del,
            SchedulerSpec::Campaign {
                inner: Box::new(SchedulerSpec::Eager),
                plan,
            },
        )
        .max_steps(5_000)
        .seeds(0..32)
        .threads(1);
        let engine = SweepEngine::new(spec.clone());
        let first = engine.run(&family);
        let second = engine.run(&family);
        assert_eq!(first.runs, second.runs, "second lap diverged");
        // The scramble clause must actually have fired somewhere, or this
        // test guards nothing.
        assert!(
            first.runs.iter().any(|r| r.trace.as_ref().is_some_and(|t| t
                .events()
                .iter()
                .any(|e| matches!(e.event, stp_core::event::Event::Corruption { .. })))),
            "no corruption fired anywhere in the sweep"
        );
        for run in &first.runs {
            let mut w = World::builder(run.input.clone())
                .sender(family.sender_for(&run.input))
                .receiver(family.receiver())
                .channel(spec.channel.build())
                .scheduler(spec.schedulers[0].build(run.seed))
                .build()
                .expect("all components supplied");
            w.run_until(spec.max_steps, World::is_complete);
            assert_eq!(&w.stats(), &run.stats, "seed {}: stats", run.seed);
            assert_eq!(
                Some(w.trace()),
                run.trace.as_ref(),
                "seed {}: trace",
                run.seed
            );
        }
    }

    #[test]
    fn off_mode_runs_carry_no_trace_but_full_stats() {
        let family = TightFamily::new(3, ResendPolicy::Once);
        let engine = SweepEngine::new(storm_spec().trace_mode(TraceMode::Off).threads(1));
        let with_trace = SweepEngine::new(storm_spec().threads(1)).run(&family);
        let without = engine.run(&family);
        assert_eq!(with_trace.len(), without.len());
        for (a, b) in with_trace.runs.iter().zip(&without.runs) {
            assert!(a.trace.is_some());
            assert!(b.trace.is_none());
            assert_eq!(a.stats, b.stats, "tracing must not change behaviour");
        }
    }

    #[test]
    fn deal_covers_the_grid_without_overlap() {
        for (cells, workers) in [(29, 3), (100, 4), (20, 8), (0, 2)] {
            let mut grid: Vec<usize> = (0..cells).collect();
            let mut seen = vec![false; cells];
            for w in 0..workers {
                for (k, &mut i) in dealt(&mut grid, workers, w) {
                    assert_eq!(k % workers, w, "cell on the wrong worker");
                    assert_eq!(i, k, "{cells}/{workers}: cell {k} misindexed");
                    assert!(!seen[i], "{cells}/{workers}: cell {i} dealt twice");
                    seen[i] = true;
                }
            }
            assert!(
                seen.iter().all(|&b| b),
                "{cells}/{workers}: cell never dealt"
            );
        }
    }
}
