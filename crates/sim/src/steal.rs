//! The work-stealing parallel sweep executor: chunked cell deques with
//! neighbor stealing, per-worker pooled worlds, and a deterministic
//! post-join merge.
//!
//! [`SweepEngine::run`](crate::engine::SweepEngine::run) already spreads
//! the grid over threads, but its single shared cursor hands out one cell
//! at a time — under tiny cells the atomic traffic dominates, and a slow
//! cell at the tail leaves every other worker idle. [`StealSweep`] fixes
//! both:
//!
//! * **Chunked deques** — the flattened work list is cut into fixed-size
//!   chunks dealt round-robin across per-worker deques. A worker pops
//!   chunks off its own front; contention only happens when someone runs
//!   dry.
//! * **Neighbor stealing** — an idle worker scans its neighbors in ring
//!   order and steals the back *half* of the first non-empty deque it
//!   finds, so imbalance halves per steal instead of migrating one cell
//!   at a time.
//! * **Per-worker pooled worlds** — each worker lazily builds one
//!   [`World`] per scheduler recipe and [`World::reset`]s it between
//!   cells, exactly the PR 2 pooling contract. Worlds never cross
//!   threads.
//! * **Merge-on-join** — telemetry flushes through batched
//!   [`LocalProgress`](crate::telemetry::LocalProgress) handles and every
//!   result carries its grid index; the join flattens, sorts, and yields
//!   a [`SweepOutcome`] bit-identical to the serial engine regardless of
//!   how the steals interleaved (pinned by `tests/steal_parity.rs`).
//!
//! For benchmarking on oversubscribed or single-core hosts,
//! [`StealSweep::run_isolated`] runs each worker's statically-owned
//! chunks sequentially and reports per-worker busy time, so aggregate
//! throughput can be computed from the critical path rather than
//! wall-clock (the same convention as `bench_sessions`' churn lanes).

use crate::engine::{merge, run_cell, Cell, SweepEngine, SweepSpec};
use crate::prof::PhaseProfiler;
use crate::runner::{MemberRun, SweepOutcome};
use crate::telemetry::ProgressMeter;
use crate::world::World;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::Instant;
use stp_core::data::DataSeq;
use stp_protocols::ProtocolFamily;

/// Default cells per chunk. Small enough that a 32-cell parity grid
/// still exercises multi-chunk stealing, large enough that deque locks
/// are off the per-cell fast path.
pub const DEFAULT_CHUNK: usize = 16;

/// A half-open range of indices into the flattened work list. Chunks are
/// the unit of ownership and theft; cells inside a chunk always run in
/// ascending order on whichever worker holds it.
type Chunk = (usize, usize);

/// The work-stealing sweep executor: wraps a [`SweepSpec`] plus an
/// explicit worker count and chunk size.
///
/// The spec's own `threads` field is ignored — the executor's `workers`
/// parameter is authoritative, so one spec can be replayed at 1/2/4/8
/// workers for scaling curves without mutation.
#[derive(Debug, Clone)]
pub struct StealSweep {
    spec: SweepSpec,
    workers: usize,
    chunk: usize,
}

/// A timed [`StealSweep::run_isolated`] result: the merged outcome plus
/// per-worker busy seconds, from which the critical-path throughput is
/// derived.
#[derive(Debug, Clone)]
pub struct StealReport {
    /// The merged sweep outcome, identical to [`StealSweep::run`].
    pub outcome: SweepOutcome,
    /// Busy seconds per worker, indexed by worker id.
    pub worker_busy_secs: Vec<f64>,
    /// Wall-clock seconds for the whole isolated pass (the sum of the
    /// busy times on a single-core host, plus merge overhead).
    pub wall_secs: f64,
}

impl StealReport {
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

impl StealSweep {
    /// Wraps a spec with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero — an executor with no workers cannot
    /// make progress.
    pub fn new(spec: SweepSpec, workers: usize) -> Self {
        assert!(workers > 0, "a steal executor needs at least one worker");
        StealSweep {
            spec,
            workers,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Replaces the chunk size (cells per unit of theft).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunks must hold at least one cell");
        self.chunk = chunk;
        self
    }

    /// The spec this executor runs.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cuts `n` cells into chunk ranges and deals them round-robin:
    /// chunk `c` starts on worker `c % workers`. Round-robin (rather
    /// than contiguous blocks) keeps the initial deal balanced even when
    /// cell cost drifts across the grid.
    fn deal(&self, n: usize) -> Vec<VecDeque<Chunk>> {
        let mut deques: Vec<VecDeque<Chunk>> = (0..self.workers).map(|_| VecDeque::new()).collect();
        let mut start = 0;
        let mut c = 0;
        while start < n {
            let end = (start + self.chunk).min(n);
            deques[c % self.workers].push_back((start, end));
            start = end;
            c += 1;
        }
        deques
    }

    /// Runs the whole grid across the executor's workers with neighbor
    /// stealing. Results are in grid order, bit-identical to
    /// [`SweepEngine::run_serial`].
    pub fn run(&self, family: &(dyn ProtocolFamily + Sync)) -> SweepOutcome {
        self.run_inner(family, None, None)
    }

    /// [`StealSweep::run`] with optional live progress. Workers report
    /// through batched [`LocalProgress`](crate::telemetry::LocalProgress)
    /// handles, so the shared meter is touched once per batch rather than
    /// once per cell.
    pub fn run_observed(
        &self,
        family: &(dyn ProtocolFamily + Sync),
        meter: Option<&ProgressMeter>,
    ) -> SweepOutcome {
        self.run_inner(family, meter, None)
    }

    /// [`StealSweep::run`] with a phase profiler attached: each worker
    /// samples every [`period`](PhaseProfiler::period)-th of *its own*
    /// cells, so attribution coverage is independent of the worker count
    /// (pinned ≥ 95% by `tests/prof_parity.rs`). Profiling never changes
    /// the results.
    pub fn run_profiled(
        &self,
        family: &(dyn ProtocolFamily + Sync),
        prof: &PhaseProfiler,
    ) -> SweepOutcome {
        self.run_inner(family, None, Some(prof))
    }

    fn run_inner(
        &self,
        family: &(dyn ProtocolFamily + Sync),
        meter: Option<&ProgressMeter>,
        prof: Option<&PhaseProfiler>,
    ) -> SweepOutcome {
        let claimed = family.claimed_family();
        let work = SweepEngine::new(self.spec.clone()).work_list(claimed.seqs());
        if let Some(m) = meter {
            m.begin(work.len());
        }
        let deques: Vec<Mutex<VecDeque<Chunk>>> =
            self.deal(work.len()).into_iter().map(Mutex::new).collect();
        let spec = &self.spec;
        let work = &work;
        let deques = &deques;
        let seqs = claimed.seqs();
        let workers = self.workers;
        let buckets: Vec<Vec<(usize, MemberRun)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut local = meter.map(|m| {
                            m.worker_started();
                            m.local()
                        });
                        let mut worlds: Vec<Option<World>> =
                            (0..spec.schedulers.len()).map(|_| None).collect();
                        let mut out = Vec::new();
                        let mut tick: u64 = 0;
                        while let Some((start, end)) = next_chunk(deques, w) {
                            for (i, &cell) in work.iter().enumerate().take(end).skip(start) {
                                run_indexed_cell(
                                    &mut worlds,
                                    family,
                                    spec,
                                    seqs,
                                    cell,
                                    i,
                                    prof,
                                    &mut tick,
                                    &mut out,
                                );
                                if let Some(l) = local.as_mut() {
                                    l.add(1);
                                }
                            }
                        }
                        drop(local); // flush the tail batch
                        if let Some(m) = meter {
                            m.worker_finished();
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("steal worker panicked"))
                .collect()
        });
        let outcome = merge(work.len(), buckets);
        if let Some(m) = meter {
            m.finish();
        }
        outcome
    }

    /// Runs every worker's statically-dealt chunks sequentially on the
    /// calling thread — no stealing, no real threads — timing each
    /// worker's busy loop. The merged outcome is still bit-identical to
    /// [`StealSweep::run`], and [`StealReport::runs_per_sec`] measures
    /// the partition's critical path: what `workers` real cores would
    /// achieve, judged honestly from a single core.
    pub fn run_isolated(&self, family: &dyn ProtocolFamily) -> StealReport {
        let wall = Instant::now();
        let claimed = family.claimed_family();
        let work = SweepEngine::new(self.spec.clone()).work_list(claimed.seqs());
        let deques = self.deal(work.len());
        let mut buckets = Vec::with_capacity(self.workers);
        let mut busy = Vec::with_capacity(self.workers);
        for deque in deques {
            let t = Instant::now();
            let mut worlds: Vec<Option<World>> =
                (0..self.spec.schedulers.len()).map(|_| None).collect();
            let mut out = Vec::new();
            let mut tick: u64 = 0;
            for (start, end) in deque {
                for (i, &cell) in work.iter().enumerate().take(end).skip(start) {
                    run_indexed_cell(
                        &mut worlds,
                        family,
                        &self.spec,
                        claimed.seqs(),
                        cell,
                        i,
                        None,
                        &mut tick,
                        &mut out,
                    );
                }
            }
            busy.push(t.elapsed().as_secs_f64());
            buckets.push(out);
        }
        StealReport {
            outcome: merge(work.len(), buckets),
            worker_busy_secs: busy,
            wall_secs: wall.elapsed().as_secs_f64(),
        }
    }
}

/// Pops the next chunk for worker `w`: own deque first (front), then
/// neighbors in ring order, stealing the back half of the first
/// non-empty deque found. Returns `None` when every deque is empty —
/// chunks are never re-queued after the transfer, so an empty full scan
/// means the grid is drained (a chunk mid-theft is already owned by its
/// thief and will be executed there).
fn next_chunk(deques: &[Mutex<VecDeque<Chunk>>], w: usize) -> Option<Chunk> {
    if let Some(chunk) = deques[w].lock().pop_front() {
        return Some(chunk);
    }
    let n = deques.len();
    for step in 1..n {
        let victim = (w + step) % n;
        let mut stolen = {
            let mut v = deques[victim].lock();
            let len = v.len();
            if len == 0 {
                continue;
            }
            // Take the back half (rounded up), leaving the front — the
            // part the victim is about to work on — in place.
            v.split_off(len - len.div_ceil(2))
        };
        let first = stolen.pop_front().expect("stole at least one chunk");
        if !stolen.is_empty() {
            deques[w].lock().append(&mut stolen);
        }
        return Some(first);
    }
    None
}

/// Runs one grid cell on the worker's pooled worlds, tagging the result
/// with its grid index and advancing the worker-local profiler tick.
#[allow(clippy::too_many_arguments)]
fn run_indexed_cell(
    worlds: &mut [Option<World>],
    family: &dyn ProtocolFamily,
    spec: &SweepSpec,
    seqs: &[DataSeq],
    cell: Cell,
    index: usize,
    prof: Option<&PhaseProfiler>,
    tick: &mut u64,
    out: &mut Vec<(usize, MemberRun)>,
) {
    let cell_prof = prof.filter(|p| {
        *tick += 1;
        p.sample(*tick)
    });
    let (sched, xi, seed) = cell;
    out.push((
        index,
        run_cell(worlds, family, spec, sched, &seqs[xi], seed, cell_prof),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_channel::{ChannelSpec, SchedulerSpec};
    use stp_protocols::{ResendPolicy, TightFamily};

    fn storm_spec() -> SweepSpec {
        SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
            .max_steps(5_000)
            .seeds(0..6)
            .trace_mode(stp_core::event::TraceMode::Off)
            .probe(true)
    }

    #[test]
    fn deal_covers_the_grid_without_overlap() {
        let sweep = StealSweep::new(storm_spec(), 3).chunk(4);
        let deques = sweep.deal(29);
        let mut seen = [false; 29];
        for d in &deques {
            for &(s, e) in d {
                assert!(s < e && e <= 29);
                for slot in &mut seen[s..e] {
                    assert!(!*slot, "cell dealt twice");
                    *slot = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b), "cell never dealt");
    }

    #[test]
    fn stealing_drains_a_lopsided_deal() {
        // All chunks on worker 0; workers 1..3 must steal to get work.
        let deques: Vec<Mutex<VecDeque<Chunk>>> = vec![
            Mutex::new((0..8).map(|c| (c * 4, c * 4 + 4)).collect()),
            Mutex::new(VecDeque::new()),
            Mutex::new(VecDeque::new()),
        ];
        let mut got = [0usize; 3];
        let mut total = 0;
        // Round-robin the pops across workers to interleave thefts.
        let mut stuck = 0;
        while stuck < 3 {
            let w = total % 3;
            if next_chunk(&deques, w).is_some() {
                got[w] += 1;
                stuck = 0;
            } else {
                stuck += 1;
            }
            total += 1;
        }
        assert_eq!(got.iter().sum::<usize>(), 8, "every chunk popped once");
        assert!(got[1] + got[2] > 0, "thieves never got work");
    }

    #[test]
    fn isolated_report_matches_threaded_run() {
        let family = TightFamily::new(3, ResendPolicy::Once);
        let sweep = StealSweep::new(storm_spec(), 4).chunk(2);
        let threaded = sweep.run(&family);
        let report = sweep.run_isolated(&family);
        assert_eq!(threaded.runs, report.outcome.runs);
        assert_eq!(report.worker_busy_secs.len(), 4);
        assert!(report.runs_per_sec() > 0.0);
        assert!(report.critical_path_secs() <= report.wall_secs);
    }

    #[test]
    fn more_workers_than_chunks_still_completes() {
        let family = TightFamily::new(2, ResendPolicy::Once);
        let sweep = StealSweep::new(storm_spec(), 8).chunk(64);
        let outcome = sweep.run(&family);
        let serial = SweepEngine::new(storm_spec()).run_serial(&family);
        assert_eq!(outcome.runs, serial.runs);
    }
}
