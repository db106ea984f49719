//! Phase-scoped hot-path profiler: attributes engine busy time to named
//! phases (scheduler decision, per-channel-kind delivery/expiry, sender
//! step, receiver step, probe dispatch, telemetry sink, …) with
//! monotonic scoped timers, and meters allocations per phase when the
//! counting allocator from the `stp-prof` crate is installed.
//!
//! # Design
//!
//! The hot path — the step kernel that `World::step` and the session
//! store share — runs in ~tens of nanoseconds; a [`std::time::Instant`]
//! read costs about half that, so timing every phase of every step
//! would multiply the cost of the thing being measured. The profiler therefore *samples*: every
//! [`period`](PhaseProfiler::period)-th unit of work (a run-ahead chunk
//! in the session engine, a whole run in the sweep engine) becomes a
//! **window**. Inside a window a `ProfObs` takes one timestamp per
//! phase *boundary* — consecutive marks, so `N` phases cost `N + 1`
//! clock reads, not `2N` — and accumulates per-phase nanoseconds in
//! plain thread-local arrays. When the window closes, the tallies are
//! flushed into per-phase [`AtomicHistogram`]s (the PR 8 fleet layout:
//! exponential power-of-two edges, relaxed atomics, snapshot-merge
//! semantics) exactly once. Unsampled work runs the byte-identical
//! unprofiled code path, so profiling changes *observed* time only, not
//! behaviour — result digests with profiling on equal digests with it
//! off (see `tests/prof_parity.rs`).
//!
//! Allocation metering is opt-in at link time: the `stp-prof` crate's
//! `CountingAlloc` global allocator calls [`note_alloc`] on every
//! allocation, which charges the current thread's active phase (set by
//! the scoped timers while a window is open, [`Phase::COUNT`]
//! otherwise — the "unattributed" slot). Without that allocator
//! installed, [`note_alloc`] is never called and every alloc figure
//! reports zero with [`ProfRecord::alloc_metered`] false.
//!
//! Everything here is observation: no profiler state feeds back into
//! scheduling, delivery, or protocol decisions.

use crate::fleet::{AtomicHistogram, NO_SAMPLES};
use crate::metrics::Histogram;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use stp_channel::ChannelSpec;

/// An engine phase the profiler can charge time (and allocations) to.
///
/// The taxonomy follows the structure of the step kernel that
/// [`World::step`](crate::world::World::step) and the session store share:
/// scheduler decision, channel work split by kind and by direction of
/// cost (delivery vs expiry), the two protocol half-steps, then the
/// engine-side phases that only some drivers have (probe dispatch,
/// admission, retirement, telemetry). `Bookkeeping` absorbs everything
/// between named regions — loop control, scratch clears, step counters —
/// so a window's phase nanoseconds always sum to the window span and
/// coverage is checkable rather than assumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Scheduler `note_progress` + `decide`.
    SchedulerDecide,
    /// Delivery-side channel work on a [`ChannelSpec::Dup`] channel:
    /// deletions, corruptions, dequeues, and send enqueues.
    DeliverDup,
    /// Delivery-side channel work on a [`ChannelSpec::Del`] channel.
    DeliverDel,
    /// Delivery-side channel work on a [`ChannelSpec::Fifo`] channel.
    DeliverFifo,
    /// Delivery-side channel work on a [`ChannelSpec::LossyFifo`] channel.
    DeliverLossyFifo,
    /// Delivery-side channel work on a [`ChannelSpec::Perfect`] channel.
    DeliverPerfect,
    /// Delivery-side channel work on a [`ChannelSpec::Timed`] channel.
    DeliverTimed,
    /// Sender automaton: event construction and `on_event`, plus input
    /// tape reads.
    SenderStep,
    /// Receiver automaton: event construction and `on_event`, plus
    /// output tape writes.
    ReceiverStep,
    /// Expiry-side channel work on a [`ChannelSpec::Dup`] channel:
    /// `tick`, `take_expirations`, and expiry recording.
    ExpireDup,
    /// Expiry-side channel work on a [`ChannelSpec::Del`] channel.
    ExpireDel,
    /// Expiry-side channel work on a [`ChannelSpec::Fifo`] channel.
    ExpireFifo,
    /// Expiry-side channel work on a [`ChannelSpec::LossyFifo`] channel.
    ExpireLossyFifo,
    /// Expiry-side channel work on a [`ChannelSpec::Perfect`] channel.
    ExpirePerfect,
    /// Expiry-side channel work on a [`ChannelSpec::Timed`] channel.
    ExpireTimed,
    /// Probe fan-out at the end of a [`World`](crate::world::World) step.
    ProbeDispatch,
    /// Session-engine admission: draining the submit queue into free
    /// slots at the top of a round.
    Admission,
    /// Session-engine retirement: recycling a finished slot's columns.
    Retire,
    /// Telemetry sink writes (JSONL emission) timed via
    /// [`PhaseProfiler::time`].
    TelemetrySink,
    /// Everything between named regions: loop control, scratch clears,
    /// step counters, completion checks.
    Bookkeeping,
}

impl Phase {
    /// Number of phases; also the "unattributed" allocation slot index.
    pub const COUNT: usize = 20;

    /// Every phase, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::SchedulerDecide,
        Phase::DeliverDup,
        Phase::DeliverDel,
        Phase::DeliverFifo,
        Phase::DeliverLossyFifo,
        Phase::DeliverPerfect,
        Phase::DeliverTimed,
        Phase::SenderStep,
        Phase::ReceiverStep,
        Phase::ExpireDup,
        Phase::ExpireDel,
        Phase::ExpireFifo,
        Phase::ExpireLossyFifo,
        Phase::ExpirePerfect,
        Phase::ExpireTimed,
        Phase::ProbeDispatch,
        Phase::Admission,
        Phase::Retire,
        Phase::TelemetrySink,
        Phase::Bookkeeping,
    ];

    /// Stable snake_case name, used in telemetry, folded stacks, and
    /// Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SchedulerDecide => "scheduler_decide",
            Phase::DeliverDup => "deliver_dup",
            Phase::DeliverDel => "deliver_del",
            Phase::DeliverFifo => "deliver_fifo",
            Phase::DeliverLossyFifo => "deliver_lossy_fifo",
            Phase::DeliverPerfect => "deliver_perfect",
            Phase::DeliverTimed => "deliver_timed",
            Phase::SenderStep => "sender_step",
            Phase::ReceiverStep => "receiver_step",
            Phase::ExpireDup => "expire_dup",
            Phase::ExpireDel => "expire_del",
            Phase::ExpireFifo => "expire_fifo",
            Phase::ExpireLossyFifo => "expire_lossy_fifo",
            Phase::ExpirePerfect => "expire_perfect",
            Phase::ExpireTimed => "expire_timed",
            Phase::ProbeDispatch => "probe_dispatch",
            Phase::Admission => "admission",
            Phase::Retire => "retire",
            Phase::TelemetrySink => "telemetry_sink",
            Phase::Bookkeeping => "bookkeeping",
        }
    }

    /// Dense index into per-phase arrays (`0..COUNT`).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The delivery-side phase for a channel kind.
pub fn delivery_phase(spec: &ChannelSpec) -> Phase {
    match spec {
        ChannelSpec::Dup => Phase::DeliverDup,
        ChannelSpec::Del => Phase::DeliverDel,
        ChannelSpec::Fifo => Phase::DeliverFifo,
        ChannelSpec::LossyFifo => Phase::DeliverLossyFifo,
        ChannelSpec::Perfect => Phase::DeliverPerfect,
        ChannelSpec::Timed { .. } => Phase::DeliverTimed,
    }
}

/// The expiry-side phase for a channel kind.
pub fn expiry_phase(spec: &ChannelSpec) -> Phase {
    match spec {
        ChannelSpec::Dup => Phase::ExpireDup,
        ChannelSpec::Del => Phase::ExpireDel,
        ChannelSpec::Fifo => Phase::ExpireFifo,
        ChannelSpec::LossyFifo => Phase::ExpireLossyFifo,
        ChannelSpec::Perfect => Phase::ExpirePerfect,
        ChannelSpec::Timed { .. } => Phase::ExpireTimed,
    }
}

// ---------------------------------------------------------------------
// Allocation metering.
//
// The counting global allocator (crates/prof) calls `note_alloc` from
// inside `GlobalAlloc::alloc`; these statics and the thread-local are
// therefore the only state it touches, and `note_alloc` must never
// allocate. One extra slot past `Phase::COUNT` collects allocations made
// while no profiling window is open on the calling thread.

const ALLOC_SLOTS: usize = Phase::COUNT + 1;

/// Slot charged when no phase is active on the calling thread.
const UNATTRIBUTED: usize = Phase::COUNT;

static ALLOC_CALLS: [AtomicU64; ALLOC_SLOTS] = [const { AtomicU64::new(0) }; ALLOC_SLOTS];
static ALLOC_BYTES: [AtomicU64; ALLOC_SLOTS] = [const { AtomicU64::new(0) }; ALLOC_SLOTS];

thread_local! {
    static CURRENT_PHASE: Cell<usize> = const { Cell::new(UNATTRIBUTED) };
}

/// Records one heap allocation of `bytes` against the calling thread's
/// active phase (the unattributed slot when no window is open).
///
/// Called by the `stp-prof` counting global allocator; **must not
/// allocate** (it runs inside `GlobalAlloc::alloc`).
#[inline]
pub fn note_alloc(bytes: usize) {
    let slot = CURRENT_PHASE.with(Cell::get);
    ALLOC_CALLS[slot].fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES[slot].fetch_add(bytes as u64, Ordering::Relaxed);
}

fn alloc_totals() -> ([u64; ALLOC_SLOTS], [u64; ALLOC_SLOTS]) {
    let mut calls = [0u64; ALLOC_SLOTS];
    let mut bytes = [0u64; ALLOC_SLOTS];
    for i in 0..ALLOC_SLOTS {
        calls[i] = ALLOC_CALLS[i].load(Ordering::Relaxed);
        bytes[i] = ALLOC_BYTES[i].load(Ordering::Relaxed);
    }
    (calls, bytes)
}

// ---------------------------------------------------------------------
// The profiler proper.

/// Aggregated phase timings for one profiled workload: per-phase
/// [`AtomicHistogram`]s of window nanoseconds plus exact totals, shared
/// across worker threads behind an `Arc` and drained into a
/// [`ProfRecord`] by [`report`](PhaseProfiler::report).
///
/// All counters use relaxed atomics — the profiler is telemetry, not
/// synchronization.
#[derive(Debug)]
pub struct PhaseProfiler {
    period: u64,
    hists: Vec<AtomicHistogram>,
    total_ns: Vec<AtomicU64>,
    calls: Vec<AtomicU64>,
    busy_ns: AtomicU64,
    windows: AtomicU64,
    alloc_base_calls: [u64; ALLOC_SLOTS],
    alloc_base_bytes: [u64; ALLOC_SLOTS],
}

impl PhaseProfiler {
    /// Default sampling period: one window per 128 units of work keeps
    /// the measured overhead on the ~40 ns step hot path well under the
    /// 5% `PROF_BUDGET` CI gate.
    pub const DEFAULT_PERIOD: u64 = 128;

    /// Creates a profiler sampling every `period`-th unit of work
    /// (`period = 1` profiles everything).
    ///
    /// Allocation counters are global; the constructor snapshots them so
    /// the report only shows allocations made after this profiler was
    /// created.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64) -> PhaseProfiler {
        assert!(period > 0, "sampling period must be at least 1");
        let (alloc_base_calls, alloc_base_bytes) = alloc_totals();
        PhaseProfiler {
            period,
            hists: (0..Phase::COUNT)
                // Window nanoseconds: power-of-two edges from 16 ns to
                // ~34 s cover one sampled run-ahead chunk up to a whole
                // profiled sweep run.
                .map(|_| AtomicHistogram::new(Histogram::exponential(16.0, 2.0, 32).bounds))
                .collect(),
            total_ns: (0..Phase::COUNT).map(|_| AtomicU64::new(0)).collect(),
            calls: (0..Phase::COUNT).map(|_| AtomicU64::new(0)).collect(),
            busy_ns: AtomicU64::new(0),
            windows: AtomicU64::new(0),
            alloc_base_calls,
            alloc_base_bytes,
        }
    }

    /// The sampling period this profiler was created with.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Whether the `tick`-th unit of work should be a profiled window.
    #[inline]
    pub fn sample(&self, tick: u64) -> bool {
        tick.is_multiple_of(self.period)
    }

    /// Times `f` as one standalone window attributed entirely to
    /// `phase` — the coarse-grained entry point for phases outside the
    /// step loop (telemetry sinks, admission drains, retirement).
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let prev = CURRENT_PHASE.with(|c| c.replace(phase.index()));
        let out = f();
        CURRENT_PHASE.with(|c| c.set(prev));
        let ns = start.elapsed().as_nanos() as u64;
        let i = phase.index();
        self.hists[i].record(ns);
        self.total_ns[i].fetch_add(ns, Ordering::Relaxed);
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.windows.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn flush(&self, ns: &[u64; Phase::COUNT], hits: &[u64; Phase::COUNT], window_ns: u64) {
        for i in 0..Phase::COUNT {
            if hits[i] > 0 || ns[i] > 0 {
                self.hists[i].record(ns[i]);
                self.total_ns[i].fetch_add(ns[i], Ordering::Relaxed);
                self.calls[i].fetch_add(hits[i], Ordering::Relaxed);
            }
        }
        self.busy_ns.fetch_add(window_ns, Ordering::Relaxed);
        self.windows.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains the profiler into a serializable [`ProfRecord`] tagged
    /// with the experiment and workload names. Non-destructive: counters
    /// keep accumulating and a later report includes earlier windows.
    pub fn report(&self, experiment: &str, workload: &str) -> ProfRecord {
        let (alloc_calls_now, alloc_bytes_now) = alloc_totals();
        let busy_ns = self.busy_ns.load(Ordering::Relaxed);
        let mut attributed_ns = 0u64;
        let mut phases = Vec::new();
        let mut allocs_total = 0u64;
        let mut alloc_bytes_total = 0u64;
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let total = self.total_ns[i].load(Ordering::Relaxed);
            let calls = self.calls[i].load(Ordering::Relaxed);
            let allocs = alloc_calls_now[i].saturating_sub(self.alloc_base_calls[i]);
            let alloc_bytes = alloc_bytes_now[i].saturating_sub(self.alloc_base_bytes[i]);
            attributed_ns += total;
            allocs_total += allocs;
            alloc_bytes_total += alloc_bytes;
            if total == 0 && calls == 0 && allocs == 0 {
                continue;
            }
            let hist = self.hists[i].snapshot();
            let (p50, p99) = if hist.count == 0 {
                (NO_SAMPLES, NO_SAMPLES)
            } else {
                (hist.quantile(0.50), hist.quantile(0.99))
            };
            phases.push(ProfPhase {
                phase: phase.name().to_string(),
                calls,
                windows: hist.count,
                total_ns: total,
                share: if busy_ns == 0 {
                    0.0
                } else {
                    total as f64 / busy_ns as f64
                },
                p50_window_ns: p50,
                p99_window_ns: p99,
                allocs,
                alloc_bytes,
            });
        }
        // The unattributed slot counts toward run totals but has no
        // named phase row.
        allocs_total +=
            alloc_calls_now[UNATTRIBUTED].saturating_sub(self.alloc_base_calls[UNATTRIBUTED]);
        alloc_bytes_total +=
            alloc_bytes_now[UNATTRIBUTED].saturating_sub(self.alloc_base_bytes[UNATTRIBUTED]);
        phases.sort_by_key(|p| std::cmp::Reverse(p.total_ns));
        ProfRecord {
            experiment: experiment.to_string(),
            workload: workload.to_string(),
            period: self.period,
            windows: self.windows.load(Ordering::Relaxed),
            busy_ns,
            attributed_ns,
            coverage: if busy_ns == 0 {
                NO_SAMPLES
            } else {
                attributed_ns as f64 / busy_ns as f64
            },
            alloc_metered: allocs_total > 0,
            allocs_total,
            alloc_bytes_total,
            phases,
        }
    }
}

impl Default for PhaseProfiler {
    fn default() -> PhaseProfiler {
        PhaseProfiler::new(PhaseProfiler::DEFAULT_PERIOD)
    }
}

// ---------------------------------------------------------------------
// The per-window observer.

/// The zero-cost hook the step kernel calls at phase boundaries:
/// [`NoObs`] compiles marks away entirely (the unprofiled hot path),
/// [`ProfObs`] timestamps them (one sampled window).
pub(crate) trait StepObs {
    /// Close the current phase at "now" and enter `next`.
    fn mark(&mut self, next: Phase);
}

/// The no-op observer: monomorphizes every `mark` to nothing, so the
/// unprofiled step path is byte-identical to the pre-profiler code.
pub(crate) struct NoObs;

impl StepObs for NoObs {
    #[inline(always)]
    fn mark(&mut self, _next: Phase) {}
}

/// One open profiling window: consecutive boundary timestamps
/// accumulating per-phase nanoseconds in plain arrays, flushed into the
/// shared [`PhaseProfiler`] exactly once by [`finish`](ProfObs::finish).
pub(crate) struct ProfObs {
    start: Instant,
    last: Instant,
    current: usize,
    ns: [u64; Phase::COUNT],
    hits: [u64; Phase::COUNT],
}

impl ProfObs {
    /// Opens a window; time before the first mark is `Bookkeeping`.
    pub(crate) fn begin() -> ProfObs {
        let now = Instant::now();
        CURRENT_PHASE.with(|c| c.set(Phase::Bookkeeping.index()));
        let mut hits = [0u64; Phase::COUNT];
        hits[Phase::Bookkeeping.index()] = 1;
        ProfObs {
            start: now,
            last: now,
            current: Phase::Bookkeeping.index(),
            ns: [0; Phase::COUNT],
            hits,
        }
    }

    /// Closes the window and flushes the tallies into `prof`.
    pub(crate) fn finish(mut self, prof: &PhaseProfiler) {
        let now = Instant::now();
        self.ns[self.current] += (now - self.last).as_nanos() as u64;
        let window_ns = (now - self.start).as_nanos() as u64;
        CURRENT_PHASE.with(|c| c.set(UNATTRIBUTED));
        prof.flush(&self.ns, &self.hits, window_ns);
    }
}

impl StepObs for ProfObs {
    #[inline]
    fn mark(&mut self, next: Phase) {
        let now = Instant::now();
        self.ns[self.current] += (now - self.last).as_nanos() as u64;
        self.last = now;
        self.current = next.index();
        self.hits[self.current] += 1;
        CURRENT_PHASE.with(|c| c.set(self.current));
    }
}

// ---------------------------------------------------------------------
// Wire form and exports.

/// One named phase's share of a [`ProfRecord`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfPhase {
    /// Stable snake_case phase name ([`Phase::name`]).
    pub phase: String,
    /// Times the phase was entered across all windows.
    pub calls: u64,
    /// Windows in which the phase appeared (histogram sample count).
    pub windows: u64,
    /// Total nanoseconds attributed to the phase.
    pub total_ns: u64,
    /// `total_ns / busy_ns` — fraction of measured busy time.
    pub share: f64,
    /// Median per-window nanoseconds, [`NO_SAMPLES`] when unobserved.
    pub p50_window_ns: f64,
    /// 99th-percentile per-window nanoseconds, [`NO_SAMPLES`] when
    /// unobserved.
    pub p99_window_ns: f64,
    /// Heap allocations charged to the phase (0 unless the counting
    /// allocator is installed).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// The self-describing profiler report: the payload of a `{"prof": …}`
/// telemetry line and the input to the folded-stack and Prometheus
/// ([`prometheus_text`](crate::fleet::prometheus_text)) exports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfRecord {
    /// Experiment / binary that produced the record.
    pub experiment: String,
    /// Workload label (e.g. `e1_grid`, `churn`).
    pub workload: String,
    /// Sampling period (1 = every unit of work profiled).
    pub period: u64,
    /// Profiled windows flushed.
    pub windows: u64,
    /// Total measured busy nanoseconds (sum of window spans).
    pub busy_ns: u64,
    /// Nanoseconds attributed to named phases.
    pub attributed_ns: u64,
    /// `attributed_ns / busy_ns`; [`NO_SAMPLES`] before any window
    /// closes. By construction ≈ 1.0 — the acceptance gate checks
    /// ≥ 0.95 so an uninstrumented early-exit path cannot silently
    /// leak time.
    pub coverage: f64,
    /// Whether the counting allocator was live (any allocation seen).
    pub alloc_metered: bool,
    /// Total allocations during the profiled run, incl. unattributed.
    pub allocs_total: u64,
    /// Total bytes requested, incl. unattributed.
    pub alloc_bytes_total: u64,
    /// Per-phase rows, sorted by descending `total_ns`; phases that
    /// never ran are omitted.
    pub phases: Vec<ProfPhase>,
}

/// Renders a record as folded stacks — one `stp;{workload};{phase}
/// {nanoseconds}` line per phase — the input format of
/// `inferno-flamegraph` / `flamegraph.pl`.
pub fn folded(record: &ProfRecord) -> String {
    let mut out = String::new();
    for p in &record.phases {
        if p.total_ns == 0 {
            continue;
        }
        out.push_str(&format!(
            "stp;{};{} {}\n",
            record.workload, p.phase, p.total_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn phase_names_are_unique_snake_case_and_dense() {
        let mut seen = HashSet::new();
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "ALL must be in discriminant order");
            assert!(seen.insert(p.name()), "duplicate phase name {}", p.name());
            assert!(
                p.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "phase name {} is not snake_case",
                p.name()
            );
        }
        assert_eq!(seen.len(), Phase::COUNT);
    }

    #[test]
    fn channel_kinds_map_to_distinct_phases() {
        let specs = [
            ChannelSpec::Dup,
            ChannelSpec::Del,
            ChannelSpec::Fifo,
            ChannelSpec::LossyFifo,
            ChannelSpec::Perfect,
            ChannelSpec::Timed { deadline: 4 },
        ];
        let deliver: HashSet<Phase> = specs.iter().map(delivery_phase).collect();
        let expire: HashSet<Phase> = specs.iter().map(expiry_phase).collect();
        assert_eq!(deliver.len(), specs.len());
        assert_eq!(expire.len(), specs.len());
        assert!(deliver.is_disjoint(&expire));
    }

    #[test]
    fn observer_window_attributes_all_time() {
        let prof = PhaseProfiler::new(1);
        let mut obs = ProfObs::begin();
        obs.mark(Phase::SchedulerDecide);
        obs.mark(Phase::SenderStep);
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.mark(Phase::Bookkeeping);
        obs.finish(&prof);

        let rec = prof.report("test", "unit");
        assert_eq!(rec.windows, 1);
        assert!(rec.busy_ns > 0);
        assert_eq!(rec.attributed_ns, rec.busy_ns, "marks are consecutive");
        assert!((rec.coverage - 1.0).abs() < 1e-9);
        let sender = rec
            .phases
            .iter()
            .find(|p| p.phase == "sender_step")
            .expect("sender_step row");
        assert!(sender.total_ns >= 1_000_000, "sleep lands in sender_step");
        assert!(sender.share > 0.5);
        assert_eq!(sender.calls, 1);
    }

    #[test]
    fn time_records_standalone_window_and_alloc_attribution() {
        let prof = PhaseProfiler::new(1);
        let out = prof.time(Phase::TelemetrySink, || {
            // Stand in for the counting allocator: charge the active
            // phase directly.
            note_alloc(4096);
            7
        });
        assert_eq!(out, 7);
        let rec = prof.report("test", "unit");
        let sink = rec
            .phases
            .iter()
            .find(|p| p.phase == "telemetry_sink")
            .expect("telemetry_sink row");
        assert_eq!(sink.calls, 1);
        assert!(sink.allocs >= 1);
        assert!(sink.alloc_bytes >= 4096);
        assert!(rec.alloc_metered);
        assert!(rec.allocs_total >= 1);
    }

    #[test]
    fn report_is_empty_and_guarded_before_any_window() {
        let prof = PhaseProfiler::new(8);
        let rec = prof.report("test", "unit");
        assert_eq!(rec.windows, 0);
        assert_eq!(rec.busy_ns, 0);
        assert_eq!(rec.coverage, NO_SAMPLES);
        assert!(rec.phases.iter().all(|p| p.allocs > 0), "only alloc rows");
    }

    #[test]
    fn sampling_period_selects_every_nth_tick() {
        let prof = PhaseProfiler::new(4);
        let sampled: Vec<u64> = (0..12).filter(|&t| prof.sample(t)).collect();
        assert_eq!(sampled, vec![0, 4, 8]);
        assert!(PhaseProfiler::new(1).sample(3), "period 1 profiles all");
    }

    #[test]
    #[should_panic(expected = "sampling period")]
    fn zero_period_panics() {
        let _ = PhaseProfiler::new(0);
    }

    #[test]
    fn record_round_trips_through_json() {
        let prof = PhaseProfiler::new(1);
        prof.time(Phase::Admission, || std::hint::black_box(3));
        let rec = prof.report("round_trip", "unit");
        let json = serde_json::to_string(&rec).expect("serialize");
        let back: ProfRecord = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, rec);
    }

    #[test]
    fn folded_lines_are_flamegraph_shaped() {
        let prof = PhaseProfiler::new(1);
        prof.time(Phase::SenderStep, || std::hint::black_box(1));
        prof.time(Phase::ReceiverStep, || std::hint::black_box(2));
        let rec = prof.report("test", "wl");
        let text = folded(&rec);
        assert!(!text.is_empty());
        for line in text.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack count");
            assert!(count.parse::<u64>().is_ok(), "count is integer: {line}");
            let frames: Vec<&str> = stack.split(';').collect();
            assert_eq!(frames[0], "stp");
            assert_eq!(frames[1], "wl");
            assert_eq!(frames.len(), 3);
        }
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let prof = PhaseProfiler::new(1);
        prof.time(Phase::SenderStep, || std::hint::black_box(1));
        let mut rec = prof.report("test", "wl");
        // Force an alloc-only row (NO_SAMPLES quantiles) to prove the
        // sentinel is filtered, not printed.
        rec.phases.push(ProfPhase {
            phase: "retire".to_string(),
            calls: 0,
            windows: 0,
            total_ns: 0,
            share: 0.0,
            p50_window_ns: NO_SAMPLES,
            p99_window_ns: NO_SAMPLES,
            allocs: 3,
            alloc_bytes: 96,
        });
        let fleet = crate::fleet::FleetRegistry::new(1).snapshot();
        let text = crate::fleet::prometheus_text(&fleet, &rec);
        assert!(text.ends_with('\n'), "exposition ends with newline");
        let mut helps = HashSet::new();
        let mut types = HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(helps.insert(name.to_string()), "duplicate HELP {name}");
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                assert!(types.insert(name.to_string()), "duplicate TYPE {name}");
            } else {
                let (_series, value) = line.rsplit_once(' ').expect("series value");
                let v: f64 = value.parse().expect("numeric sample");
                assert!(v != NO_SAMPLES, "NO_SAMPLES leaked: {line}");
            }
        }
        assert_eq!(helps, types, "every HELP has a TYPE");
    }
}
