//! Fleet observability for the session store: one stats row per shard,
//! stop-free snapshots, and a bound-aware stall watchdog.
//!
//! The sharded [`SessionServer`](crate::sessions::SessionServer) steps
//! over a million concurrent STP sessions, and until this module it ran
//! dark: the probe/trace layers observe *single runs*, not the live
//! fleet. Three pieces fix that:
//!
//! * [`FleetStats`] — every counter, gauge and distribution the fleet
//!   reports, spelled once. Each
//!   [`SessionEngine`](crate::sessions::SessionEngine) keeps its shard's
//!   row (`shard: Some(n)`, `shards: 1`) as plain fields: retirements
//!   and stalls update it in place, every round adds its steps, and the
//!   gauges are filled from the engine's rosters where the row is read —
//!   nothing touches the per-step hot loop. The churn report, the
//!   registry and the dashboard all read that row, so each session event
//!   is counted once.
//! * [`FleetRegistry`] → [`FleetSnapshot`] / [`FleetWatch`] — a
//!   registry holds one [`ShardMetrics`] per shard: the row its engine
//!   last published, under a lock. An engine with a registry attached
//!   publishes its row at the end of every round (one lock, one
//!   allocation-free `clone_from`), and `snapshot()` copies every
//!   shard's row without stopping any stepping loop.
//!   [`FleetSnapshot::stats`] folds the rows with [`FleetStats::merge`]
//!   into the aggregate (`shard: None`), and [`FleetStats::record`]
//!   flattens either into the `{"fleet": …}` line. A watch tick yields a
//!   [`FleetDelta`] holding the previous and the current snapshot; the
//!   `sessions_top` dashboard computes live rates from the two.
//! * The **stall watchdog** ([`WatchdogSpec`]) — the paper's α(m) bound
//!   gives every protocol family a *certified* expectation for how many
//!   steps a healthy session needs ([`healthy_step_bound`]); a session
//!   whose age exceeds a configured multiple of that bound is flagged as
//!   a [`StallRecord`] carrying its full [`SessionSpec`] (family,
//!   input, channel, adversary, seed), so a flagged session can be
//!   replayed through the witness machinery verbatim.
//!
//! [`prometheus_text`] is the one exposition walk: it renders a fleet
//! snapshot and the phase profiler's [`ProfRecord`] as one page through
//! a single family writer. A latency bucket holds `bound[i-1] ≤ v <
//! bound[i]` while Prometheus reads `le` as "≤", so, latencies being
//! whole rounds, bucket `i` is labelled `le = bound[i] − 1` (the first
//! bucket is `le="0"`).
//!
//! A published row is its shard's state at a round boundary, so every
//! snapshot — each shard's row and the aggregate — satisfies the
//! conservation laws
//! `submitted = completed + disconnected + exhausted + active + queued`
//! and `admitted = recycle_hits + recycle_misses`.
//! [`FleetRecord::check_conservation`] checks both, and
//! `validate_telemetry` rejects any `{"fleet": …}` line that breaks them.

use crate::metrics::Histogram;
use crate::prof::{ProfPhase, ProfRecord};
use crate::sessions::SessionSpec;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt::{Display, Write as _};
use std::sync::Arc;
use std::time::Instant;
use stp_core::event::Step;
use stp_protocols::FamilySpec;

/// The NaN-free sentinel every fleet percentile path returns when no
/// sessions have completed yet: latencies are non-negative, so `-1.0`
/// can never be a real quantile, and unlike `NaN` it serializes to valid
/// JSON and compares `==` in tests.
pub const NO_SAMPLES: f64 = -1.0;

/// One shard's slot in a [`FleetRegistry`]: the last [`FleetStats`] row
/// the shard's [`SessionEngine`](crate::sessions::SessionEngine)
/// published, under a lock. The engine publishes at the end of every
/// round, so the row is always the shard's state at a round boundary.
#[derive(Debug)]
pub struct ShardMetrics {
    row: Mutex<FleetStats>,
}

impl ShardMetrics {
    /// A zeroed row for one shard.
    pub fn new(shard: u16) -> ShardMetrics {
        ShardMetrics {
            row: Mutex::new(FleetStats::new(shard)),
        }
    }

    /// Replaces the published row with `row`. The held row keeps its
    /// buffers, so publishing allocates nothing.
    pub fn publish(&self, row: &FleetStats) {
        self.row.lock().clone_from(row);
    }

    /// A copy of the last published row.
    pub fn snapshot(&self) -> FleetStats {
        self.row.lock().clone()
    }
}

/// Point-in-time fleet counters — plain data, so it serializes, diffs
/// and merges without touching the live registry. One shard's row
/// (`shard: Some(n)`, `shards: 1`) and the fleet aggregate (`shard:
/// None`) are the same type: [`merge`](FleetStats::merge) sums counters
/// and the `queued`/`active` gauges, maxes `round` and
/// `oldest_active_age`, and merges the distributions.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// The shard these counters describe; `None` for an aggregate.
    #[serde(default)]
    pub shard: Option<u16>,
    /// Shards aggregated (1 for a shard's row).
    pub shards: usize,
    /// Engine rounds stepped, max across shards.
    pub round: u64,
    /// Sessions submitted.
    pub submitted: u64,
    /// Sessions admitted into slots.
    pub admitted: u64,
    /// Sessions that completed.
    pub completed: u64,
    /// Sessions that walked away.
    pub disconnected: u64,
    /// Sessions that ran out of step budget.
    pub exhausted: u64,
    /// Admissions that reset a pooled world of the session's recipe.
    pub recycle_hits: u64,
    /// Admissions that built a world, the recipe having none idle.
    pub recycle_misses: u64,
    /// Protocol steps executed.
    pub steps: u64,
    /// Sessions the watchdog flagged.
    pub stalls: u64,
    /// Sessions waiting for a slot (gauge, summed across shards).
    pub queued: u64,
    /// Sessions in slots (gauge, summed across shards).
    pub active: u64,
    /// Age in rounds of the oldest active session (gauge, max across
    /// shards; `0` when no session is active).
    pub oldest_active_age: u64,
    /// Submit-to-retire latency of completed sessions, in rounds.
    pub latency: Histogram,
    /// Protocol steps per engine round.
    pub round_cost: Histogram,
}

// Written out so that `clone_from` reuses the target's histogram
// buffers: publishing a row into the registry allocates nothing.
impl Clone for FleetStats {
    fn clone(&self) -> FleetStats {
        FleetStats {
            latency: self.latency.clone(),
            round_cost: self.round_cost.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &FleetStats) {
        let hollow = || Histogram {
            bounds: Vec::new(),
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        };
        let mut latency = std::mem::replace(&mut self.latency, hollow());
        let mut round_cost = std::mem::replace(&mut self.round_cost, hollow());
        latency.clone_from(&source.latency);
        round_cost.clone_from(&source.round_cost);
        *self = FleetStats {
            latency,
            round_cost,
            ..*source
        };
    }
}

impl FleetStats {
    /// A zeroed row for one shard. Latency buckets are one round wide,
    /// so round-valued quantiles are exact up to the overflow bucket;
    /// per-round step costs span orders of magnitude, so their buckets
    /// grow by powers of two.
    pub fn new(shard: u16) -> FleetStats {
        FleetStats {
            shard: Some(shard),
            shards: 1,
            round: 0,
            submitted: 0,
            admitted: 0,
            completed: 0,
            disconnected: 0,
            exhausted: 0,
            recycle_hits: 0,
            recycle_misses: 0,
            steps: 0,
            stalls: 0,
            queued: 0,
            active: 0,
            oldest_active_age: 0,
            latency: Histogram::linear(1.0, 1.0, 256),
            round_cost: Histogram::exponential(1.0, 2.0, 16),
        }
    }

    /// p50 submit-to-retire latency in rounds, [`NO_SAMPLES`] when no
    /// session has completed.
    pub fn p50_latency_rounds(&self) -> f64 {
        guarded_quantile(&self.latency, 0.5)
    }

    /// p99 submit-to-retire latency in rounds, [`NO_SAMPLES`] when no
    /// session has completed — never NaN, never a phantom `0.0` that
    /// reads like a real latency.
    pub fn p99_latency_rounds(&self) -> f64 {
        guarded_quantile(&self.latency, 0.99)
    }

    /// Folds `other` into `self`, which becomes an aggregate (`shard:
    /// None`) over both sides' shards.
    ///
    /// # Panics
    ///
    /// Panics if the two sides' histogram layouts differ.
    pub fn merge(&mut self, other: &FleetStats) {
        self.shard = None;
        self.shards += other.shards;
        self.round = self.round.max(other.round);
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.disconnected += other.disconnected;
        self.exhausted += other.exhausted;
        self.recycle_hits += other.recycle_hits;
        self.recycle_misses += other.recycle_misses;
        self.steps += other.steps;
        self.stalls += other.stalls;
        self.queued += other.queued;
        self.active += other.active;
        self.oldest_active_age = self.oldest_active_age.max(other.oldest_active_age);
        self.latency.merge(&other.latency);
        self.round_cost.merge(&other.round_cost);
    }

    /// Flattens into the `{"fleet": …}` telemetry form.
    pub fn record(&self, experiment: &str) -> FleetRecord {
        FleetRecord {
            experiment: experiment.to_string(),
            shard: self.shard,
            shards: self.shards,
            round: self.round,
            submitted: self.submitted,
            admitted: self.admitted,
            completed: self.completed,
            disconnected: self.disconnected,
            exhausted: self.exhausted,
            recycle_hits: self.recycle_hits,
            recycle_misses: self.recycle_misses,
            steps: self.steps,
            stalls: self.stalls,
            queued: self.queued,
            active: self.active,
            oldest_active_age: self.oldest_active_age,
            p50_latency_rounds: self.p50_latency_rounds(),
            p99_latency_rounds: self.p99_latency_rounds(),
        }
    }
}

// The shared empty-distribution guard behind every fleet percentile
// path (the satellite fix: NaN-free, explicit, testable).
fn guarded_quantile(h: &Histogram, q: f64) -> f64 {
    if h.count == 0 {
        NO_SAMPLES
    } else {
        h.quantile(q)
    }
}

/// A point-in-time copy of the whole fleet: one [`FleetStats`] row per
/// shard, taken without stopping any of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Per-shard rows, indexed by shard.
    pub shards: Vec<FleetStats>,
}

impl FleetSnapshot {
    /// The fleet aggregate: every shard's row folded with
    /// [`FleetStats::merge`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is empty (a registry always has ≥ 1
    /// shard).
    pub fn stats(&self) -> FleetStats {
        let (first, rest) = self
            .shards
            .split_first()
            .expect("a fleet has at least one shard");
        let first = FleetStats {
            shard: None,
            ..first.clone()
        };
        rest.iter().fold(first, |mut stats, s| {
            stats.merge(s);
            stats
        })
    }
}

/// One `{"fleet": …}` telemetry line: a flattened shard snapshot
/// (`shard` set) or fleet aggregate (`shard` absent). Percentile fields
/// carry the [`NO_SAMPLES`] sentinel while nothing has completed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRecord {
    /// Which harness produced this line; empty when untagged.
    #[serde(default)]
    pub experiment: String,
    /// The shard this line describes; `None` for the fleet aggregate.
    #[serde(default)]
    pub shard: Option<u16>,
    /// Shards aggregated (1 for a per-shard line).
    pub shards: usize,
    /// Engine rounds (max across aggregated shards).
    pub round: u64,
    /// Sessions submitted.
    pub submitted: u64,
    /// Sessions admitted into slots.
    pub admitted: u64,
    /// Sessions that completed.
    pub completed: u64,
    /// Sessions that walked away.
    pub disconnected: u64,
    /// Sessions that ran out of step budget.
    pub exhausted: u64,
    /// Admissions that reset a pooled world of the session's recipe.
    pub recycle_hits: u64,
    /// Admissions that built a world, the recipe having none idle.
    pub recycle_misses: u64,
    /// Protocol steps executed.
    pub steps: u64,
    /// Sessions the watchdog flagged.
    pub stalls: u64,
    /// Sessions waiting for slots.
    pub queued: u64,
    /// Sessions in slots.
    pub active: u64,
    /// Oldest active session's age in rounds.
    pub oldest_active_age: u64,
    /// p50 submit-to-retire latency in rounds ([`NO_SAMPLES`] when no
    /// completions).
    pub p50_latency_rounds: f64,
    /// p99 submit-to-retire latency in rounds ([`NO_SAMPLES`] when no
    /// completions).
    pub p99_latency_rounds: f64,
}

impl FleetRecord {
    /// Checks the two fleet conservation laws, which every row published
    /// at a round boundary (and every aggregate of such rows) satisfies:
    /// `submitted = completed + disconnected + exhausted + active +
    /// queued` and `admitted = recycle_hits + recycle_misses`. The error
    /// names the broken law and the line's figures.
    pub fn check_conservation(&self) -> Result<(), String> {
        let sum = |xs: &[u64]| xs.iter().map(|&x| u128::from(x)).sum::<u128>();
        let parts = [
            self.completed,
            self.disconnected,
            self.exhausted,
            self.active,
            self.queued,
        ];
        if u128::from(self.submitted) != sum(&parts) {
            let [c, d, e, a, q] = parts;
            return Err(format!(
                "breaks submitted = completed + disconnected + exhausted + active + queued \
                 ({} != {c} + {d} + {e} + {a} + {q})",
                self.submitted
            ));
        }
        if u128::from(self.admitted) != sum(&[self.recycle_hits, self.recycle_misses]) {
            return Err(format!(
                "breaks admitted = recycle_hits + recycle_misses ({} != {} + {})",
                self.admitted, self.recycle_hits, self.recycle_misses
            ));
        }
        Ok(())
    }
}

/// The shared handle over every shard's [`ShardMetrics`]. Clones are
/// cheap (`Arc`s), so the registry travels into shard threads while the
/// dashboard keeps its own handle to sample from.
#[derive(Debug, Clone)]
pub struct FleetRegistry {
    shards: Vec<Arc<ShardMetrics>>,
}

impl FleetRegistry {
    /// A registry for `shards` shards, all metrics zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u16) -> FleetRegistry {
        assert!(shards > 0, "a fleet needs at least one shard");
        FleetRegistry {
            shards: (0..shards)
                .map(|s| Arc::new(ShardMetrics::new(s)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The metrics handle of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: u16) -> Arc<ShardMetrics> {
        Arc::clone(&self.shards[shard as usize])
    }

    /// A copy of every shard's last published row, each read under its
    /// own shard's lock; no stepping loop stops for it.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            shards: self.shards.iter().map(|m| m.snapshot()).collect(),
        }
    }

    /// A delta-tracking view starting from the current state.
    pub fn watch(&self) -> FleetWatch {
        FleetWatch {
            registry: self.clone(),
            last: self.snapshot(),
            last_at: Instant::now(),
        }
    }
}

/// What the fleet did between two watch ticks: the wall-clock window
/// and the snapshots it starts and ends at, so a dashboard renders
/// gauges and rates from one tick.
#[derive(Debug, Clone)]
pub struct FleetDelta {
    /// Wall-clock seconds since the previous tick.
    pub secs: f64,
    /// The snapshot this delta starts at.
    pub prev: FleetSnapshot,
    /// The snapshot this delta ends at.
    pub snapshot: FleetSnapshot,
}

impl FleetDelta {
    /// Completed sessions per second over the window, on one shard or
    /// fleet-wide (`None`); `0.0` for a zero-width window.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn sessions_per_sec(&self, shard: Option<u16>) -> f64 {
        if self.secs <= 0.0 {
            return 0.0;
        }
        let completed = |s: &FleetSnapshot| match shard {
            Some(i) => s.shards[usize::from(i)].completed,
            None => s.shards.iter().map(|s| s.completed).sum(),
        };
        completed(&self.snapshot).saturating_sub(completed(&self.prev)) as f64 / self.secs
    }
}

/// Tracks consecutive snapshots of a [`FleetRegistry`]; each
/// [`tick`](FleetWatch::tick) yields the [`FleetDelta`] since the last.
#[derive(Debug)]
pub struct FleetWatch {
    registry: FleetRegistry,
    last: FleetSnapshot,
    last_at: Instant,
}

impl FleetWatch {
    /// Takes a fresh snapshot and returns the delta since the previous
    /// tick (or since the watch was created).
    pub fn tick(&mut self) -> FleetDelta {
        let now = Instant::now();
        let snapshot = self.registry.snapshot();
        let prev = std::mem::replace(&mut self.last, snapshot.clone());
        let secs = now.duration_since(self.last_at).as_secs_f64();
        self.last_at = now;
        FleetDelta {
            secs,
            prev,
            snapshot,
        }
    }
}

/// Stall-watchdog configuration: a session is flagged when its age (in
/// engine rounds since admission) exceeds
/// `max(min_rounds, ⌈multiplier · healthy_step_bound / quantum⌉)` — a
/// configurable multiple of its protocol's *certified* expected cost
/// ([`healthy_step_bound`]), translated from steps to rounds by the
/// engine's quantum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatchdogSpec {
    /// Slack multiplier over the healthy step bound. The default (8×)
    /// keeps clean churn grids at zero false positives: observed p99
    /// latency is ~5 rounds while the smallest default threshold is 16.
    #[serde(default = "default_multiplier")]
    pub multiplier: f64,
    /// Floor on the threshold in rounds, so tiny inputs (whose bound is
    /// a handful of steps) are not flagged on scheduling jitter.
    #[serde(default = "default_min_rounds")]
    pub min_rounds: u64,
}

fn default_multiplier() -> f64 {
    8.0
}

fn default_min_rounds() -> u64 {
    16
}

impl Default for WatchdogSpec {
    fn default() -> Self {
        WatchdogSpec {
            multiplier: default_multiplier(),
            min_rounds: default_min_rounds(),
        }
    }
}

impl WatchdogSpec {
    /// The flagging threshold in engine rounds for a session whose
    /// healthy cost is `expected_steps`, under a `quantum`-step round.
    pub fn threshold_rounds(&self, expected_steps: u64, quantum: u32) -> u64 {
        let rounds = (self.multiplier * expected_steps as f64 / f64::from(quantum.max(1))).ceil();
        (rounds as u64).max(self.min_rounds)
    }
}

/// The certified expectation for how many protocol steps a *healthy*
/// session of this family needs on an input of `input_len` items — the
/// theory-grounded baseline the watchdog multiplies.
///
/// Derivation: the receiver must single out the input among at most
/// `α(m)` claimed sequences ([`stp_core::alpha::alpha`]); the tight
/// protocol's knowledge frontier collapses to the exact input after at
/// most `input_len + 1` *productive* S→R deliveries (one per item plus
/// the end-marker round — the same per-item collapse the
/// [`Frontier`](../../stp_knowledge/frontier/index.html) fold tracks),
/// each acknowledged R→S. On a healthy channel a send becomes
/// deliverable the next step, so one productive exchange costs at most
/// four steps (S send, deliver-to-R, R ack send, deliver-to-S); the
/// constant `+4` absorbs `Init` and the final completion check. ABP and
/// the naive variant pipeline the same per-item exchange, so they share
/// the bound. The self-stabilizing family pays an extra RESET preamble
/// of up to `2·max_len` steps before its indexed-frame exchange, and
/// its end-of-frame round trips cost six steps in the worst interleaving
/// — hence the larger constants.
pub fn healthy_step_bound(family: &FamilySpec, input_len: usize) -> u64 {
    let len = input_len as u64;
    match family {
        FamilySpec::Tight { .. } | FamilySpec::Naive { .. } | FamilySpec::Abp { .. } => {
            4 * (len + 1) + 4
        }
        FamilySpec::Stabilizing { max_len, .. } => 6 * (len + 2) + 2 * u64::from(*max_len),
    }
}

/// One watchdog flag: a session whose age exceeded its threshold. The
/// embedded [`SessionSpec`] (family, input, channel, scheduler, seed,
/// budgets) is complete provenance — `spec.build_world()` replays the
/// exact session through the single-world path and the witness
/// machinery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StallRecord {
    /// Which harness produced this line; empty when untagged.
    #[serde(default)]
    pub experiment: String,
    /// The shard the session is running on.
    pub shard: u16,
    /// The session's per-shard serial ([`SessionId::serial`](crate::sessions::SessionId::serial)).
    pub serial: u64,
    /// The engine round the flag was raised on.
    pub round: u64,
    /// The session's age in rounds since admission when flagged.
    pub age_rounds: u64,
    /// The threshold it exceeded, in rounds.
    pub threshold_rounds: u64,
    /// The healthy step bound the threshold was derived from.
    pub expected_steps: u64,
    /// Protocol steps the session had executed when flagged.
    pub steps: Step,
    /// Full session provenance: replay with
    /// [`SessionSpec::build_world`].
    pub spec: SessionSpec,
}

/// Renders a fleet snapshot and a profiler report as one page in the
/// Prometheus text exposition format (version 0.0.4): per-shard counters
/// and gauges labelled `{shard="N"}`, the fleet-wide latency
/// distribution as a cumulative `_bucket`/`_sum`/`_count` histogram,
/// then the profiler's per-phase `stp_prof_*` families labelled
/// `{workload="W",phase="P"}` and its whole-run window/busy counters.
///
/// Latency bucket `i` holds `bound[i-1] ≤ v < bound[i]`; latencies are
/// whole rounds, so it is labelled `le = bound[i] − 1` (Prometheus reads
/// `le` as "≤"). Quantile gauges are omitted for phases still at
/// [`NO_SAMPLES`] — the sentinel never appears as a `-1` sample — and a
/// family without samples is left out.
pub fn prometheus_text(snapshot: &FleetSnapshot, prof: &ProfRecord) -> String {
    // One family: name, help text, field accessor.
    type Row<T> = (&'static str, &'static str, fn(&T) -> u64);
    let counters: [Row<FleetStats>; 9] = [
        (
            "stp_sessions_submitted_total",
            "Sessions submitted to the shard.",
            |s| s.submitted,
        ),
        (
            "stp_sessions_admitted_total",
            "Sessions admitted into slots.",
            |s| s.admitted,
        ),
        (
            "stp_sessions_completed_total",
            "Sessions that completed their transmission.",
            |s| s.completed,
        ),
        (
            "stp_sessions_disconnected_total",
            "Sessions that walked away.",
            |s| s.disconnected,
        ),
        (
            "stp_sessions_exhausted_total",
            "Sessions that ran out of step budget.",
            |s| s.exhausted,
        ),
        (
            "stp_slot_recycle_hits_total",
            "Admissions that reset a pooled world.",
            |s| s.recycle_hits,
        ),
        (
            "stp_slot_recycle_misses_total",
            "Admissions that built a world.",
            |s| s.recycle_misses,
        ),
        (
            "stp_protocol_steps_total",
            "Protocol steps executed by the shard.",
            |s| s.steps,
        ),
        (
            "stp_sessions_stalled_total",
            "Sessions flagged by the stall watchdog.",
            |s| s.stalls,
        ),
    ];
    let gauges: [Row<FleetStats>; 4] = [
        (
            "stp_engine_round",
            "Engine rounds stepped by the shard.",
            |s| s.round,
        ),
        ("stp_sessions_queued", "Sessions waiting for a slot.", |s| {
            s.queued
        }),
        ("stp_sessions_active", "Sessions in slots.", |s| s.active),
        (
            "stp_oldest_active_age_rounds",
            "Age in rounds of the oldest active session.",
            |s| s.oldest_active_age,
        ),
    ];
    let phases: [Row<ProfPhase>; 4] = [
        (
            "stp_prof_phase_ns_total",
            "Nanoseconds attributed to the phase.",
            |p| p.total_ns,
        ),
        (
            "stp_prof_phase_calls_total",
            "Times the phase was entered.",
            |p| p.calls,
        ),
        (
            "stp_prof_phase_allocs_total",
            "Heap allocations charged to the phase.",
            |p| p.allocs,
        ),
        (
            "stp_prof_phase_alloc_bytes_total",
            "Bytes requested by allocations charged to the phase.",
            |p| p.alloc_bytes,
        ),
    ];

    let mut out = String::new();
    for (kind, rows) in [("counter", &counters[..]), ("gauge", &gauges[..])] {
        for &(name, help, get) in rows {
            let samples = snapshot
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| (format!("{{shard=\"{i}\"}}"), get(s)));
            family(&mut out, name, kind, help, samples);
        }
    }
    let latency = snapshot.stats().latency;
    let mut cumulative = 0u64;
    let buckets = latency
        .bounds
        .iter()
        .zip(&latency.counts)
        .map(|(bound, n)| {
            cumulative += n;
            (format!("_bucket{{le=\"{}\"}}", bound - 1.0), cumulative)
        });
    let totals = [
        ("_bucket{le=\"+Inf\"}".to_string(), latency.count),
        // Latency samples are whole rounds, so the sum is one too.
        ("_sum".to_string(), latency.sum as u64),
        ("_count".to_string(), latency.count),
    ];
    family(
        &mut out,
        "stp_session_latency_rounds",
        "histogram",
        "Submit-to-retire latency of completed sessions, in engine rounds.",
        buckets.chain(totals),
    );

    let phase_label =
        |p: &ProfPhase| format!("{{workload=\"{}\",phase=\"{}\"}}", prof.workload, p.phase);
    for (name, help, get) in phases {
        let samples = prof.phases.iter().map(|p| (phase_label(p), get(p)));
        family(&mut out, name, "counter", help, samples);
    }
    let p99 = prof
        .phases
        .iter()
        .filter(|p| p.p99_window_ns != NO_SAMPLES)
        .map(|p| (phase_label(p), p.p99_window_ns));
    family(
        &mut out,
        "stp_prof_window_p99_ns",
        "gauge",
        "99th-percentile profiled-window nanoseconds.",
        p99,
    );
    let run_label = format!("{{workload=\"{}\"}}", prof.workload);
    family(
        &mut out,
        "stp_prof_windows_total",
        "counter",
        "Profiled windows flushed.",
        [(run_label.clone(), prof.windows)],
    );
    family(
        &mut out,
        "stp_prof_busy_ns_total",
        "counter",
        "Measured busy nanoseconds (sum of window spans).",
        [(run_label, prof.busy_ns)],
    );
    out
}

// One metric family: its `# HELP` and `# TYPE` lines, then one
// `{name}{series} {value}` line per sample, where `series` is the name
// suffix and label set. A family without samples is left out.
fn family<V: Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    samples: impl IntoIterator<Item = (String, V)>,
) {
    let mut samples = samples.into_iter().peekable();
    if samples.peek().is_none() {
        return;
    }
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (series, value) in samples {
        let _ = writeln!(out, "{name}{series} {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_protocols::ResendPolicy;

    // A row for `shard` whose completed sessions took `latencies` rounds.
    fn row(shard: u16, latencies: &[u64]) -> FleetStats {
        let mut row = FleetStats::new(shard);
        for &l in latencies {
            row.completed += 1;
            row.latency.record(l as f64);
        }
        row
    }

    #[test]
    fn shard_metrics_round_trip_into_a_snapshot() {
        let m = ShardMetrics::new(3);
        assert_eq!(m.snapshot(), FleetStats::new(3));
        let mut published = FleetStats {
            submitted: 2,
            admitted: 2,
            recycle_hits: 1,
            recycle_misses: 1,
            disconnected: 1,
            stalls: 1,
            round: 5,
            active: 0,
            oldest_active_age: 2,
            steps: 16,
            ..row(3, &[4])
        };
        published.round_cost.record(16.0);
        let buckets = m.row.lock().latency.counts.as_ptr();
        m.publish(&published);
        let s = m.snapshot();
        assert_eq!(s, published);
        assert_eq!(s.shard, Some(3));
        assert_eq!(s.shards, 1);
        assert_eq!(s.latency.count, 1);
        assert_eq!(s.round_cost.count, 1);
        assert_eq!(s.p50_latency_rounds(), 4.0);
        assert_eq!(
            m.row.lock().latency.counts.as_ptr(),
            buckets,
            "publishing reuses the held row's buckets"
        );
    }

    #[test]
    fn p99_is_the_no_samples_sentinel_with_zero_completed_sessions() {
        // The regression the satellite fix pins: an idle fleet must
        // report an explicit sentinel, not NaN and not a phantom 0.0.
        let registry = FleetRegistry::new(2);
        let stats = registry.snapshot().stats();
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.p99_latency_rounds(), NO_SAMPLES);
        assert_eq!(stats.p50_latency_rounds(), NO_SAMPLES);
        assert!(!stats.p99_latency_rounds().is_nan());
        let shard = &registry.snapshot().shards[0];
        assert_eq!(shard.p99_latency_rounds(), NO_SAMPLES);
        // The telemetry form carries the sentinel through serialization.
        let record = stats.record("t");
        let json = serde_json::to_string(&record).unwrap();
        assert!(!json.contains("NaN"), "{json}");
        assert_eq!(record.p99_latency_rounds, NO_SAMPLES);
        // One completion flips both percentiles to real values.
        registry.shard(0).publish(&row(0, &[3]));
        let stats = registry.snapshot().stats();
        assert_eq!(stats.p99_latency_rounds(), 3.0);
    }

    #[test]
    fn fleet_stats_aggregate_sums_maxes_and_merges() {
        let registry = FleetRegistry::new(2);
        let mut zero = FleetStats {
            submitted: 1,
            round: 4,
            queued: 1,
            active: 1,
            oldest_active_age: 9,
            steps: 8,
            ..row(0, &[2])
        };
        zero.round_cost.record(8.0);
        registry.shard(0).publish(&zero);
        // Shard 1 moves every counter, so a field `merge` forgot to
        // fold would read as shard 0's value.
        let mut one = FleetStats {
            submitted: 2,
            admitted: 1,
            recycle_hits: 1,
            disconnected: 1,
            exhausted: 1,
            stalls: 1,
            round: 7,
            queued: 2,
            active: 2,
            oldest_active_age: 3,
            steps: 24,
            ..row(1, &[6])
        };
        one.round_cost.record(24.0);
        registry.shard(1).publish(&one);
        let snap = registry.snapshot();
        let stats = snap.stats();
        assert_eq!(stats.shard, None, "the aggregate describes no one shard");
        assert_eq!(snap.shards[1].shard, Some(1));
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.recycle_hits, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.disconnected, 1);
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.stalls, 1);
        assert_eq!(stats.round, 7, "rounds max across shards");
        assert_eq!(stats.oldest_active_age, 9, "age maxes across shards");
        assert_eq!(stats.queued, 3);
        assert_eq!(stats.active, 3);
        assert_eq!(stats.steps, 32);
        assert_eq!(stats.latency.count, 2, "latency merges across shards");
        assert_eq!(stats.latency.min, 2.0);
        assert_eq!(stats.latency.max, 6.0);
        assert_eq!(stats.round_cost.count, 2);
        // The aggregate's line differs from a lone row's only in `shard`.
        let solo = FleetRegistry::new(1).snapshot();
        let row = solo.shards[0].record("t");
        assert_eq!(FleetRecord { shard: None, ..row }, solo.stats().record("t"));
    }

    #[test]
    fn watch_ticks_yield_deltas_between_snapshots() {
        let registry = FleetRegistry::new(2);
        let mut watch = registry.watch();
        registry.shard(0).publish(&FleetStats {
            round: 1,
            steps: 10,
            ..row(0, &[1])
        });
        registry.shard(1).publish(&FleetStats {
            round: 1,
            steps: 6,
            ..FleetStats::new(1)
        });
        let d = watch.tick();
        assert_eq!(d.prev.stats().completed, 0);
        assert_eq!(d.snapshot.stats().completed, 1);
        assert_eq!(d.snapshot.stats().steps, 16);
        assert_eq!(d.snapshot.shards[0].round, 1);
        assert!(d.secs >= 0.0);
        // Rates come from the two snapshots.
        let window = FleetDelta { secs: 0.5, ..d };
        assert_eq!(window.sessions_per_sec(None), 2.0);
        assert_eq!(window.sessions_per_sec(Some(0)), 2.0);
        assert_eq!(window.sessions_per_sec(Some(1)), 0.0);
        let empty = FleetDelta {
            secs: 0.0,
            ..window.clone()
        };
        assert_eq!(empty.sessions_per_sec(None), 0.0, "zero-width window");
        // The next tick starts from the new baseline.
        let d = watch.tick();
        assert_eq!(d.prev, window.snapshot);
        assert_eq!(d.prev, d.snapshot);
        assert_eq!(d.sessions_per_sec(None), 0.0);
    }

    #[test]
    fn conservation_check_names_the_broken_law() {
        let ok = FleetStats {
            submitted: 6,
            admitted: 4,
            recycle_hits: 1,
            recycle_misses: 3,
            disconnected: 1,
            exhausted: 1,
            active: 1,
            queued: 1,
            ..row(2, &[1, 5])
        };
        assert_eq!(ok.record("t").check_conservation(), Ok(()));
        let lost = FleetStats {
            submitted: 7,
            ..ok.clone()
        };
        let err = lost.record("t").check_conservation().unwrap_err();
        assert!(err.contains("submitted = completed"), "{err}");
        assert!(err.contains("7 != 2 + 1 + 1 + 1 + 1"), "{err}");
        let miscounted = FleetStats {
            recycle_hits: 2,
            ..ok
        };
        let err = miscounted.record("t").check_conservation().unwrap_err();
        assert!(err.contains("admitted = recycle_hits + recycle_misses (4 != 2 + 3)"));
        // Figures near `u64::MAX` do not overflow the sums.
        let huge = FleetRecord {
            submitted: 1,
            completed: u64::MAX,
            disconnected: u64::MAX,
            ..FleetStats::new(0).record("t")
        };
        assert!(huge.check_conservation().is_err());
    }

    #[test]
    fn watchdog_threshold_respects_floor_and_scales_with_bound() {
        let w = WatchdogSpec::default();
        // Tiny bound: the floor wins.
        assert_eq!(w.threshold_rounds(4, 8), w.min_rounds);
        // Large bound: multiplier · steps / quantum, rounded up.
        assert_eq!(w.threshold_rounds(100, 8), 100);
        let tight = WatchdogSpec {
            multiplier: 2.0,
            min_rounds: 1,
        };
        assert_eq!(tight.threshold_rounds(9, 8), 3, "ceil(18/8) = 3");
        // Quantum 0 is clamped rather than dividing by zero.
        assert!(tight.threshold_rounds(9, 0) >= 1);
    }

    #[test]
    fn healthy_step_bound_grows_with_input_and_family() {
        let tight = FamilySpec::Tight {
            d: 3,
            policy: ResendPolicy::Once,
        };
        assert_eq!(healthy_step_bound(&tight, 0), 8);
        assert_eq!(healthy_step_bound(&tight, 3), 20);
        assert!(healthy_step_bound(&tight, 4) > healthy_step_bound(&tight, 3));
        let abp = FamilySpec::Abp {
            domain: 2,
            max_len: 3,
        };
        assert_eq!(healthy_step_bound(&abp, 3), healthy_step_bound(&tight, 3));
        let stab = FamilySpec::Stabilizing { d: 2, max_len: 4 };
        assert!(
            healthy_step_bound(&stab, 3) > healthy_step_bound(&tight, 3),
            "stabilizing pays its RESET preamble"
        );
    }

    #[test]
    fn snapshots_serialize_and_round_trip() {
        let registry = FleetRegistry::new(2);
        registry.shard(0).publish(&FleetStats {
            submitted: 1,
            ..row(0, &[2])
        });
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: FleetSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let stats = snap.stats();
        let json = serde_json::to_string(&stats).unwrap();
        let back: FleetStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn prometheus_text_exposes_counters_gauges_and_the_histogram() {
        let registry = FleetRegistry::new(2);
        registry.shard(0).publish(&FleetStats {
            submitted: 1,
            admitted: 1,
            recycle_misses: 1,
            ..row(0, &[3])
        });
        registry.shard(1).publish(&FleetStats {
            round: 2,
            queued: 5,
            active: 1,
            oldest_active_age: 4,
            steps: 16,
            ..FleetStats::new(1)
        });
        let text = prometheus_text(&registry.snapshot(), &fixed_prof());
        assert!(text.contains("# TYPE stp_sessions_submitted_total counter"));
        assert!(text.contains("stp_sessions_submitted_total{shard=\"0\"} 1"));
        assert!(text.contains("stp_sessions_submitted_total{shard=\"1\"} 0"));
        assert!(text.contains("# TYPE stp_sessions_queued gauge"));
        assert!(text.contains("stp_sessions_queued{shard=\"1\"} 5"));
        assert!(text.contains("# TYPE stp_session_latency_rounds histogram"));
        assert!(text.contains("stp_session_latency_rounds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("stp_session_latency_rounds_count 1"));
        assert!(text.contains("# TYPE stp_prof_phase_ns_total counter"));
        // Cumulative buckets: every line ≤ the +Inf count, none absent.
        let buckets: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("stp_session_latency_rounds_bucket"))
            .collect();
        assert_eq!(buckets.len(), 257, "256 edges + +Inf");
    }

    #[test]
    fn prometheus_le_labels_are_inclusive_upper_edges() {
        // A latency of 3 rounds lands in the bucket [3, 4); Prometheus
        // reads `le` as "≤", so that bucket is `le="3"` and the one
        // before it (`le="2"`) must not count the sample.
        let registry = FleetRegistry::new(1);
        registry.shard(0).publish(&row(0, &[3]));
        let text = prometheus_text(&registry.snapshot(), &fixed_prof());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"stp_session_latency_rounds_bucket{le=\"3\"} 1"));
        assert!(lines.contains(&"stp_session_latency_rounds_bucket{le=\"2\"} 0"));
        assert!(lines.contains(&"stp_session_latency_rounds_bucket{le=\"0\"} 0"));
        assert!(lines.contains(&"stp_session_latency_rounds_bucket{le=\"255\"} 1"));
    }

    // A profiler report with one sampled phase and one alloc-only phase
    // whose quantiles are still the NO_SAMPLES sentinel.
    fn fixed_prof() -> ProfRecord {
        let phase = |phase: &str, calls, total_ns, p99_window_ns, allocs| ProfPhase {
            phase: phase.to_string(),
            calls,
            windows: calls,
            total_ns,
            share: 0.0,
            p50_window_ns: p99_window_ns,
            p99_window_ns,
            allocs,
            alloc_bytes: allocs * 32,
        };
        ProfRecord {
            experiment: "golden".to_string(),
            workload: "churn".to_string(),
            period: 1,
            windows: 4,
            busy_ns: 2_048,
            attributed_ns: 2_048,
            coverage: 1.0,
            alloc_metered: true,
            allocs_total: 3,
            alloc_bytes_total: 96,
            phases: vec![
                phase("sender_step", 4, 2_048, 1_024.0, 0),
                phase("retire", 0, 0, NO_SAMPLES, 3),
            ],
        }
    }

    #[test]
    fn prometheus_page_matches_the_golden_page() {
        // A fixed registry and a fixed profiler report. The golden page
        // is the page the two former exposition functions wrote for the
        // same inputs, with each latency bucket's `le` moved to its
        // inclusive edge.
        let registry = FleetRegistry::new(2);
        registry.shard(0).publish(&FleetStats {
            submitted: 3,
            admitted: 2,
            recycle_hits: 1,
            recycle_misses: 1,
            disconnected: 1,
            exhausted: 1,
            stalls: 1,
            round: 5,
            queued: 1,
            active: 1,
            oldest_active_age: 2,
            steps: 16,
            ..row(0, &[0, 3, 300])
        });
        registry.shard(1).publish(&FleetStats {
            submitted: 1,
            round: 2,
            queued: 5,
            active: 1,
            oldest_active_age: 4,
            steps: 16,
            ..FleetStats::new(1)
        });
        let page = prometheus_text(&registry.snapshot(), &fixed_prof());
        assert_eq!(page, include_str!("../tests/data/prometheus_page.txt"));
    }
}
