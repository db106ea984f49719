//! Run statistics — trace-derived or streamed — and their sweep-wide
//! aggregation.
//!
//! Three layers, cheapest first:
//!
//! * [`MetricsProbe`] computes a [`RunStats`] *online* from the event
//!   stream (attach it to a `World`); no trace needs to exist. A `World`
//!   already keeps the same counters in every `TraceMode`
//!   (`World::stats`), which is where sweep cells take theirs from; the
//!   probe is the independent streaming derivation.
//! * [`RunStats::of`] derives the same statistics from a materialized
//!   `Trace` in a single pass — the two agree field-for-field on any run.
//! * [`SweepReport`] folds many `RunStats` into sweep-wide distributions
//!   ([`Histogram`]s of steps-to-complete, sends per item, drops, and
//!   per-item write latency), the raw material of the protocol-cost
//!   experiments.

use serde::{Deserialize, Serialize};
use stp_core::data::DataSeq;
use stp_core::event::{Event, Probe, Step, Trace};

/// Aggregate statistics of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Global steps executed.
    pub steps: Step,
    /// Messages sent by `S` (with multiplicity).
    pub sends_s: usize,
    /// Messages sent by `R`.
    pub sends_r: usize,
    /// Deliveries to `R`.
    pub deliveries_r: usize,
    /// Deliveries to `S`.
    pub deliveries_s: usize,
    /// Copies destroyed in transit: adversarial deletions (`ChannelDrop`)
    /// plus channel-initiated TTL expiries (`ChannelExpire`), so drop
    /// counts are comparable between deleting and timed channels.
    pub drops: usize,
    /// Items written by `R`.
    pub written: usize,
    /// Items on the input tape.
    pub input_len: usize,
    /// Whether safety held throughout.
    pub safe: bool,
    /// Step at which each output item was written.
    pub write_steps: Vec<Step>,
}

impl RunStats {
    /// The statistics of a run on an `input_len`-item input that has not
    /// taken a step yet.
    pub fn empty(input_len: usize) -> RunStats {
        RunStats {
            steps: 0,
            sends_s: 0,
            sends_r: 0,
            deliveries_r: 0,
            deliveries_s: 0,
            drops: 0,
            written: 0,
            input_len,
            safe: true,
            write_steps: Vec::new(),
        }
    }

    // Rewinds to `RunStats::empty(input_len)`, keeping the write-step
    // buffer's capacity for the next run.
    pub(crate) fn reset(&mut self, input_len: usize) {
        let mut write_steps = std::mem::take(&mut self.write_steps);
        write_steps.clear();
        *self = RunStats {
            write_steps,
            ..RunStats::empty(input_len)
        };
    }

    /// Computes the statistics of `trace` in a single pass over its
    /// events, folding each with [`RunStats::record`].
    pub fn of(trace: &Trace) -> RunStats {
        let input = trace.input();
        let mut s = RunStats {
            steps: trace.steps(),
            ..RunStats::empty(input.len())
        };
        for e in trace.events() {
            s.record(e.step, &e.event, input);
        }
        s
    }

    /// Folds one event of a run on `input` into the statistics: the
    /// per-event step of [`RunStats::of`] and [`MetricsProbe`]. `steps`
    /// is left alone, since a step can pass without an event.
    ///
    /// Safety follows the rule of
    /// [`check_safety`](stp_core::require::check_safety): writes must land
    /// at consecutive positions `0, 1, 2, …` and each written item must
    /// equal the input item at its position. Once violated, `safe` stays
    /// `false`.
    pub fn record(&mut self, step: Step, event: &Event, input: &DataSeq) {
        match *event {
            Event::SendS { .. } => self.sends_s += 1,
            Event::SendR { .. } => self.sends_r += 1,
            Event::DeliverToR { .. } => self.deliveries_r += 1,
            Event::DeliverToS { .. } => self.deliveries_s += 1,
            Event::ChannelDrop { .. } | Event::ChannelExpire { .. } => self.drops += 1,
            Event::Write { item, pos } => {
                self.safe &= pos == self.written && input.get(pos) == Some(item);
                self.write_steps.push(step);
                self.written += 1;
            }
            // Corruption strikes are adversary bookkeeping, not
            // message traffic — nothing to count here.
            Event::Read { .. } | Event::Corruption { .. } => {}
        }
    }

    /// Whether the run delivered the whole input safely.
    pub fn is_complete(&self) -> bool {
        self.safe && self.written >= self.input_len
    }

    /// Total messages sent by both processors.
    pub fn total_sends(&self) -> usize {
        self.sends_s + self.sends_r
    }

    /// Messages sent per delivered item — the paper-era cost metric
    /// ("optimizing the number of messages"). `None` when nothing was
    /// written.
    pub fn sends_per_item(&self) -> Option<f64> {
        if self.written == 0 {
            None
        } else {
            Some(self.total_sends() as f64 / self.written as f64)
        }
    }

    /// Steps between consecutive writes (first entry is the step of the
    /// first write): the per-item learning latency profile.
    pub fn inter_write_gaps(&self) -> Vec<Step> {
        self.gaps().collect()
    }

    /// The largest inter-write gap, a proxy for the protocol's worst-case
    /// per-item latency in this run.
    pub fn max_gap(&self) -> Option<Step> {
        self.gaps().max()
    }

    fn gaps(&self) -> impl Iterator<Item = Step> + '_ {
        let prev = std::iter::once(0).chain(self.write_steps.iter().copied());
        self.write_steps.iter().zip(prev).map(|(&s, p)| s - p)
    }
}

/// A [`Probe`] that computes [`RunStats`] online from the event stream —
/// no trace, and no allocation per event (the write-step buffer grows
/// amortized and keeps its capacity across pooled resets).
///
/// Attach one via `WorldBuilder::probe`; after the run, recover it with
/// `World::probe_of::<MetricsProbe>()` and call [`MetricsProbe::stats`].
/// It folds each event with [`RunStats::record`], so the result is
/// field-for-field identical to [`RunStats::of`] on a `TraceMode::Full`
/// trace of the same run.
#[derive(Debug, Clone)]
pub struct MetricsProbe {
    input: DataSeq,
    stats: RunStats,
}

impl MetricsProbe {
    /// Creates a probe with empty counters (equivalent to the state after
    /// `on_run_start` with an empty input).
    pub fn new() -> Self {
        MetricsProbe {
            input: DataSeq::new(),
            stats: RunStats::empty(0),
        }
    }

    /// The statistics accumulated since the last `on_run_start`.
    pub fn stats(&self) -> RunStats {
        self.stats.clone()
    }
}

impl Default for MetricsProbe {
    fn default() -> Self {
        MetricsProbe::new()
    }
}

impl Probe for MetricsProbe {
    fn on_run_start(&mut self, input: &DataSeq) {
        self.input.clone_from(input);
        self.stats.reset(input.len());
    }

    fn on_event(&mut self, step: Step, event: &Event) {
        self.stats.record(step, event, &self.input);
    }

    fn on_step_end(&mut self, step: Step) {
        self.stats.steps = step + 1;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A fixed-bucket histogram over `f64` samples.
///
/// `bounds` are the (strictly increasing) upper bucket edges; a sample
/// `v` lands in the first bucket whose bound satisfies `v < bound`, and
/// samples at or above the last bound land in the overflow bucket, so
/// there are `bounds.len() + 1` counters. Bucket layout is fixed at
/// construction — recording never allocates — and two histograms with the
/// same layout can be [`merge`](Histogram::merge)d, which is how
/// per-worker reports combine.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Upper bucket edges, strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts; `counts[bounds.len()]` is the overflow.
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample, `0.0` while empty (never NaN, so the histogram
    /// always serializes to valid JSON).
    pub min: f64,
    /// Largest sample, `0.0` while empty.
    pub max: f64,
}

// Written out so that `clone_from` reuses the target's bucket vectors:
// a shard publishing its fleet row every round allocates nothing.
impl Clone for Histogram {
    fn clone(&self) -> Histogram {
        Histogram {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Histogram) {
        self.bounds.clone_from(&source.bounds);
        self.counts.clone_from(&source.counts);
        self.count = source.count;
        self.sum = source.sum;
        self.min = source.min;
        self.max = source.max;
    }
}

impl Histogram {
    /// Creates a histogram with the given upper bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// `n` buckets with edges `start, start+width, …` (plus overflow).
    pub fn linear(start: f64, width: f64, n: usize) -> Self {
        assert!(width > 0.0, "bucket width must be positive");
        Histogram::new((0..n).map(|i| start + width * i as f64).collect())
    }

    /// `n` buckets with edges `start, start·factor, start·factor², …`
    /// (plus overflow) — the right shape for step counts that span orders
    /// of magnitude.
    pub fn exponential(start: f64, factor: f64, n: usize) -> Self {
        assert!(start > 0.0 && factor > 1.0, "need start > 0, factor > 1");
        let mut edge = start;
        Histogram::new(
            (0..n)
                .map(|_| {
                    let e = edge;
                    edge *= factor;
                    e
                })
                .collect(),
        )
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b <= v);
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Folds `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the bucket layouts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram layouts must match");
        if other.count == 0 {
            return;
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean of all samples, `0.0` while empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-resolution estimate of the `q`-quantile (`0 < q ≤ 1`): the
    /// upper edge of the bucket holding the `⌈q·count⌉`-th smallest
    /// sample, clamped to the observed `[min, max]`. `0.0` while empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge = self.bounds.get(i).copied().unwrap_or(self.max);
                return edge.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Sweep-wide aggregation of per-run statistics: scalar totals plus
/// fixed-bucket distributions of the four quantities the experiments
/// care about.
///
/// Build one with [`SweepReport::new`] and feed it runs via
/// [`observe`](SweepReport::observe);
/// [`SweepOutcome::report`](crate::runner::SweepOutcome::report) folds a
/// sweep's runs this way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Runs observed.
    pub runs: usize,
    /// Runs that delivered the whole input safely.
    pub complete: usize,
    /// Runs where safety was violated.
    pub unsafe_runs: usize,
    /// Total global steps across all runs.
    pub total_steps: u64,
    /// Total messages sent (both processors) across all runs.
    pub total_sends: u64,
    /// Total in-transit losses (deletions + expiries) across all runs.
    pub total_drops: u64,
    /// Total items written across all runs.
    pub total_written: u64,
    /// Steps-to-complete distribution (complete runs only).
    pub steps_to_complete: Histogram,
    /// Sends-per-delivered-item distribution (runs that wrote anything).
    pub sends_per_item: Histogram,
    /// Per-run drop-count distribution (all runs).
    pub drop_counts: Histogram,
    /// Per-item write latency: every inter-write gap of every run.
    pub write_gaps: Histogram,
}

impl SweepReport {
    /// An empty report with the standard bucket layout: exponential
    /// buckets for steps and gaps (they span orders of magnitude), linear
    /// buckets for the bounded sends-per-item ratio.
    pub fn new() -> Self {
        SweepReport {
            runs: 0,
            complete: 0,
            unsafe_runs: 0,
            total_steps: 0,
            total_sends: 0,
            total_drops: 0,
            total_written: 0,
            steps_to_complete: Histogram::exponential(1.0, 2.0, 16),
            sends_per_item: Histogram::linear(1.0, 0.5, 16),
            drop_counts: Histogram::exponential(1.0, 2.0, 12),
            write_gaps: Histogram::exponential(1.0, 2.0, 12),
        }
    }

    /// Folds one run into the report.
    pub fn observe(&mut self, stats: &RunStats) {
        self.runs += 1;
        if stats.is_complete() {
            self.complete += 1;
            self.steps_to_complete.record(stats.steps as f64);
        }
        if !stats.safe {
            self.unsafe_runs += 1;
        }
        self.total_steps += stats.steps;
        self.total_sends += stats.total_sends() as u64;
        self.total_drops += stats.drops as u64;
        self.total_written += stats.written as u64;
        if let Some(spi) = stats.sends_per_item() {
            self.sends_per_item.record(spi);
        }
        self.drop_counts.record(stats.drops as f64);
        for g in stats.gaps() {
            self.write_gaps.record(g as f64);
        }
    }
}

impl Default for SweepReport {
    fn default() -> Self {
        SweepReport::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_core::alphabet::{RMsg, SMsg};
    use stp_core::data::{DataItem, DataSeq};
    use stp_core::event::ProcessId;

    fn sample() -> Trace {
        let mut t = Trace::new(DataSeq::from_indices([1, 0]));
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
        t.record(
            2,
            Event::ChannelDrop {
                to: ProcessId::Sender,
                msg: 0,
            },
        );
        t.record(3, Event::SendS { msg: SMsg(0) });
        t.record(5, Event::DeliverToR { msg: SMsg(0) });
        t.record(
            5,
            Event::Write {
                item: DataItem(0),
                pos: 1,
            },
        );
        t.set_steps(6);
        t
    }

    #[test]
    fn counts_are_extracted() {
        let s = RunStats::of(&sample());
        assert_eq!(s.steps, 6);
        assert_eq!(s.sends_s, 2);
        assert_eq!(s.sends_r, 1);
        assert_eq!(s.deliveries_r, 2);
        assert_eq!(s.deliveries_s, 0);
        assert_eq!(s.drops, 1);
        assert_eq!(s.written, 2);
        assert!(s.safe);
        assert!(s.is_complete());
    }

    #[test]
    fn cost_metrics() {
        let s = RunStats::of(&sample());
        assert_eq!(s.total_sends(), 3);
        assert_eq!(s.sends_per_item(), Some(1.5));
        assert_eq!(s.write_steps, vec![1, 5]);
        assert_eq!(s.inter_write_gaps(), vec![1, 4]);
        assert_eq!(s.max_gap(), Some(4));
    }

    #[test]
    fn empty_run_has_no_rate() {
        let t = Trace::new(DataSeq::from_indices([1]));
        let s = RunStats::of(&t);
        assert_eq!(s.sends_per_item(), None);
        assert_eq!(s.max_gap(), None);
        assert!(!s.is_complete());
    }

    #[test]
    fn unsafe_runs_are_flagged() {
        let mut t = Trace::new(DataSeq::from_indices([1]));
        t.record(
            0,
            Event::Write {
                item: DataItem(0),
                pos: 0,
            },
        );
        let s = RunStats::of(&t);
        assert!(!s.safe);
        assert!(!s.is_complete());
    }

    #[test]
    fn expiries_count_as_drops() {
        let mut t = sample();
        t.record(
            5,
            Event::ChannelExpire {
                to: ProcessId::Receiver,
                msg: 1,
            },
        );
        let s = RunStats::of(&t);
        assert_eq!(s.drops, 2, "ChannelDrop + ChannelExpire both count");
    }

    #[test]
    fn out_of_order_positions_are_unsafe() {
        let mut t = Trace::new(DataSeq::from_indices([1, 0]));
        t.record(
            0,
            Event::Write {
                item: DataItem(0),
                pos: 1,
            },
        );
        assert!(!RunStats::of(&t).safe);
    }

    #[test]
    fn probe_matches_trace_derived_stats() {
        let trace = sample();
        let mut p = MetricsProbe::new();
        p.on_run_start(trace.input());
        let mut last = 0;
        for e in trace.events() {
            while last < e.step {
                p.on_step_end(last);
                last += 1;
            }
            p.on_event(e.step, &e.event);
        }
        while last < trace.steps() {
            p.on_step_end(last);
            last += 1;
        }
        assert_eq!(p.stats(), RunStats::of(&trace));
    }

    #[test]
    fn probe_resets_cleanly_between_runs() {
        let input = DataSeq::from_indices([2]);
        let mut p = MetricsProbe::new();
        p.on_run_start(&input);
        p.on_event(0, &Event::SendS { msg: SMsg(2) });
        p.on_event(
            0,
            &Event::Write {
                item: DataItem(9),
                pos: 0,
            },
        );
        p.on_step_end(0);
        assert!(!p.stats().safe);
        p.on_run_start(&input);
        let s = p.stats();
        assert_eq!(s.steps, 0);
        assert_eq!(s.sends_s, 0);
        assert_eq!(s.written, 0);
        assert!(s.safe, "reset restores the safe flag");
        assert!(s.write_steps.is_empty());
    }

    #[test]
    fn histogram_buckets_and_summary() {
        let mut h = Histogram::linear(1.0, 1.0, 3); // edges 1, 2, 3
        for v in [0.5, 1.0, 1.5, 2.5, 10.0] {
            h.record(v);
        }
        assert_eq!(h.counts, vec![1, 2, 1, 1]);
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 10.0);
        assert!((h.mean() - 3.1).abs() < 1e-9);
        assert_eq!(h.quantile(0.2), 1.0);
        assert_eq!(h.quantile(1.0), 10.0);
    }

    #[test]
    fn empty_histogram_has_finite_summary() {
        let h = Histogram::exponential(1.0, 2.0, 4);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 0.0);
        // No NaN anywhere: the serialized form must be valid JSON.
        let json = serde_json::to_string(&h).unwrap();
        assert!(!json.contains("NaN"));
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn histogram_merge_is_union() {
        let mut a = Histogram::linear(1.0, 1.0, 3);
        let mut b = Histogram::linear(1.0, 1.0, 3);
        a.record(0.5);
        b.record(7.0);
        let mut empty_then_b = Histogram::linear(1.0, 1.0, 3);
        empty_then_b.merge(&b);
        assert_eq!(empty_then_b.min, 7.0);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.min, 0.5);
        assert_eq!(a.max, 7.0);
        a.merge(&Histogram::linear(1.0, 1.0, 3)); // merging empty is a no-op
        assert_eq!(a.count, 2);
    }

    #[test]
    #[should_panic(expected = "layouts")]
    fn histogram_merge_rejects_mismatched_layouts() {
        let mut a = Histogram::linear(1.0, 1.0, 3);
        a.merge(&Histogram::linear(1.0, 2.0, 3));
    }

    #[test]
    fn single_bucket_histogram_quantiles_clamp_to_samples() {
        // One bound: everything below it in bucket 0, everything else in
        // overflow. Quantiles must stay inside [min, max] either way.
        let mut h = Histogram::new(vec![10.0]);
        h.record(3.0);
        assert_eq!(h.quantile(0.0), 3.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 3.0);
        h.record(7.0);
        // Bucket resolution: both samples share the one bucket, so any
        // quantile reports that bucket's edge clamped to the observed
        // range — never outside [min, max].
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert!((3.0..=7.0).contains(&h.quantile(q)), "q={q}");
        }
    }

    #[test]
    fn overflow_only_histogram_quantiles_stay_in_sample_range() {
        // Every sample lands past the last edge: the quantile walk ends
        // in the overflow bucket, whose "edge" is the recorded max.
        let mut h = Histogram::linear(1.0, 1.0, 4);
        h.record(100.0);
        h.record(250.0);
        h.record(9_000.0);
        assert_eq!(h.counts[4], 3, "all three in the overflow bucket");
        let p99 = h.quantile(0.99);
        assert!((100.0..=9_000.0).contains(&p99), "p99={p99}");
        assert_eq!(h.min, 100.0);
        assert_eq!(h.max, 9_000.0);
        assert!((h.mean() - (100.0 + 250.0 + 9_000.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_then_quantile_equals_quantile_of_concatenation() {
        // The mergeability contract the fleet aggregation leans on:
        // merging per-shard histograms then taking a percentile gives
        // exactly the percentile of recording every sample into one.
        let shard_a: Vec<f64> = vec![1.0, 2.0, 2.0, 5.0, 90.0];
        let shard_b: Vec<f64> = vec![0.0, 3.0, 3.0, 3.0, 7.0, 300.0];
        let mut a = Histogram::linear(1.0, 1.0, 16);
        let mut b = Histogram::linear(1.0, 1.0, 16);
        let mut all = Histogram::linear(1.0, 1.0, 16);
        for &v in &shard_a {
            a.record(v);
            all.record(v);
        }
        for &v in &shard_b {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all, "merge is exactly the concatenation");
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), all.quantile(q), "q={q}");
        }
        // And merging in the other order agrees too.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(other.quantile(0.99), all.quantile(0.99));
    }

    #[test]
    fn sweep_report_folds_complete_and_incomplete_runs() {
        let stats = RunStats::of(&sample());
        let mut a = SweepReport::new();
        a.observe(&stats);
        assert_eq!(a.runs, 1);
        assert_eq!(a.complete, 1);
        assert_eq!(a.unsafe_runs, 0);
        assert_eq!(a.total_sends, 3);
        assert_eq!(a.total_drops, 1);
        assert_eq!(a.steps_to_complete.count, 1);
        assert_eq!(a.write_gaps.count, 2);

        let mut incomplete = stats.clone();
        incomplete.written = 1;
        incomplete.write_steps.truncate(1);
        let mut b = SweepReport::new();
        b.observe(&incomplete);
        assert_eq!(b.complete, 0);
        assert_eq!(b.steps_to_complete.count, 0);

        // One report folds both runs: the counters add, and only the
        // complete run has a steps-to-complete sample.
        a.observe(&incomplete);
        assert_eq!(a.runs, 2);
        assert_eq!(a.complete, 1);
        assert_eq!(a.steps_to_complete.count, 1);
    }

    #[test]
    fn sweep_report_round_trips_through_json() {
        let mut r = SweepReport::new();
        r.observe(&RunStats::of(&sample()));
        let json = serde_json::to_string(&r).unwrap();
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
