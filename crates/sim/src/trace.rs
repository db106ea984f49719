//! Causal per-message lifecycle tracing.
//!
//! Aggregate [`RunStats`] answer "how many messages were lost"; they cannot
//! answer "*which* send was lost, and did that matter". [`MsgSpans`]
//! closes that gap: it folds a run's recorded provenance stream
//! ([`MsgEvent`], see `World::msg_events`) into one [`MsgSpan`] per
//! physical send — sent → in-flight → delivered/dropped/expired, with
//! duplicate fan-out recorded as multiple delivery timestamps on the
//! originating span. The spans reconcile *exactly* against the aggregate
//! counters ([`MsgSpans::reconcile`]), which is the cross-check the
//! trace-parity tests pin down, and they export to the Chrome trace-event
//! JSON that `ui.perfetto.dev` renders ([`chrome_trace_json`]): one track
//! per channel direction plus counter tracks (e.g. the knowledge
//! frontier) supplied by the caller.
//!
//! The fold stores spans *columnar*: fixed-size cells in one vector and
//! all deliveries appended to one shared side table, so it never
//! allocates per span. [`MsgSpans::spans`] materializes the row form on
//! demand.

use crate::metrics::RunStats;
use crate::telemetry::SpanRecord;
use std::fmt;
use stp_core::event::{MsgEvent, MsgId, ProcessId, Step};

/// The resolved fate of one physical send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgFate {
    /// Still in the channel when the run ended.
    InFlight,
    /// Delivered at least once.
    Delivered,
    /// Irrevocably deleted by the adversary.
    Dropped,
    /// Destroyed by the channel itself (TTL expiry).
    Expired,
    /// A re-send on a duplicating channel that added no new copy; its
    /// lifecycle continues on the span it coalesced into.
    Coalesced,
}

impl fmt::Display for MsgFate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgFate::InFlight => "in-flight",
            MsgFate::Delivered => "delivered",
            MsgFate::Dropped => "dropped",
            MsgFate::Expired => "expired",
            MsgFate::Coalesced => "coalesced",
        };
        f.write_str(s)
    }
}

/// The recorded lifecycle of one physical send — the materialized row
/// form, built by [`MsgSpans::spans`] / [`MsgSpans::span`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgSpan {
    /// The send's id (dense from 0 in send order within the run).
    pub id: MsgId,
    /// The processor the message was addressed to.
    pub to: ProcessId,
    /// Raw alphabet index of the message value.
    pub msg: u16,
    /// The step the send happened at.
    pub sent_at: Step,
    /// On duplicating channels: the earlier span this send merged into.
    pub coalesced_into: Option<MsgId>,
    /// Every step a copy of this span was delivered (duplicating channels
    /// fan out: one span, many deliveries).
    pub delivered_at: Vec<Step>,
    /// The step the adversary deleted the copy, if it was.
    pub dropped_at: Option<Step>,
    /// The step the channel expired the copy, if it did.
    pub expired_at: Option<Step>,
}

impl MsgSpan {
    /// The span's resolved fate. Coalescing wins (the copy never existed
    /// separately); otherwise a terminal loss beats deliveries, which beat
    /// in-flight.
    pub fn fate(&self) -> MsgFate {
        if self.coalesced_into.is_some() {
            MsgFate::Coalesced
        } else if self.dropped_at.is_some() {
            MsgFate::Dropped
        } else if self.expired_at.is_some() {
            MsgFate::Expired
        } else if !self.delivered_at.is_empty() {
            MsgFate::Delivered
        } else {
            MsgFate::InFlight
        }
    }

    /// The step the span's lifecycle ended, if it did: its terminal loss,
    /// or its last delivery on consuming channels. Duplicating-channel
    /// spans never end (every copy stays deliverable forever), so a span
    /// with fan-out reports its *latest* activity.
    pub fn resolved_at(&self) -> Option<Step> {
        self.dropped_at
            .or(self.expired_at)
            .or_else(|| self.delivered_at.last().copied())
    }
}

/// Per-direction lifecycle tallies, folded from the provenance
/// stream. `sent` counts physical sends (coalesced re-sends included);
/// `delivered`, `dropped` and `expired` count channel outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LifecycleCounts {
    /// Physical sends addressed to `R` (i.e. sends by `S`).
    pub sent_to_r: usize,
    /// Physical sends addressed to `S` (i.e. sends by `R`).
    pub sent_to_s: usize,
    /// Deliveries to `R`.
    pub delivered_to_r: usize,
    /// Deliveries to `S`.
    pub delivered_to_s: usize,
    /// Adversary deletions of copies addressed to `R`.
    pub dropped_to_r: usize,
    /// Adversary deletions of copies addressed to `S`.
    pub dropped_to_s: usize,
    /// Channel-initiated expiries of copies addressed to `R`.
    pub expired_to_r: usize,
    /// Channel-initiated expiries of copies addressed to `S`.
    pub expired_to_s: usize,
}

// Sentinels for the columnar cell's optional fields: a `Step` / id of
// `u64::MAX` means "never happened". Sentinel encoding keeps the cell at
// 40 bytes (`Option`s would add a padded discriminant word each), which
// matters because every physical send copies one into the column.
const NO_STEP: Step = Step::MAX;
const NO_ID: u64 = u64::MAX;

// The fixed-size columnar cell of one span; deliveries live in the shared
// side table.
#[derive(Debug, Clone, Copy)]
struct SpanCell {
    sent_at: Step,
    coalesced_into: u64,
    dropped_at: Step,
    expired_at: Step,
    delivered: u32,
    msg: u16,
    to: ProcessId,
}

impl SpanCell {
    fn fate(&self) -> MsgFate {
        if self.coalesced_into != NO_ID {
            MsgFate::Coalesced
        } else if self.dropped_at != NO_STEP {
            MsgFate::Dropped
        } else if self.expired_at != NO_STEP {
            MsgFate::Expired
        } else if self.delivered > 0 {
            MsgFate::Delivered
        } else {
            MsgFate::InFlight
        }
    }
}

fn opt_step(s: Step) -> Option<Step> {
    (s != NO_STEP).then_some(s)
}

/// Every message's causal lifecycle in one run, folded from the run's
/// recorded provenance stream.
///
/// Build one with [`MsgSpans::of`] on `World::msg_events` of a world
/// built with `WorldBuilder::provenance(true)`. The recording does not
/// depend on the `TraceMode`, so neither do the spans.
#[derive(Debug, Default)]
pub struct MsgSpans {
    cells: Vec<SpanCell>,
    // (span index, step) per delivery, in delivery order — the fan-out
    // lists of all spans, interleaved.
    deliveries: Vec<(u32, Step)>,
    // Tallies of *unattributed* lifecycle events only (zero on every
    // supported channel); attributed ones are re-derived from the columns
    // at query time.
    orphan_counts: LifecycleCounts,
    steps: Step,
    fan_out: bool,
    // Lifecycle events whose copy the channel could not attribute to a
    // send. Zero on every supported channel; nonzero means reconciliation
    // is impossible and is reported as such.
    unattributed: usize,
}

impl MsgSpans {
    /// Folds a run's provenance stream (`(step, event)` pairs in
    /// execution order, as `World::msg_events` returns them) into spans.
    /// `steps` is the number of steps the run took (`World::step_count`).
    pub fn of(events: &[(Step, MsgEvent)], steps: Step) -> MsgSpans {
        let mut spans = MsgSpans {
            steps,
            ..MsgSpans::default()
        };
        for &(step, event) in events {
            spans.fold(step, event);
        }
        spans
    }

    fn fold(&mut self, step: Step, event: MsgEvent) {
        match event {
            MsgEvent::Sent {
                id,
                to,
                msg,
                coalesced_into,
            } => {
                debug_assert_eq!(
                    id.0 as usize,
                    self.cells.len(),
                    "send ids must be dense in send order"
                );
                self.fan_out |= coalesced_into.is_some();
                self.cells.push(SpanCell {
                    sent_at: step,
                    coalesced_into: coalesced_into.map_or(NO_ID, |i| i.0),
                    dropped_at: NO_STEP,
                    expired_at: NO_STEP,
                    delivered: 0,
                    msg,
                    to,
                });
            }
            MsgEvent::Delivered { id, to, .. } => {
                match id.and_then(|i| self.cells.get_mut(i.0 as usize)) {
                    Some(cell) => {
                        cell.delivered += 1;
                        self.fan_out |= cell.delivered > 1;
                        self.deliveries
                            .push((id.expect("attributed above").0 as u32, step));
                    }
                    None => {
                        self.unattributed += 1;
                        match to {
                            ProcessId::Receiver => self.orphan_counts.delivered_to_r += 1,
                            ProcessId::Sender => self.orphan_counts.delivered_to_s += 1,
                        }
                    }
                }
            }
            MsgEvent::Dropped { id, to, .. } => {
                match id.and_then(|i| self.cells.get_mut(i.0 as usize)) {
                    Some(cell) => cell.dropped_at = step,
                    None => {
                        self.unattributed += 1;
                        match to {
                            ProcessId::Receiver => self.orphan_counts.dropped_to_r += 1,
                            ProcessId::Sender => self.orphan_counts.dropped_to_s += 1,
                        }
                    }
                }
            }
            MsgEvent::Expired { id, to, .. } => {
                match id.and_then(|i| self.cells.get_mut(i.0 as usize)) {
                    Some(cell) => cell.expired_at = step,
                    None => {
                        self.unattributed += 1;
                        match to {
                            ProcessId::Receiver => self.orphan_counts.expired_to_r += 1,
                            ProcessId::Sender => self.orphan_counts.expired_to_s += 1,
                        }
                    }
                }
            }
        }
    }

    /// Materializes all spans of the run, in send (= id) order.
    pub fn spans(&self) -> Vec<MsgSpan> {
        let mut spans: Vec<MsgSpan> = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| MsgSpan {
                id: MsgId(i as u64),
                to: c.to,
                msg: c.msg,
                sent_at: c.sent_at,
                coalesced_into: (c.coalesced_into != NO_ID).then_some(MsgId(c.coalesced_into)),
                delivered_at: Vec::with_capacity(c.delivered as usize),
                dropped_at: opt_step(c.dropped_at),
                expired_at: opt_step(c.expired_at),
            })
            .collect();
        for &(idx, step) in &self.deliveries {
            spans[idx as usize].delivered_at.push(step);
        }
        spans
    }

    /// Materializes the span of one send, if `id` was assigned this run.
    pub fn span(&self, id: MsgId) -> Option<MsgSpan> {
        let cell = self.cells.get(id.0 as usize)?;
        Some(MsgSpan {
            id,
            to: cell.to,
            msg: cell.msg,
            sent_at: cell.sent_at,
            coalesced_into: (cell.coalesced_into != NO_ID).then_some(MsgId(cell.coalesced_into)),
            delivered_at: self
                .deliveries
                .iter()
                .filter(|&&(idx, _)| u64::from(idx) == id.0)
                .map(|&(_, step)| step)
                .collect(),
            dropped_at: opt_step(cell.dropped_at),
            expired_at: opt_step(cell.expired_at),
        })
    }

    /// The number of spans (= physical sends) recorded this run.
    pub fn span_count(&self) -> usize {
        self.cells.len()
    }

    /// The per-direction lifecycle tallies, folded from the recorded
    /// columns (plus any unattributed events).
    pub fn counts(&self) -> LifecycleCounts {
        let mut c = self.orphan_counts;
        for cell in &self.cells {
            match cell.to {
                ProcessId::Receiver => {
                    c.sent_to_r += 1;
                    c.dropped_to_r += usize::from(cell.dropped_at != NO_STEP);
                    c.expired_to_r += usize::from(cell.expired_at != NO_STEP);
                }
                ProcessId::Sender => {
                    c.sent_to_s += 1;
                    c.dropped_to_s += usize::from(cell.dropped_at != NO_STEP);
                    c.expired_to_s += usize::from(cell.expired_at != NO_STEP);
                }
            }
        }
        for &(idx, _) in &self.deliveries {
            match self.cells[idx as usize].to {
                ProcessId::Receiver => c.delivered_to_r += 1,
                ProcessId::Sender => c.delivered_to_s += 1,
            }
        }
        c
    }

    /// Steps the observed run spanned.
    pub fn steps(&self) -> Step {
        self.steps
    }

    /// Lifecycle events the channel could not attribute to a send.
    pub fn unattributed(&self) -> usize {
        self.unattributed
    }

    /// Whether any span shows duplicate fan-out (multiple deliveries) or
    /// coalescing — true exactly on duplicating channels. When false,
    /// every span has at most one outcome and the strict conservation law
    /// `sent = delivered + dropped + expired + in-flight` holds
    /// per direction.
    pub fn has_fan_out(&self) -> bool {
        self.fan_out
    }

    /// Spans still in flight at the end of the run: `(to_r, to_s)`.
    pub fn in_flight(&self) -> (usize, usize) {
        let mut r = 0;
        let mut s = 0;
        for cell in &self.cells {
            if cell.fate() == MsgFate::InFlight {
                match cell.to {
                    ProcessId::Receiver => r += 1,
                    ProcessId::Sender => s += 1,
                }
            }
        }
        (r, s)
    }

    /// Checks that the causal spans reconcile *exactly* with the
    /// executor's aggregate statistics: every physical send has a span,
    /// every delivery/drop/expiry was attributed, and on consuming
    /// channels the conservation law
    /// `sent = delivered + dropped + expired + in-flight` holds per
    /// direction.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first discrepancy.
    pub fn reconcile(&self, stats: &RunStats) -> Result<(), String> {
        let c = self.counts();
        let check = |label: &str, got: usize, want: usize| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{label}: trace has {got}, stats have {want}"))
            }
        };
        check("sends to R", c.sent_to_r, stats.sends_s)?;
        check("sends to S", c.sent_to_s, stats.sends_r)?;
        check("deliveries to R", c.delivered_to_r, stats.deliveries_r)?;
        check("deliveries to S", c.delivered_to_s, stats.deliveries_s)?;
        check(
            "losses (drops + expiries)",
            c.dropped_to_r + c.dropped_to_s + c.expired_to_r + c.expired_to_s,
            stats.drops,
        )?;
        if self.steps != stats.steps {
            return Err(format!(
                "steps: trace has {}, stats have {}",
                self.steps, stats.steps
            ));
        }
        if self.unattributed != 0 {
            return Err(format!(
                "{} lifecycle events lack provenance",
                self.unattributed
            ));
        }
        if !self.has_fan_out() {
            let (fr, fs) = self.in_flight();
            check(
                "conservation to R (delivered+dropped+expired+in-flight)",
                c.delivered_to_r + c.dropped_to_r + c.expired_to_r + fr,
                c.sent_to_r,
            )?;
            check(
                "conservation to S (delivered+dropped+expired+in-flight)",
                c.delivered_to_s + c.dropped_to_s + c.expired_to_s + fs,
                c.sent_to_s,
            )?;
        }
        Ok(())
    }

    /// Flattens the spans into telemetry wire records, tagged with the run
    /// context.
    pub fn span_records(&self, experiment: &str, seed: u64) -> Vec<SpanRecord> {
        self.spans()
            .into_iter()
            .map(|s| SpanRecord {
                experiment: experiment.to_string(),
                seed,
                id: s.id.0,
                to: s.to,
                msg: s.msg,
                sent_at: s.sent_at,
                coalesced_into: s.coalesced_into.map(|i| i.0),
                fate: s.fate().to_string(),
                delivered_at: s.delivered_at,
                dropped_at: s.dropped_at,
                expired_at: s.expired_at,
            })
            .collect()
    }
}

/// One counter track for the Chrome/Perfetto export — e.g. the knowledge
/// frontier's candidate count, sampled per step by whoever computed it.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Track name shown in the UI.
    pub name: String,
    /// `(step, value)` samples, in step order.
    pub points: Vec<(Step, f64)>,
}

// One global step renders as one millisecond (1000 trace µs): Perfetto's
// UI is built for wall-clock time, and millisecond steps keep multi-
// thousand-step runs comfortably zoomable.
const US_PER_STEP: u64 = 1_000;

fn esc(s: &str) -> String {
    // The strings we emit are generated names (no quotes/backslashes), but
    // escape anyway so arbitrary experiment tags stay valid JSON.
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the run's spans (plus caller-supplied counter tracks) as a
/// Chrome trace-event JSON string, the format `ui.perfetto.dev` and
/// `chrome://tracing` open directly.
///
/// Layout: process 1 is the `S→R` channel direction, process 2 the `R→S`
/// direction, process 3 carries the counter tracks. Every span becomes an
/// async begin/end pair (id = the send's `MsgId`); deliveries render as
/// instant events so duplicate fan-out stays visible; a span still
/// in flight at the end of the run is closed at the final step.
pub fn chrome_trace_json(spans: &MsgSpans, counters: &[CounterTrack]) -> String {
    let mut ev: Vec<String> = Vec::new();
    for (pid, name) in [
        (1u32, "channel S\u{2192}R"),
        (2, "channel R\u{2192}S"),
        (3, "knowledge frontier"),
    ] {
        ev.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }
    let end_ts = spans.steps().max(1) * US_PER_STEP;
    for span in spans.spans() {
        let pid = match span.to {
            ProcessId::Receiver => 1,
            ProcessId::Sender => 2,
        };
        let name = match span.coalesced_into {
            Some(orig) => format!("m{} {} \u{21aa}{}", span.msg, span.id, orig),
            None => format!("m{} {}", span.msg, span.id),
        };
        let begin = span.sent_at * US_PER_STEP;
        // Terminal steps stamp the span's end; open spans close at the
        // end of the run. A same-step terminal still gets a visible
        // sliver of half a step.
        let end = span
            .resolved_at()
            .map(|s| (s * US_PER_STEP).max(begin + US_PER_STEP / 2))
            .unwrap_or(end_ts)
            .max(begin + US_PER_STEP / 2);
        ev.push(format!(
            "{{\"ph\":\"b\",\"cat\":\"msg\",\"id\":{},\"pid\":{pid},\"tid\":0,\
             \"ts\":{begin},\"name\":\"{}\",\
             \"args\":{{\"fate\":\"{}\",\"msg\":{}}}}}",
            span.id.0,
            esc(&name),
            span.fate(),
            span.msg
        ));
        for &d in &span.delivered_at {
            ev.push(format!(
                "{{\"ph\":\"i\",\"s\":\"p\",\"pid\":{pid},\"tid\":0,\"ts\":{},\
                 \"name\":\"deliver {}\"}}",
                d * US_PER_STEP,
                span.id
            ));
        }
        if let Some(d) = span.dropped_at {
            ev.push(format!(
                "{{\"ph\":\"i\",\"s\":\"p\",\"pid\":{pid},\"tid\":0,\"ts\":{},\
                 \"name\":\"drop {}\"}}",
                d * US_PER_STEP,
                span.id
            ));
        }
        if let Some(d) = span.expired_at {
            ev.push(format!(
                "{{\"ph\":\"i\",\"s\":\"p\",\"pid\":{pid},\"tid\":0,\"ts\":{},\
                 \"name\":\"expire {}\"}}",
                d * US_PER_STEP,
                span.id
            ));
        }
        ev.push(format!(
            "{{\"ph\":\"e\",\"cat\":\"msg\",\"id\":{},\"pid\":{pid},\"tid\":0,\"ts\":{end}}}",
            span.id.0
        ));
    }
    for track in counters {
        for &(step, value) in &track.points {
            ev.push(format!(
                "{{\"ph\":\"C\",\"pid\":3,\"tid\":0,\"ts\":{},\"name\":\"{}\",\
                 \"args\":{{\"value\":{value}}}}}",
                step * US_PER_STEP,
                esc(&track.name)
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        ev.join(",")
    )
}

/// Writes [`chrome_trace_json`] to a writer.
///
/// # Errors
///
/// Propagates the writer's I/O error.
pub fn write_chrome_trace<W: std::io::Write>(
    out: &mut W,
    spans: &MsgSpans,
    counters: &[CounterTrack],
) -> std::io::Result<()> {
    out.write_all(chrome_trace_json(spans, counters).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsProbe;
    use crate::world::World;
    use stp_channel::{
        DelChannel, DropHeavyScheduler, DupChannel, DupStormScheduler, RandomScheduler,
        TimedChannel,
    };
    use stp_core::data::DataSeq;
    use stp_protocols::{ResendPolicy, TightReceiver, TightSender};

    fn seq(v: &[u16]) -> DataSeq {
        DataSeq::from_indices(v.iter().copied())
    }

    fn traced_world(
        input: &DataSeq,
        d: u16,
        policy: ResendPolicy,
        channel: Box<dyn stp_channel::Channel>,
        scheduler: Box<dyn stp_channel::Scheduler>,
    ) -> World {
        World::builder(input.clone())
            .sender(Box::new(TightSender::new(input.clone(), d, policy)))
            .receiver(Box::new(TightReceiver::new(d, policy)))
            .channel(channel)
            .scheduler(scheduler)
            .provenance(true)
            .probe(Box::new(MetricsProbe::new()))
            .build()
            .unwrap()
    }

    fn spans_of(w: &World) -> MsgSpans {
        MsgSpans::of(w.msg_events(), w.step_count())
    }

    #[test]
    fn del_channel_spans_obey_conservation() {
        let input = seq(&[1, 3, 0]);
        for s in 0..8 {
            let mut w = traced_world(
                &input,
                4,
                ResendPolicy::EveryTick,
                Box::new(DelChannel::new()),
                Box::new(DropHeavyScheduler::new(s, 0.4, 0.5)),
            );
            w.run_until(20_000, World::is_complete);
            let stats = w.probe_of::<MetricsProbe>().unwrap().stats();
            let probe = &spans_of(&w);
            assert!(!probe.has_fan_out(), "del channels never duplicate");
            probe.reconcile(&stats).unwrap();
            // Every span resolved to exactly one fate.
            for span in probe.spans() {
                assert!(span.delivered_at.len() <= 1);
                assert!(!(span.dropped_at.is_some() && span.expired_at.is_some()));
            }
        }
    }

    #[test]
    fn dup_channel_fans_out_from_the_original_carrier() {
        let input = seq(&[2, 0, 1]);
        let mut w = traced_world(
            &input,
            3,
            ResendPolicy::Once,
            Box::new(DupChannel::new()),
            Box::new(DupStormScheduler::new(7, 0.9)),
        );
        w.run_until(5_000, World::is_complete);
        let stats = w.probe_of::<MetricsProbe>().unwrap().stats();
        let probe = &spans_of(&w);
        probe.reconcile(&stats).unwrap();
        // Coalesced spans point at an earlier origin; deliveries land on
        // origins only.
        for span in probe.spans() {
            if let Some(orig) = span.coalesced_into {
                assert!(orig < span.id);
                assert!(span.delivered_at.is_empty());
                assert_eq!(span.fate(), MsgFate::Coalesced);
            }
        }
        let total_deliveries: usize = probe.spans().iter().map(|s| s.delivered_at.len()).sum();
        assert_eq!(
            total_deliveries,
            stats.deliveries_r + stats.deliveries_s,
            "fan-out accounts for every delivery"
        );
        // The single-span view agrees with the bulk view.
        for span in probe.spans() {
            assert_eq!(probe.span(span.id).unwrap(), span);
        }
        assert_eq!(probe.span(MsgId(999_999)), None);
    }

    #[test]
    fn timed_channel_expiries_become_expired_spans() {
        // A never-delivering scheduler over a deadline-1 timed channel:
        // every send expires, and every span says so.
        let input = seq(&[1, 0]);
        let mut w = traced_world(
            &input,
            2,
            ResendPolicy::EveryTick,
            Box::new(TimedChannel::new(1)),
            Box::new(RandomScheduler::new(0, 0.0)),
        );
        w.run(50);
        let stats = w.probe_of::<MetricsProbe>().unwrap().stats();
        let probe = &spans_of(&w);
        probe.reconcile(&stats).unwrap();
        assert!(stats.drops > 0);
        assert!(probe
            .spans()
            .iter()
            .all(|s| s.fate() == MsgFate::Expired && s.expired_at == Some(s.sent_at)));
    }

    #[test]
    fn reconcile_reports_discrepancies() {
        let input = seq(&[1, 0]);
        let mut w = traced_world(
            &input,
            2,
            ResendPolicy::Once,
            Box::new(DupChannel::new()),
            Box::new(DupStormScheduler::new(3, 0.9)),
        );
        w.run_until(2_000, World::is_complete);
        let mut stats = w.probe_of::<MetricsProbe>().unwrap().stats();
        stats.sends_s += 1;
        let err = spans_of(&w).reconcile(&stats).unwrap_err();
        assert!(err.contains("sends to R"), "{err}");
    }

    #[test]
    fn probe_resets_with_the_pooled_world() {
        let input_a = seq(&[1, 2, 0]);
        let input_b = seq(&[0, 2]);
        let mut pooled = traced_world(
            &input_a,
            3,
            ResendPolicy::EveryTick,
            Box::new(DelChannel::new()),
            Box::new(DropHeavyScheduler::new(5, 0.3, 0.6)),
        );
        pooled.run(400);
        pooled.reset(&input_b, 9);
        pooled.run(400);
        let mut fresh = traced_world(
            &input_b,
            3,
            ResendPolicy::EveryTick,
            Box::new(DelChannel::new()),
            Box::new(DropHeavyScheduler::new(9, 0.3, 0.6)),
        );
        fresh.run(400);
        let ps = spans_of(&pooled);
        let fs = spans_of(&fresh);
        assert_eq!(ps.spans(), fs.spans(), "MsgIds are stable across resets");
        assert_eq!(ps.counts(), fs.counts());
    }

    #[test]
    fn chrome_trace_renders_tracks_spans_and_counters() {
        let input = seq(&[1, 0]);
        let mut w = traced_world(
            &input,
            2,
            ResendPolicy::Once,
            Box::new(DupChannel::new()),
            Box::new(DupStormScheduler::new(1, 0.9)),
        );
        w.run_until(2_000, World::is_complete);
        let probe = &spans_of(&w);
        let counters = [CounterTrack {
            name: "candidates".to_string(),
            points: vec![(0, 5.0), (3, 2.0)],
        }];
        let json = chrome_trace_json(probe, &counters);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("channel S\u{2192}R"));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"candidates\""));
        // Balanced begin/end pairs: one per span.
        let begins = json.matches("\"ph\":\"b\"").count();
        let ends = json.matches("\"ph\":\"e\"").count();
        assert_eq!(begins, ends);
        assert_eq!(begins, probe.span_count());
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, probe, &counters).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), json);
    }

    #[test]
    fn span_records_carry_run_context() {
        let input = seq(&[1, 0]);
        let mut w = traced_world(
            &input,
            2,
            ResendPolicy::Once,
            Box::new(DupChannel::new()),
            Box::new(DupStormScheduler::new(2, 0.9)),
        );
        w.run_until(2_000, World::is_complete);
        let probe = &spans_of(&w);
        let recs = probe.span_records("e1-demo", 42);
        assert_eq!(recs.len(), probe.span_count());
        for (rec, span) in recs.iter().zip(probe.spans()) {
            assert_eq!(rec.experiment, "e1-demo");
            assert_eq!(rec.seed, 42);
            assert_eq!(rec.id, span.id.0);
            assert_eq!(rec.fate, span.fate().to_string());
            assert_eq!(rec.delivered_at, span.delivered_at);
        }
    }
}
