//! JSONL telemetry export and live progress.
//!
//! Two independent facilities:
//!
//! * **Export** — [`TelemetryWriter`] serializes [`TelemetryLine`]s —
//!   per-run records ([`RunRecord`]), per-message lifecycle spans
//!   ([`SpanRecord`]), knowledge-frontier samples ([`FrontierRecord`]),
//!   sweep-wide [`SweepReport`]s (folded from a sweep's runs by
//!   [`SweepOutcome::report`] at export) and the other record kinds —
//!   as JSON Lines through a pluggable [`Sink`] (file, stdout,
//!   in-memory). Each
//!   line is one self-describing object with a single key —
//!   `{"run": …}`, `{"span": …}`, `{"frontier": …}`, `{"report": …}`, … —
//!   so a consumer can dispatch without a schema registry. The writer is
//!   opt-in via the `STP_TELEMETRY` environment variable
//!   ([`TelemetryWriter::from_env`]), which keeps the experiment
//!   binaries' stdout byte-identical when telemetry is off.
//! * **Progress** — [`ProgressMeter`] is a thread-safe runs-done /
//!   runs-total counter with a throttled reporting callback (default:
//!   one line to *stderr* per interval) that the churn workload
//!   ([`ChurnRun::meter`](crate::sessions::ChurnRun::meter)) and the SLO
//!   harness drive while their work is in flight.

use crate::fleet::{FleetRecord, StallRecord};
use crate::metrics::{RunStats, SweepReport};
use crate::prof::ProfRecord;
use crate::runner::{MemberRun, SweepOutcome};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use stp_core::data::DataSeq;
use stp_core::event::{ProcessId, Step};

/// Where telemetry lines go. Implementations are line-oriented: one call,
/// one complete JSON document, no partial writes observable by a reader
/// of the finished stream.
pub trait Sink: Send {
    /// Appends one line (the trailing newline is the sink's job).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn write_line(&mut self, line: &str) -> io::Result<()>;

    /// Flushes buffered lines to the backing store.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn flush(&mut self) -> io::Result<()>;
}

/// A buffered append-mode file sink. Append (rather than truncate) lets
/// several experiment binaries share one telemetry file in sequence, as
/// `run_all` does.
#[derive(Debug)]
pub struct FileSink {
    writer: BufWriter<File>,
}

impl FileSink {
    /// Opens (creating if needed) `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileSink> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(FileSink {
            writer: BufWriter::new(file),
        })
    }
}

impl Sink for FileSink {
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Writes lines to standard output (for piping into `jq` and friends).
#[derive(Debug, Default)]
pub struct StdoutSink;

impl Sink for StdoutSink {
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        let mut out = io::stdout().lock();
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")
    }

    fn flush(&mut self) -> io::Result<()> {
        io::stdout().lock().flush()
    }
}

/// Collects lines in memory — the test double, and a convenient buffer
/// when a harness wants to post-process its own telemetry.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    lines: std::sync::Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A clone of every line written so far. The handle is shared: clone
    /// the sink before boxing it into a writer, then read lines back here.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().clone()
    }
}

impl Sink for MemorySink {
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.lines.lock().push(line.to_string());
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One run of one grid cell, flattened for export: what `MemberRun`
/// knows minus the trace, plus an experiment tag so lines from different
/// harnesses can share a file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Which harness produced this line (e.g. `"e1"`); empty when untagged.
    #[serde(default)]
    pub experiment: String,
    /// The input sequence of the run.
    pub input: DataSeq,
    /// The adversary seed.
    pub seed: u64,
    /// Index into the sweep's scheduler list.
    pub scheduler: usize,
    /// The run's statistics.
    pub stats: RunStats,
}

impl RunRecord {
    /// Flattens a [`MemberRun`] under an experiment tag.
    pub fn of(experiment: &str, run: &MemberRun) -> RunRecord {
        RunRecord {
            experiment: experiment.to_string(),
            input: run.input.clone(),
            seed: run.seed,
            scheduler: run.scheduler,
            stats: run.stats.clone(),
        }
    }
}

/// A one-line digest of a whole experiment harness — the form every
/// E-bin emits even when it has no sweep to export (impossibility
/// certificates, exact-universe analyses, witness shrinking).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSummary {
    /// Which harness produced this line (e.g. `"e4"`).
    pub experiment: String,
    /// Result rows the harness produced.
    pub rows: usize,
    /// Whether the harness's headline claim held on every row.
    pub ok: bool,
}

/// The wire form of one per-message lifecycle span — the flattened
/// `MsgSpan` that `MsgSpans::of` reconstructs, tagged with its run
/// context so span lines from many runs can share a file. Step fields
/// mirror the span: `delivered_at` holds every delivery (duplicate
/// fan-out ⇒ more than one), `dropped_at`/`expired_at` the terminal loss
/// if any, and `coalesced_into` the origin span a duplicate re-send
/// merged into.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Which harness produced this line; empty when untagged.
    #[serde(default)]
    pub experiment: String,
    /// The adversary seed of the run.
    pub seed: u64,
    /// The send's `MsgId` (dense from 0 in send order within the run).
    pub id: u64,
    /// The processor the message was addressed to.
    pub to: ProcessId,
    /// Raw alphabet index of the message value.
    pub msg: u16,
    /// The step the send happened at.
    pub sent_at: Step,
    /// On duplicating channels: the earlier span this send merged into.
    #[serde(default)]
    pub coalesced_into: Option<u64>,
    /// Every step a copy of this span was delivered.
    #[serde(default)]
    pub delivered_at: Vec<Step>,
    /// The step the adversary deleted the copy, if it was.
    #[serde(default)]
    pub dropped_at: Option<Step>,
    /// The step the channel expired the copy, if it did.
    #[serde(default)]
    pub expired_at: Option<Step>,
    /// The resolved fate, as its display form (`"delivered"`, `"dropped"`,
    /// `"expired"`, `"in-flight"`, `"coalesced"`).
    pub fate: String,
}

/// One knowledge-frontier sample: how much each side knows at a step.
/// The receiver's knowledge is the number of candidate continuations
/// compatible with what it has seen (`candidates`, the α-style count);
/// the sender's is how many items it knows to be acknowledged
/// (`s_ack_depth`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierRecord {
    /// Which harness produced this line; empty when untagged.
    #[serde(default)]
    pub experiment: String,
    /// The adversary seed of the run.
    pub seed: u64,
    /// The step the sample was taken at.
    pub step: Step,
    /// Items the receiver has safely written (its learned prefix).
    pub r_written: usize,
    /// Candidate sequences still compatible with the receiver's knowledge
    /// (`u128`: the α-style counts overflow `u64` near `m = 20`).
    pub candidates: u128,
    /// Items the sender knows the receiver has learned.
    pub s_ack_depth: usize,
}

/// One stabilization probe, flattened for export: a corruption strike at
/// one write index and how the run recovered from it (or didn't). The
/// optional fields mirror [`StabilizationProbe`](crate::slo::StabilizationProbe):
/// `stabilized_at` absent means the run diverged — its write tail never
/// became a clean in-order input suffix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilizationRecord {
    /// Which harness produced this line (e.g. `"e12"`); empty when untagged.
    #[serde(default)]
    pub experiment: String,
    /// The protocol family name (e.g. `"stabilizing"`).
    pub protocol: String,
    /// The channel tag of the run (e.g. `"del"`).
    pub channel: String,
    /// The corruption kind of the strike (e.g. `"state-scramble"`).
    pub kind: String,
    /// The campaign seed.
    pub seed: u64,
    /// The write index the strike was triggered on.
    pub index: usize,
    /// The step of the last corruption event.
    pub fault_end: Step,
    /// How many corruption events the campaign landed.
    pub corruption_events: usize,
    /// The stabilization point, when the run reconverged.
    #[serde(default)]
    pub stabilized_at: Option<Step>,
    /// `stabilized_at − fault_end`, when the run reconverged.
    #[serde(default)]
    pub steps_to_stabilize: Option<Step>,
}

/// One churn-workload benchmark result, flattened for export: what a
/// [`ChurnReport`](crate::sessions::ChurnReport) measured, as the
/// `{"sessions": …}` telemetry line the bench gate consumes.
///
/// `busy_secs` is the parallel critical path — the busiest shard's
/// single-threaded stepping time — and `sessions_per_sec` is computed
/// against it, so the lane measures sharding quality independently of
/// how many cores the benchmark host has. `wall_secs` is the honest
/// wall clock of the same run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionsRecord {
    /// Which harness produced this line; empty when untagged.
    #[serde(default)]
    pub experiment: String,
    /// Shards the workload ran on.
    pub shards: usize,
    /// Sessions submitted.
    pub submitted: u64,
    /// Sessions that completed their transmission.
    pub completed: u64,
    /// Sessions that ran out of step budget.
    pub exhausted: u64,
    /// Sessions that walked away (TTL churn).
    pub disconnected: u64,
    /// Protocol steps executed across every session.
    pub total_steps: u64,
    /// Engine rounds (max across shards).
    pub rounds: u64,
    /// Wall-clock seconds of the run.
    pub wall_secs: f64,
    /// Critical-path seconds: the busiest shard's stepping time.
    pub busy_secs: f64,
    /// Completed sessions per critical-path second.
    pub sessions_per_sec: f64,
    /// p99 submit-to-retire latency of completed sessions, in rounds.
    pub p99_latency_rounds: f64,
}

/// One telemetry line. On the wire it is externally tagged by its
/// lowercase kind — `{"run": {…}}`, `{"report": {…}}`, … — so a consumer
/// dispatches on the line's single top-level key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum TelemetryLine {
    /// A per-run record.
    Run(RunRecord),
    /// A sweep-wide report (boxed: it carries four histograms and would
    /// otherwise dwarf the other variants).
    Report(Box<SweepReport>),
    /// An experiment digest.
    Summary(ExperimentSummary),
    /// A per-message lifecycle span.
    Span(SpanRecord),
    /// A knowledge-frontier sample.
    Frontier(FrontierRecord),
    /// A conformance-ledger verdict: one grid cell of the certificate
    /// gate, with its expected and observed verdicts plus the independent
    /// checker's judgement.
    Verdict(stp_core::schema::ConformanceVerdict),
    /// A stabilization probe under state corruption.
    Stabilization(StabilizationRecord),
    /// A churn-workload benchmark result.
    Sessions(SessionsRecord),
    /// A fleet-metrics snapshot sample (per-shard or aggregate).
    Fleet(FleetRecord),
    /// A stall-watchdog flag with replay provenance.
    Stall(StallRecord),
    /// A phase-scoped profiler report.
    Prof(ProfRecord),
}

impl TelemetryLine {
    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error when the line is not an object
    /// with exactly one top-level key naming a known kind, or when that
    /// key's value does not parse as the kind's record.
    pub fn parse(line: &str) -> Result<TelemetryLine, serde_json::Error> {
        serde_json::from_str(line)
    }
}

/// The environment variable that switches telemetry export on:
/// unset/empty = off, `-` = stdout, anything else = append to that file.
pub const TELEMETRY_ENV: &str = "STP_TELEMETRY";

/// Serializes [`TelemetryLine`]s as JSON Lines into a [`Sink`].
pub struct TelemetryWriter {
    sink: Box<dyn Sink>,
}

impl fmt::Debug for TelemetryWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryWriter").finish_non_exhaustive()
    }
}

impl TelemetryWriter {
    /// Wraps a sink.
    pub fn new(sink: Box<dyn Sink>) -> TelemetryWriter {
        TelemetryWriter { sink }
    }

    /// Builds a writer from [`TELEMETRY_ENV`], or `None` when the
    /// variable is unset or empty (the default: no telemetry, stdout
    /// untouched).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the named file cannot be opened.
    pub fn from_env() -> io::Result<Option<TelemetryWriter>> {
        match std::env::var(TELEMETRY_ENV) {
            Ok(v) if v == "-" => Ok(Some(TelemetryWriter::new(Box::new(StdoutSink)))),
            Ok(v) if !v.is_empty() => Ok(Some(TelemetryWriter::new(Box::new(FileSink::open(v)?)))),
            _ => Ok(None),
        }
    }

    /// Emits one line.
    ///
    /// # Errors
    ///
    /// Propagates serialization or sink I/O errors.
    pub fn emit(&mut self, line: &TelemetryLine) -> io::Result<()> {
        let line = serde_json::to_string(line).map_err(io::Error::other)?;
        self.sink.write_line(&line)
    }

    /// Exports a whole sweep under an experiment tag: one line per run,
    /// then the aggregate report, then a flush.
    ///
    /// # Errors
    ///
    /// Propagates serialization or sink I/O errors.
    pub fn export_outcome(&mut self, experiment: &str, outcome: &SweepOutcome) -> io::Result<()> {
        for run in &outcome.runs {
            self.emit(&TelemetryLine::Run(RunRecord::of(experiment, run)))?;
        }
        self.emit(&TelemetryLine::Report(Box::new(outcome.report())))?;
        self.flush()
    }

    /// Flushes the sink.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.sink.flush()
    }
}

/// A point-in-time view of sweep progress, handed to the meter's
/// reporting callback.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProgressSnapshot {
    /// Runs finished so far.
    pub done: usize,
    /// Runs in the grid.
    pub total: usize,
    /// Worker threads currently alive.
    pub workers_alive: usize,
    /// Seconds since the sweep began.
    pub elapsed_secs: f64,
    /// Observed throughput, runs per second (`0.0` until time has passed).
    pub runs_per_sec: f64,
    /// Estimated seconds to completion (`0.0` when done or unknowable).
    pub eta_secs: f64,
}

impl fmt::Display for ProgressSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = if self.total == 0 {
            100.0
        } else {
            100.0 * self.done as f64 / self.total as f64
        };
        write!(
            f,
            "sweep {}/{} ({pct:.1}%) · {:.0} runs/s · ETA {:.1}s · {} workers",
            self.done, self.total, self.runs_per_sec, self.eta_secs, self.workers_alive
        )
    }
}

/// A thread-safe progress counter with a throttled reporting callback.
///
/// Workers call [`ProgressMeter::worker_started`] /
/// [`ProgressMeter::worker_finished`] around their lifetime and
/// [`ProgressMeter::record_done`] per finished run; the meter invokes the
/// callback at most once per interval (plus once at
/// [`ProgressMeter::finish`]), so per-run overhead is an atomic increment
/// and a clock read.
pub struct ProgressMeter {
    total: AtomicUsize,
    done: AtomicUsize,
    workers: AtomicUsize,
    interval: Duration,
    clock: Mutex<MeterClock>,
    // Single-reporter guard: the callback runs under this lock, so two
    // shards can never emit interleaved partial lines. Throttled callers
    // that lose the race skip — their counts are already in the atomics.
    report_lock: Mutex<()>,
    callback: Box<dyn Fn(&ProgressSnapshot) + Send + Sync>,
}

#[derive(Debug)]
struct MeterClock {
    started: Instant,
    last_report: Option<Instant>,
    // Runs done as of the last report, so the throttled line can show the
    // *recent* throughput rather than the lifetime average.
    last_done: usize,
}

impl fmt::Debug for ProgressMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressMeter")
            .field("done", &self.done.load(Ordering::Relaxed))
            .field("total", &self.total.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ProgressMeter {
    /// A meter that invokes `callback` at most once per `interval`.
    pub fn new(
        interval: Duration,
        callback: impl Fn(&ProgressSnapshot) + Send + Sync + 'static,
    ) -> ProgressMeter {
        ProgressMeter {
            total: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            workers: AtomicUsize::new(0),
            interval,
            clock: Mutex::new(MeterClock {
                started: Instant::now(),
                last_report: None,
                last_done: 0,
            }),
            report_lock: Mutex::new(()),
            callback: Box::new(callback),
        }
    }

    /// A meter that prints one line per interval to *stderr* (stdout is
    /// reserved for experiment tables and telemetry).
    pub fn stderr(interval: Duration) -> ProgressMeter {
        ProgressMeter::new(interval, |snap| eprintln!("{snap}"))
    }

    /// Arms the meter for a grid of `total` runs, zeroing the counters
    /// and restarting the clock. Call once before handing the meter to
    /// workers; a meter can be re-armed for a subsequent sweep.
    pub fn begin(&self, total: usize) {
        self.total.store(total, Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
        let mut clock = self.clock.lock();
        clock.started = Instant::now();
        clock.last_report = None;
        clock.last_done = 0;
    }

    /// A worker thread came up.
    pub fn worker_started(&self) {
        self.workers.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker thread exited.
    pub fn worker_finished(&self) {
        self.workers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records `n` finished runs and reports if the interval elapsed.
    pub fn record_done(&self, n: usize) {
        self.done.fetch_add(n, Ordering::Relaxed);
        self.maybe_report(false);
    }

    /// Forces a final report (e.g. after the merge).
    pub fn finish(&self) {
        self.maybe_report(true);
    }

    /// The current progress, computed from the atomics and the clock.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let elapsed = self.clock.lock().started.elapsed();
        self.snapshot_at(elapsed)
    }

    fn snapshot_at(&self, elapsed: Duration) -> ProgressSnapshot {
        let done = self.done.load(Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        let elapsed_secs = elapsed.as_secs_f64();
        let runs_per_sec = if elapsed_secs > 0.0 {
            done as f64 / elapsed_secs
        } else {
            0.0
        };
        let remaining = total.saturating_sub(done);
        let eta_secs = if remaining == 0 || runs_per_sec <= 0.0 {
            0.0
        } else {
            remaining as f64 / runs_per_sec
        };
        ProgressSnapshot {
            done,
            total,
            workers_alive: self.workers.load(Ordering::Relaxed),
            elapsed_secs,
            runs_per_sec,
            eta_secs,
        }
    }

    fn maybe_report(&self, force: bool) {
        // One reporter at a time: a forced report waits its turn, a
        // throttled one skips if another thread is already reporting.
        let _reporting = if force {
            self.report_lock.lock()
        } else {
            match self.report_lock.try_lock() {
                Some(guard) => guard,
                None => return,
            }
        };
        // The critical section is two clock reads; workers contend here
        // only once per finished run.
        let mut clock = self.clock.lock();
        let due = match clock.last_report {
            None => true,
            Some(at) => at.elapsed() >= self.interval,
        };
        if force || due {
            let done = self.done.load(Ordering::Relaxed);
            // Throughput over the window since the previous report —
            // tracks ramp-up and tail-off better than the lifetime
            // average. The first report (no previous window) and a
            // zero-width window (forced report right after a throttled
            // one) fall back to the cumulative rate, which `snapshot_at`
            // guards against zero elapsed time itself.
            let window_rate = clock.last_report.and_then(|at| {
                let width = at.elapsed().as_secs_f64();
                let delta = done.saturating_sub(clock.last_done);
                (width > 0.0).then(|| delta as f64 / width)
            });
            clock.last_report = Some(Instant::now());
            clock.last_done = done;
            let elapsed = clock.started.elapsed();
            drop(clock);
            let mut snap = self.snapshot_at(elapsed);
            if let Some(rate) = window_rate {
                snap.runs_per_sec = rate;
                let remaining = snap.total.saturating_sub(snap.done);
                snap.eta_secs = if remaining == 0 || rate <= 0.0 {
                    0.0
                } else {
                    remaining as f64 / rate
                };
            }
            (self.callback)(&snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as TestCounter;
    use std::sync::Arc;
    use stp_core::event::Step;

    fn stats(steps: Step, written: usize) -> RunStats {
        RunStats {
            steps,
            sends_s: written * 2,
            sends_r: written,
            deliveries_r: written,
            deliveries_s: written,
            drops: 1,
            written,
            input_len: written,
            safe: true,
            write_steps: (1..=written as Step).collect(),
        }
    }

    fn member(seed: u64) -> MemberRun {
        MemberRun {
            input: DataSeq::from_indices([1, 0]),
            seed,
            scheduler: 0,
            stats: stats(10, 2),
            trace: None,
        }
    }

    /// Emits `line`, checks that the wire form starts with the `kind`
    /// tag — `{"<kind>":` — and that it parses back to `line`. The tag is
    /// spelled out by each caller, so a drift in the derive's tag case
    /// (which parse and emit would share) still fails here.
    fn round_trip(line: TelemetryLine, kind: &str) {
        let sink = MemorySink::new();
        let mut w = TelemetryWriter::new(Box::new(sink.clone()));
        w.emit(&line).unwrap();
        w.flush().unwrap();
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        let prefix = format!("{{\"{kind}\":");
        assert!(lines[0].starts_with(&prefix), "{}", lines[0]);
        assert_eq!(TelemetryLine::parse(&lines[0]).unwrap(), line);
    }

    #[test]
    fn run_lines_round_trip() {
        round_trip(TelemetryLine::Run(RunRecord::of("e1", &member(3))), "run");
    }

    #[test]
    fn report_lines_round_trip() {
        let mut report = SweepReport::new();
        report.observe(&stats(10, 2));
        round_trip(TelemetryLine::Report(Box::new(report)), "report");
    }

    #[test]
    fn export_outcome_writes_runs_then_report() {
        let outcome = SweepOutcome::from_runs(vec![member(0), member(1)]);
        let sink = MemorySink::new();
        let mut w = TelemetryWriter::new(Box::new(sink.clone()));
        w.export_outcome("e9", &outcome).unwrap();
        let lines = sink.lines();
        assert_eq!(lines.len(), 3);
        let parsed: Vec<TelemetryLine> = lines
            .iter()
            .map(|l| TelemetryLine::parse(l).unwrap())
            .collect();
        assert!(matches!(&parsed[0], TelemetryLine::Run(r) if r.seed == 0 && r.experiment == "e9"));
        assert!(matches!(&parsed[1], TelemetryLine::Run(r) if r.seed == 1));
        match &parsed[2] {
            TelemetryLine::Report(r) => assert_eq!(**r, outcome.report()),
            other => panic!("expected the aggregate report, got {other:?}"),
        }
    }

    #[test]
    fn summary_lines_round_trip() {
        let summary = ExperimentSummary {
            experiment: "e4".to_string(),
            rows: 4,
            ok: true,
        };
        round_trip(TelemetryLine::Summary(summary), "summary");
    }

    #[test]
    fn span_lines_round_trip() {
        let rec = SpanRecord {
            experiment: "e1".to_string(),
            seed: 7,
            id: 3,
            to: ProcessId::Receiver,
            msg: 2,
            sent_at: 10,
            coalesced_into: Some(1),
            delivered_at: vec![12, 19],
            dropped_at: None,
            expired_at: None,
            fate: "coalesced".to_string(),
        };
        round_trip(TelemetryLine::Span(rec), "span");
    }

    #[test]
    fn frontier_lines_round_trip_with_u128_candidates() {
        let rec = FrontierRecord {
            experiment: "e1".to_string(),
            seed: 7,
            step: 42,
            r_written: 1,
            // Larger than any u64: exercises the exact-decimal number path.
            candidates: u128::from(u64::MAX) + 17,
            s_ack_depth: 1,
        };
        round_trip(TelemetryLine::Frontier(rec), "frontier");
    }

    #[test]
    fn verdict_lines_round_trip() {
        use stp_core::schema::{ConformanceVerdict, Verdict, CERT_SCHEMA_VERSION};
        let rec = ConformanceVerdict {
            schema_version: CERT_SCHEMA_VERSION,
            m: 2,
            family: "tight".to_string(),
            channel: "del".to_string(),
            expected: Verdict::Achieved,
            verdict: Verdict::Achieved,
            cert_kind: "recovery".to_string(),
            cert_file: "m2-tight-del.json".to_string(),
            checker: "accepted".to_string(),
            ok: true,
        };
        round_trip(TelemetryLine::Verdict(rec), "verdict");
    }

    #[test]
    fn stabilization_lines_round_trip() {
        let rec = StabilizationRecord {
            experiment: "e12".to_string(),
            protocol: "stabilizing".to_string(),
            channel: "del".to_string(),
            kind: "state-scramble".to_string(),
            seed: 23,
            index: 1,
            fault_end: 10,
            corruption_events: 1,
            stabilized_at: Some(12),
            steps_to_stabilize: Some(2),
        };
        round_trip(TelemetryLine::Stabilization(rec.clone()), "stabilization");
        // A divergent probe (no stabilization point) round-trips too.
        let divergent = StabilizationRecord {
            stabilized_at: None,
            steps_to_stabilize: None,
            ..rec
        };
        round_trip(TelemetryLine::Stabilization(divergent), "stabilization");
    }

    #[test]
    fn sessions_lines_round_trip() {
        let rec = SessionsRecord {
            experiment: "bench_sessions".to_string(),
            shards: 4,
            submitted: 1_000_000,
            completed: 880_000,
            exhausted: 20_000,
            disconnected: 100_000,
            total_steps: 123_456_789,
            rounds: 70_000,
            wall_secs: 12.5,
            busy_secs: 3.2,
            sessions_per_sec: 275_000.0,
            p99_latency_rounds: 9.0,
        };
        round_trip(TelemetryLine::Sessions(rec), "sessions");
    }

    #[test]
    fn prof_lines_round_trip() {
        let prof = crate::prof::PhaseProfiler::new(1);
        prof.time(crate::prof::Phase::SenderStep, || std::hint::black_box(7));
        round_trip(
            TelemetryLine::Prof(prof.report("bench_sweep", "e1_grid")),
            "prof",
        );
    }

    #[test]
    fn fleet_and_stall_lines_round_trip() {
        let registry = crate::fleet::FleetRegistry::new(2);
        let mut row = crate::fleet::FleetStats {
            submitted: 1,
            admitted: 1,
            recycle_misses: 1,
            completed: 1,
            ..crate::fleet::FleetStats::new(0)
        };
        row.latency.record(3.0);
        registry.shard(0).publish(&row);
        let snap = registry.snapshot();
        let shard = snap.shards[0].record("sessions_top");
        assert_eq!(shard.shard, Some(0));
        assert_eq!(shard.submitted, 1);
        assert_eq!(shard.p50_latency_rounds, 3.0);
        round_trip(TelemetryLine::Fleet(shard), "fleet");
        let aggregate = snap.stats().record("sessions_top");
        assert_eq!(aggregate.shard, None, "aggregate line");
        assert_eq!(aggregate.shards, 2);
        round_trip(TelemetryLine::Fleet(aggregate), "fleet");

        let stall = StallRecord {
            experiment: "sessions_top".to_string(),
            shard: 1,
            serial: 42,
            round: 99,
            age_rounds: 40,
            threshold_rounds: 16,
            expected_steps: 20,
            steps: 310,
            spec: crate::sessions::SessionSpec {
                family: stp_protocols::FamilySpec::Tight {
                    d: 3,
                    policy: stp_protocols::ResendPolicy::Once,
                },
                input: DataSeq::from_indices([1, 2, 0]),
                channel: stp_channel::ChannelSpec::Dup,
                scheduler: stp_channel::SchedulerSpec::Random { p_deliver: 0.0 },
                seed: 7,
                max_steps: 5_000,
                ttl_rounds: None,
            },
        };
        round_trip(TelemetryLine::Stall(stall), "stall");
    }

    #[test]
    fn concurrent_forced_reports_never_interleave() {
        // Each callback appends an open marker, sleeps, then a close
        // marker under the meter's report lock; interleaving would break
        // the strict open/close alternation.
        let events = Arc::new(Mutex::new(Vec::new()));
        let seen = events.clone();
        let meter = Arc::new(ProgressMeter::new(Duration::from_secs(0), move |_| {
            seen.lock().push("open");
            std::thread::sleep(Duration::from_millis(2));
            seen.lock().push("close");
        }));
        meter.begin(64);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let meter = Arc::clone(&meter);
                scope.spawn(move || {
                    for _ in 0..4 {
                        meter.record_done(1);
                        meter.finish();
                    }
                });
            }
        });
        let events = events.lock();
        assert!(!events.is_empty());
        for pair in events.chunks(2) {
            assert_eq!(pair, ["open", "close"], "reports interleaved: {events:?}");
        }
    }

    #[test]
    fn garbage_lines_fail_to_parse() {
        assert!(TelemetryLine::parse("{\"neither\": 1}").is_err());
        assert!(TelemetryLine::parse("not json").is_err());
        assert!(TelemetryLine::parse("{}").is_err());
        // A line must carry exactly one kind: a second top-level key is
        // rejected, not silently dropped.
        let run = TelemetryLine::Run(RunRecord::of("e1", &member(3)));
        let run = serde_json::to_string(&run).unwrap();
        let both = format!("{},\"span\":{{}}}}", &run[..run.len() - 1]);
        assert!(both.starts_with("{\"run\":{") && both.ends_with("},\"span\":{}}"));
        let err = TelemetryLine::parse(&both).unwrap_err().to_string();
        assert!(err.contains(r#"["run", "span"]"#), "{err}");
    }

    #[test]
    fn file_sink_appends_across_writers() {
        let dir = std::env::temp_dir().join(format!("stp-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        let _ = std::fs::remove_file(&path);
        for seed in 0..2 {
            let mut w = TelemetryWriter::new(Box::new(FileSink::open(&path).unwrap()));
            w.emit(&TelemetryLine::Run(RunRecord::of("e1", &member(seed))))
                .unwrap();
            w.flush().unwrap();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2, "append mode accumulates");
        for line in body.lines() {
            TelemetryLine::parse(line).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn progress_meter_counts_and_estimates() {
        let reports = Arc::new(TestCounter::new(0));
        let seen = reports.clone();
        let meter = ProgressMeter::new(Duration::from_secs(3600), move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        meter.begin(10);
        meter.worker_started();
        meter.record_done(4); // first report is always due
        assert_eq!(reports.load(Ordering::Relaxed), 1);
        meter.record_done(1); // throttled: interval not elapsed
        assert_eq!(reports.load(Ordering::Relaxed), 1);
        let snap = meter.snapshot();
        assert_eq!(snap.done, 5);
        assert_eq!(snap.total, 10);
        assert_eq!(snap.workers_alive, 1);
        meter.worker_finished();
        meter.finish(); // forced
        assert_eq!(reports.load(Ordering::Relaxed), 2);
        assert_eq!(meter.snapshot().workers_alive, 0);
        // Re-arming zeroes the counters.
        meter.begin(3);
        assert_eq!(meter.snapshot().done, 0);
    }

    #[test]
    fn progress_reports_stay_finite_from_the_first_tick() {
        let snaps = Arc::new(Mutex::new(Vec::new()));
        let seen = snaps.clone();
        let meter = ProgressMeter::new(Duration::from_secs(0), move |s| {
            seen.lock().push(s.clone());
        });
        meter.begin(8);
        // First tick: no previous report window, elapsed possibly ~0.
        meter.record_done(1);
        std::thread::sleep(Duration::from_millis(5));
        // Second tick: windowed rate over the 5ms window.
        meter.record_done(7);
        meter.finish();
        let snaps = snaps.lock();
        assert!(snaps.len() >= 2);
        for s in snaps.iter() {
            assert!(s.runs_per_sec.is_finite(), "{s:?}");
            assert!(s.runs_per_sec >= 0.0, "{s:?}");
            assert!(s.eta_secs.is_finite(), "{s:?}");
            assert!(s.eta_secs >= 0.0, "{s:?}");
        }
        let last = snaps.last().unwrap();
        assert_eq!(last.done, 8);
        assert_eq!(last.eta_secs, 0.0, "nothing remains");
    }

    #[test]
    fn snapshot_display_is_human_readable() {
        let snap = ProgressSnapshot {
            done: 3,
            total: 12,
            workers_alive: 4,
            elapsed_secs: 1.5,
            runs_per_sec: 2.0,
            eta_secs: 4.5,
        };
        let s = snap.to_string();
        assert!(s.contains("3/12"), "{s}");
        assert!(s.contains("25.0%"), "{s}");
        assert!(s.contains("4 workers"), "{s}");
    }
}
