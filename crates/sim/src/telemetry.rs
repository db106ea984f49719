//! JSONL telemetry export.
//!
//! [`TelemetryWriter`] serializes [`TelemetryLine`]s — per-run records
//! ([`RunRecord`]), per-message lifecycle spans ([`SpanRecord`]),
//! knowledge-frontier samples ([`FrontierRecord`]), sweep-wide
//! [`SweepReport`]s (folded from a sweep's runs by
//! [`SweepOutcome::report`] at export) and the other record kinds — as
//! JSON Lines through a pluggable [`Sink`] (file, stdout, in-memory).
//! Each line is one self-describing object with a single key —
//! `{"run": …}`, `{"span": …}`, `{"frontier": …}`, `{"report": …}`, … —
//! so a consumer can dispatch without a schema registry. The writer is
//! opt-in via the `STP_TELEMETRY` environment variable
//! ([`TelemetryWriter::from_env`]), which keeps the experiment
//! binaries' stdout byte-identical when telemetry is off.
//!
//! A churn workload's live progress is its shards'
//! [`FleetStats`](crate::fleet::FleetStats) rows:
//! `completed + exhausted + disconnected` against `submitted`, as
//! `sessions_top` shows it.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
