//! Validates a JSONL telemetry file: every line must parse as one of the
//! wire forms ([`TelemetryLine`]) and survive a serialize → parse round
//! trip unchanged. Exits nonzero on the first malformed file, naming the
//! offending line number and the kind the line claims to be (its
//! self-describing top-level key), so CI can gate on the schema actually
//! holding for freshly exported telemetry — conformance ledgers included.
//!
//! Usage: `validate_telemetry <file.jsonl>` (defaults to
//! `telemetry.jsonl` in the current directory).

use std::process::ExitCode;
use stp_sim::TelemetryLine;

/// The self-describing kind tag of a JSONL line — its first top-level
/// key — for diagnostics. Lines too broken to expose one report as
/// `"unrecognized"`.
fn claimed_kind(line: &str) -> String {
    let open = match line.find('{') {
        Some(i) => i + 1,
        None => return "unrecognized".to_string(),
    };
    let rest = &line[open..];
    match rest.find('"').and_then(|start| {
        let key = &rest[start + 1..];
        key.find('"').map(|end| &key[..end])
    }) {
        Some(key) if !key.is_empty() => key.to_string(),
        _ => "unrecognized".to_string(),
    }
}

fn round_trips(line: &TelemetryLine) -> Result<bool, serde_json::Error> {
    let reserialized = serde_json::to_string(line)?;
    Ok(TelemetryLine::parse(&reserialized)? == *line)
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "telemetry.jsonl".to_string());
    let body = match std::fs::read_to_string(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("validate_telemetry: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut runs, mut reports, mut summaries) = (0usize, 0usize, 0usize);
    let (mut spans, mut frontiers, mut verdicts) = (0usize, 0usize, 0usize);
    let mut stabilizations = 0usize;
    let mut sessions = 0usize;
    let (mut fleets, mut stalls) = (0usize, 0usize);
    let mut profs = 0usize;
    for (no, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let kind = claimed_kind(line);
        let parsed = match TelemetryLine::parse(line) {
            Ok(p) => p,
            Err(e) => {
                eprintln!(
                    "validate_telemetry: {path}:{}: unparseable '{kind}' line: {e}",
                    no + 1
                );
                return ExitCode::FAILURE;
            }
        };
        match round_trips(&parsed) {
            Ok(true) => {}
            Ok(false) => {
                eprintln!(
                    "validate_telemetry: {path}:{}: '{kind}' line does not round-trip",
                    no + 1
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!(
                    "validate_telemetry: {path}:{}: '{kind}' reserialization failed: {e}",
                    no + 1
                );
                return ExitCode::FAILURE;
            }
        }
        match parsed {
            TelemetryLine::Run(_) => runs += 1,
            TelemetryLine::Report(_) => reports += 1,
            TelemetryLine::Summary(_) => summaries += 1,
            TelemetryLine::Span(_) => spans += 1,
            TelemetryLine::Frontier(_) => frontiers += 1,
            TelemetryLine::Verdict(_) => verdicts += 1,
            TelemetryLine::Stabilization(_) => stabilizations += 1,
            TelemetryLine::Sessions(_) => sessions += 1,
            TelemetryLine::Fleet(_) => fleets += 1,
            TelemetryLine::Stall(_) => stalls += 1,
            TelemetryLine::Prof(_) => profs += 1,
        }
    }
    let total = runs
        + reports
        + summaries
        + spans
        + frontiers
        + verdicts
        + stabilizations
        + sessions
        + fleets
        + stalls
        + profs;
    if total == 0 {
        eprintln!("validate_telemetry: {path} contains no telemetry lines");
        return ExitCode::FAILURE;
    }
    println!(
        "{path}: {total} lines valid ({runs} runs, {reports} reports, {summaries} summaries, \
         {spans} spans, {frontiers} frontiers, {verdicts} verdicts, \
         {stabilizations} stabilizations, {sessions} sessions, {fleets} fleets, {stalls} stalls, \
         {profs} profs)"
    );
    ExitCode::SUCCESS
}
