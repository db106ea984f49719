//! Validates a JSONL telemetry file: every line must parse as one of the
//! wire forms ([`TelemetryLine`]) and survive a serialize → parse round
//! trip unchanged, and every `{"fleet": …}` line must satisfy the fleet
//! conservation laws ([`stp_sim::FleetRecord::check_conservation`]).
//! Exits nonzero on the first invalid line, naming the file, the line
//! number, the kind the line claims to be (its self-describing top-level
//! key) and, for a fleet line, the broken law, so CI can gate on the
//! schema actually holding for freshly exported telemetry — conformance
//! ledgers included.
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

/// Parses one line and checks it: the round trip, and the conservation
/// laws for a fleet line. The error says what is wrong with the line.
fn check_line(line: &str) -> Result<TelemetryLine, String> {
    let kind = claimed_kind(line);
    let parsed =
        TelemetryLine::parse(line).map_err(|e| format!("unparseable '{kind}' line: {e}"))?;
    match round_trips(&parsed) {
        Ok(true) => {}
        Ok(false) => return Err(format!("'{kind}' line does not round-trip")),
        Err(e) => return Err(format!("'{kind}' reserialization failed: {e}")),
    }
    if let TelemetryLine::Fleet(fleet) = &parsed {
        fleet
            .check_conservation()
            .map_err(|law| format!("'fleet' line {law}"))?;
    }
    Ok(parsed)
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
        let parsed = match check_line(line) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("validate_telemetry: {path}:{}: {e}", no + 1);
                return ExitCode::FAILURE;
            }
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use stp_sim::{FleetRecord, FleetStats};

    fn fleet_line(record: FleetRecord) -> String {
        serde_json::to_string(&TelemetryLine::Fleet(record)).expect("serializes")
    }

    #[test]
    fn fleet_lines_that_break_a_conservation_law_are_rejected() {
        let balanced = FleetRecord {
            submitted: 3,
            admitted: 2,
            recycle_misses: 2,
            completed: 1,
            active: 1,
            queued: 1,
            ..FleetStats::new(0).record("t")
        };
        assert!(check_line(&fleet_line(balanced.clone())).is_ok());
        let lost = FleetRecord {
            submitted: 4,
            ..balanced.clone()
        };
        let err = check_line(&fleet_line(lost)).unwrap_err();
        assert!(
            err.starts_with("'fleet' line breaks submitted = completed"),
            "{err}"
        );
        let unsplit = FleetRecord {
            admitted: 3,
            ..balanced
        };
        let err = check_line(&fleet_line(unsplit)).unwrap_err();
        assert!(
            err.contains("admitted = recycle_hits + recycle_misses"),
            "{err}"
        );
    }
}
