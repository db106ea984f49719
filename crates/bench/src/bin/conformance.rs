//! The certificate-emitting verification gate: runs the T1/T2
//! conformance grid, writes one certificate file per cell, validates
//! every certificate with the independent replay checker, and records a
//! JSONL verdict ledger riding the telemetry wire format.
//!
//! Usage: `conformance [out_dir]` (default `target/conformance`). The
//! ledger lands in `<out_dir>/ledger.jsonl` — one `{"verdict": …}` line
//! per cell, parseable by `validate_telemetry` — and each certificate in
//! `<out_dir>/<cell>.json`. Exits nonzero when any cell's verdict
//! differs from the theorems' prediction or the checker rejects its
//! certificate, so CI can require the gate for merge.

use std::path::PathBuf;
use std::process::ExitCode;
use stp_bench::conformance::{judge, run_grid};
use stp_sim::telemetry::FileSink;
use stp_sim::{TelemetryLine, TelemetryWriter};

fn main() -> ExitCode {
    let out_dir = PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "target/conformance".to_string()),
    );
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("conformance: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let ledger_path = out_dir.join("ledger.jsonl");
    // The sink appends; start each gate run from a fresh ledger.
    let _ = std::fs::remove_file(&ledger_path);
    let mut writer = match FileSink::open(&ledger_path) {
        Ok(sink) => TelemetryWriter::new(Box::new(sink)),
        Err(e) => {
            eprintln!(
                "conformance: cannot open ledger {}: {e}",
                ledger_path.display()
            );
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:<6} {:<6} {:<6} {:<14} {:<14} {:<11} checker",
        "m", "family", "chan", "expected", "verdict", "cert"
    );
    let mut failures = 0usize;
    for outcome in run_grid() {
        let cert_file = match &outcome.certificate {
            Some(cert) => {
                let name = outcome.cell.artifact_name();
                if let Err(e) = std::fs::write(out_dir.join(&name), cert.to_json()) {
                    eprintln!("conformance: cannot write {name}: {e}");
                    return ExitCode::FAILURE;
                }
                name
            }
            None => String::new(),
        };
        let record = judge(&outcome, &cert_file);
        if let Err(e) = writer.emit(&TelemetryLine::Verdict(record.clone())) {
            eprintln!("conformance: ledger write failed: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "{:<6} {:<6} {:<6} {:<14} {:<14} {:<11} {}",
            record.m,
            record.family,
            record.channel,
            record.expected.to_string(),
            record.verdict.to_string(),
            if record.cert_kind.is_empty() {
                "-"
            } else {
                &record.cert_kind
            },
            record.checker
        );
        if !record.ok {
            failures += 1;
        }
    }
    if let Err(e) = writer.flush() {
        eprintln!("conformance: ledger flush failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("ledger: {}", ledger_path.display());
    if failures > 0 {
        eprintln!("conformance: {failures} cell(s) failed the gate");
        return ExitCode::FAILURE;
    }
    println!("conformance: all cells conform");
    ExitCode::SUCCESS
}
