//! The durable benchmark trajectory: `BENCH_history.jsonl`.
//!
//! `BENCH_sweep.json` and `BENCH_sessions.json` are snapshots — each run
//! overwrites the last, so the repo only ever knows its *current* speed.
//! This module makes the trajectory durable: every bench run appends one
//! schema-versioned [`HistoryRecord`] (commit, host shape, lane metrics,
//! per-phase cost breakdown) to a JSON-Lines file that CI uploads as an
//! artifact, and the `bench_gate` binary reads back to compare a fresh
//! run against the *median of its own history* — a noise-aware baseline
//! no single hot or cold run can move much (see [`crate::gate`]).
//!
//! Records from future schema versions are skipped on load, never
//! errors: an old gate binary must not fail CI because a newer one wrote
//! a richer record next to its own.

use crate::gate::median;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::Path;
use stp_sim::{ProfPhase, ProfRecord};

/// The schema version this crate writes. Bump on any incompatible change
/// to [`HistoryRecord`]; loaders skip records with a *newer* version.
pub const HISTORY_SCHEMA_VERSION: u32 = 1;

/// The canonical history file name, written in the working directory
/// next to `BENCH_sweep.json` / `BENCH_sessions.json`.
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// One phase's slice of a run's busy time, as persisted in history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseShare {
    /// Phase name (`sender_step`, `deliver_dup`, …).
    pub phase: String,
    /// Fraction of attributed busy time spent in this phase.
    pub share: f64,
    /// Absolute nanoseconds attributed to this phase.
    pub total_ns: u64,
}

/// One benchmark run's durable record: who ran, where, and what it cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// Schema version of this record ([`HISTORY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Which benchmark wrote it (`bench_sweep`, `bench_sessions`).
    pub bench: String,
    /// The commit the benched tree was at, or `unknown` outside a repo.
    pub commit: String,
    /// Parallelism actually granted to the bench process.
    pub host_cores_effective: usize,
    /// CPUs the kernel reports, `>= host_cores_effective`.
    pub host_cores_present: usize,
    /// Flat name → value map of every gate-relevant lane metric.
    pub metrics: BTreeMap<String, f64>,
    /// Per-phase cost breakdown from the profiled lane, busiest first.
    #[serde(default = "Vec::new")]
    pub phases: Vec<PhaseShare>,
}

impl HistoryRecord {
    /// Starts a record for `bench` stamped with the current commit and
    /// host shape; metrics and phases are added with [`Self::metric`] and
    /// [`Self::phases_from`].
    pub fn new(bench: &str) -> HistoryRecord {
        let (effective, present) = crate::host::host_parallelism();
        HistoryRecord {
            schema_version: HISTORY_SCHEMA_VERSION,
            bench: bench.to_string(),
            commit: commit_id(),
            host_cores_effective: effective,
            host_cores_present: present,
            metrics: BTreeMap::new(),
            phases: Vec::new(),
        }
    }

    /// Adds one gate-relevant metric (builder style).
    #[must_use]
    pub fn metric(mut self, name: &str, value: f64) -> HistoryRecord {
        self.metrics.insert(name.to_string(), value);
        self
    }

    /// Sets the per-phase breakdown from profiler reports of the same
    /// workload, one per rep: each phase's share and nanoseconds are the
    /// medians over the reports (a report without the phase counts as
    /// zero), busiest first. A single report is copied as it is. With one
    /// report per rep, a preempted window inflates one rep's shares
    /// instead of the recorded ones.
    #[must_use]
    pub fn phases_from(mut self, reports: &[ProfRecord]) -> HistoryRecord {
        let mut names: Vec<&str> = Vec::new();
        for phase in reports.iter().flat_map(|r| &r.phases) {
            if !names.contains(&phase.phase.as_str()) {
                names.push(&phase.phase);
            }
        }
        let median_of = |name: &str, field: fn(&ProfPhase) -> f64| {
            median(
                reports
                    .iter()
                    .map(|r| r.phases.iter().find(|p| p.phase == name).map_or(0.0, field))
                    .collect(),
            )
        };
        self.phases = names
            .into_iter()
            .map(|name| PhaseShare {
                phase: name.to_string(),
                share: median_of(name, |p| p.share),
                total_ns: median_of(name, |p| p.total_ns as f64) as u64,
            })
            .collect();
        self.phases.sort_by(|a, b| b.share.total_cmp(&a.share));
        self
    }
}

/// The commit identifier to stamp records with: `STP_COMMIT` if set
/// (lets CI pin the exact sha it checked out), else `GITHUB_SHA`, else
/// `git rev-parse --short=12 HEAD`, else `"unknown"`.
pub fn commit_id() -> String {
    for var in ["STP_COMMIT", "GITHUB_SHA"] {
        if let Ok(v) = std::env::var(var) {
            if !v.trim().is_empty() {
                return v.trim().to_string();
            }
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Appends one record as a JSON line, creating the file if needed.
///
/// # Errors
///
/// Propagates serialization and file I/O errors.
pub fn append(path: &Path, record: &HistoryRecord) -> io::Result<()> {
    let line = serde_json::to_string(record).map_err(io::Error::other)?;
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{line}")
}

/// Loads every readable record from a history file, oldest first.
///
/// Missing files read as an empty history (a fresh checkout has no
/// trajectory yet); unparseable lines and records from a newer schema
/// are skipped with a note on stderr rather than failing the caller.
pub fn load(path: &Path) -> Vec<HistoryRecord> {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(_) => return Vec::new(),
    };
    let mut records = Vec::new();
    for (no, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<HistoryRecord>(line) {
            Ok(r) if r.schema_version <= HISTORY_SCHEMA_VERSION => records.push(r),
            Ok(r) => eprintln!(
                "history: {}:{}: skipping schema v{} record (this binary reads <= v{})",
                path.display(),
                no + 1,
                r.schema_version,
                HISTORY_SCHEMA_VERSION
            ),
            Err(e) => eprintln!(
                "history: {}:{}: skipping unparseable line: {e}",
                path.display(),
                no + 1
            ),
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("stp-bench-history-tests");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    #[test]
    fn records_round_trip_through_append_and_load() {
        let path = scratch("round_trip.jsonl");
        let _ = std::fs::remove_file(&path);
        let rec = HistoryRecord::new("bench_sweep")
            .metric("engine_secs", 0.012)
            .metric("prof_overhead", 0.021);
        append(&path, &rec).expect("append");
        append(&path, &rec.clone().metric("engine_secs", 0.013)).expect("append");
        let back = load(&path);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], rec);
        assert_eq!(back[1].metrics["engine_secs"], 0.013);
        assert_eq!(back[0].schema_version, HISTORY_SCHEMA_VERSION);
        assert!(back[0].host_cores_present >= back[0].host_cores_effective);
    }

    #[test]
    fn load_skips_junk_and_newer_schemas_without_failing() {
        let path = scratch("skips.jsonl");
        let _ = std::fs::remove_file(&path);
        let rec = HistoryRecord::new("bench_sessions").metric("busy_secs", 1.5);
        append(&path, &rec).expect("append");
        let mut newer = rec.clone();
        newer.schema_version = HISTORY_SCHEMA_VERSION + 1;
        append(&path, &newer).expect("append");
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "not json at all"))
            .expect("junk line");
        let back = load(&path);
        assert_eq!(back, vec![rec]);
    }

    #[test]
    fn missing_file_is_an_empty_history() {
        assert!(load(Path::new("/nonexistent/BENCH_history.jsonl")).is_empty());
    }

    #[test]
    fn phases_copy_out_of_a_prof_report() {
        let prof = stp_sim::PhaseProfiler::new(1);
        prof.time(stp_sim::Phase::SenderStep, || std::hint::black_box(3));
        let report = prof.report("bench", "test");
        let rec = HistoryRecord::new("bench_sweep").phases_from(std::slice::from_ref(&report));
        assert!(!rec.phases.is_empty());
        assert_eq!(rec.phases[0].phase, "sender_step");
        assert_eq!(rec.phases[0].share, report.phases[0].share);
        assert_eq!(rec.phases[0].total_ns, report.phases[0].total_ns);
    }

    #[test]
    fn phases_from_reps_take_each_phase_median() {
        // Three reps split 60/40 between two phases; a fourth rep whose
        // one window was preempted reads 95/5, and a fifth lacks the
        // second phase. The recorded shares are the medians, which
        // neither outlier moves (a mean would).
        let rep = |shares: &[(&str, f64)]| {
            let prof = stp_sim::PhaseProfiler::new(1);
            let mut report = prof.report("bench", "test");
            report.phases = shares
                .iter()
                .map(|&(phase, share)| ProfPhase {
                    phase: phase.to_string(),
                    calls: 1,
                    windows: 1,
                    total_ns: (share * 1000.0) as u64,
                    share,
                    p50_window_ns: 0.0,
                    p99_window_ns: 0.0,
                    allocs: 0,
                    alloc_bytes: 0,
                })
                .collect();
            report
        };
        let reps = [
            rep(&[("deliver_dup", 0.6), ("expire_dup", 0.4)]),
            rep(&[("deliver_dup", 0.6), ("expire_dup", 0.4)]),
            rep(&[("expire_dup", 0.95), ("deliver_dup", 0.05)]),
            rep(&[("deliver_dup", 0.6), ("expire_dup", 0.4)]),
            rep(&[("deliver_dup", 1.0)]),
        ];
        let rec = HistoryRecord::new("bench_sweep").phases_from(&reps);
        let share = |name: &str| rec.phases.iter().find(|p| p.phase == name).unwrap();
        assert_eq!(share("deliver_dup").share, 0.6);
        assert_eq!(share("deliver_dup").total_ns, 600);
        assert_eq!(share("expire_dup").share, 0.4);
        assert_eq!(rec.phases[0].phase, "deliver_dup", "busiest first");
    }
}
