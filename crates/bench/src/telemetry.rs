//! Env-gated JSONL export shared by every experiment binary.
//!
//! All helpers are silent no-ops when `STP_TELEMETRY` is unset or empty,
//! so the tables the binaries print to stdout stay byte-identical to the
//! committed `results/*.txt`. Set the variable to a path to append JSON
//! Lines there (several binaries can share one file, as `run_all` does),
//! or to `-` to interleave them on stdout. Failures to open or write the
//! sink are reported on stderr and never abort an experiment: telemetry
//! is an observer, not a participant.

use stp_sim::{ExperimentSummary, SweepOutcome, TelemetryLine, TelemetryWriter};

/// The writer configured by `STP_TELEMETRY`, or `None` when telemetry is
/// off or the sink failed to open (reported on stderr).
pub fn writer() -> Option<TelemetryWriter> {
    match TelemetryWriter::from_env() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("telemetry: cannot open sink, export disabled: {e}");
            None
        }
    }
}

/// Exports a whole sweep under an experiment tag: one `{"run": …}` line
/// per run, then the aggregate `{"report": …}` line.
pub fn export_sweep(experiment: &str, outcome: &SweepOutcome) {
    if let Some(mut w) = writer() {
        if let Err(e) = w.export_outcome(experiment, outcome) {
            eprintln!("telemetry: sweep export failed for {experiment}: {e}");
        }
    }
}

/// Exports an experiment digest — the one line every binary emits, even
/// the ones whose output is a certificate rather than a sweep.
pub fn export_summary(experiment: &str, rows: usize, ok: bool) {
    let summary = ExperimentSummary {
        experiment: experiment.to_string(),
        rows,
        ok,
    };
    export(experiment, [TelemetryLine::Summary(summary)]);
}

/// Exports telemetry lines (stabilization probes, churn-bench lanes,
/// fleet snapshots, profiler reports, …) produced under an experiment
/// tag, then flushes. A lazy iterator's lines are built only when
/// telemetry is on.
pub fn export(experiment: &str, lines: impl IntoIterator<Item = TelemetryLine>) {
    if let Some(mut w) = writer() {
        let result = lines
            .into_iter()
            .try_for_each(|line| w.emit(&line))
            .and_then(|()| w.flush());
        if let Err(e) = result {
            eprintln!("telemetry: export failed for {experiment}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_noops_without_the_env_var() {
        // The test runner never sets STP_TELEMETRY, so this must not
        // write anywhere or panic.
        assert!(writer().is_none() || std::env::var("STP_TELEMETRY").is_ok());
        export_summary("test", 0, true);
    }
}
