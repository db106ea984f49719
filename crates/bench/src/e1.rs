//! **E1 — Theorem 1 achievability.** The tight protocol solves
//! `X`-STP(dup) for the full repetition-free family (`|X| = α(m)`): every
//! sequence completes safely under duplication-storm, reorder-maximizing
//! and random adversaries.

use serde::{Deserialize, Serialize};
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_core::alpha::alpha;
use stp_core::event::TraceMode;
use stp_protocols::{ResendPolicy, TightFamily};
use stp_sim::{SweepEngine, SweepSpec};

/// One row of the E1 table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E1Row {
    /// Alphabet (= domain) size.
    pub m: u16,
    /// `α(m)`: number of sequences transmitted.
    pub alpha: u128,
    /// Adversary label.
    pub adversary: String,
    /// Total runs (sequences × seeds).
    pub runs: usize,
    /// Runs that delivered the whole input safely.
    pub complete: usize,
    /// Mean messages sent per delivered item.
    pub sends_per_item: f64,
}

/// The adversaries E1 sweeps.
pub fn adversaries() -> Vec<(&'static str, SchedulerSpec)> {
    vec![
        ("dup-storm", SchedulerSpec::DupStorm { p_deliver: 0.9 }),
        ("reorder-max", SchedulerSpec::Reorder),
        ("random-0.5", SchedulerSpec::Random { p_deliver: 0.5 }),
    ]
}

/// The sweep spec E1 uses for alphabet size `m` under one adversary.
/// Stats-only: the table needs counters, not event traces, so the sweep
/// runs trace-free and each run's stats are the world's own counters.
pub fn spec_for(m: u16, seeds_per_case: u64, scheduler: SchedulerSpec) -> SweepSpec {
    SweepSpec::new(ChannelSpec::Dup, scheduler)
        .max_steps(4_000 * m as u64)
        .seeds(0..seeds_per_case)
        .trace_mode(TraceMode::Off)
}

/// Runs E1 for `m = 1..=max_m` with `seeds_per_case` seeds per adversary.
pub fn run(max_m: u16, seeds_per_case: u64) -> Vec<E1Row> {
    let mut rows = Vec::new();
    for m in 1..=max_m {
        let family = TightFamily::new(m, ResendPolicy::Once);
        for (label, scheduler) in adversaries() {
            let spec = spec_for(m, seeds_per_case, scheduler).threads(1);
            let outcome = SweepEngine::new(spec).run(&family);
            crate::telemetry::export_sweep("e1", &outcome);
            rows.push(E1Row {
                m,
                alpha: alpha(m as u32).expect("small m"),
                adversary: label.to_string(),
                runs: outcome.len(),
                complete: outcome.len() - outcome.failures.len(),
                sends_per_item: outcome.mean_sends_per_item().unwrap_or(0.0),
            });
        }
    }
    rows
}

/// Renders the table.
pub fn render(rows: &[E1Row]) -> String {
    crate::table::render(
        &[
            "m",
            "alpha(m)",
            "adversary",
            "runs",
            "complete",
            "sends/item",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.m.to_string(),
                    r.alpha.to_string(),
                    r.adversary.clone(),
                    r.runs.to_string(),
                    r.complete.to_string(),
                    format!("{:.2}", r.sends_per_item),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_all_runs_complete_for_small_m() {
        let rows = run(3, 2);
        assert_eq!(rows.len(), 9); // 3 alphabets × 3 adversaries
        for r in &rows {
            assert_eq!(
                r.complete, r.runs,
                "m={} {}: achievability must hold",
                r.m, r.adversary
            );
            assert_eq!(r.runs as u128, r.alpha * 2);
        }
    }

    #[test]
    fn e1_table_renders() {
        let rows = run(2, 1);
        let t = render(&rows);
        assert!(t.contains("dup-storm"));
        assert!(t.contains("alpha(m)"));
    }
}
