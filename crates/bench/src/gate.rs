//! Noise-aware benchmark regression gates over the durable history.
//!
//! Two kinds of gate guard the perf trajectory:
//!
//! 1. **Static budgets and floors** — absolute bounds injected by CI as
//!    environment variables (`PROF_BUDGET=0.05`, `SESSIONS_FLOOR=…`).
//!    The numbers live in the workflow file, not here: loosening one is
//!    a reviewed workflow change, never a silent code change.
//! 2. **Baseline comparison** — the fresh run against the **median** of
//!    its own prior records in `BENCH_history.jsonl`, within a relative
//!    tolerance. The median is the noise-aware choice: a single hot or
//!    cold historical run moves it little, while a mean smears every
//!    past hiccup straight into the gate. Direction is inferred from
//!    the metric name — `*_secs` and `*_overhead` must not rise,
//!    `*_per_sec`, `scaling_*` and `*_completed` must not fall; other
//!    metrics are informational and never gated. Per-phase busy-time
//!    shares are gated the same way, so a regression report names the
//!    *offending phase*, not just a slower total.
//!
//! Baseline gates stay silent until [`MIN_HISTORY`] prior records
//! exist: two data points are weather, not a trajectory.

use crate::history::HistoryRecord;
use std::fmt;

/// Prior records required before baseline gates arm. Below this the
/// median is too easily owned by one noisy run.
pub const MIN_HISTORY: usize = 3;

/// Default relative tolerance for baseline comparison (±30%): generous
/// because CI hosts differ run to run; the static budgets stay tight.
pub const DEFAULT_TOLERANCE: f64 = 0.30;

/// Absolute slack added to per-phase share gates: a phase share can
/// wander a couple of points without any code changing (sampling noise),
/// so only drifts beyond `median * (1 + tol) + SHARE_SLACK` fail.
pub const SHARE_SLACK: f64 = 0.02;

/// Absolute slack added to `*_overhead` baseline gates. Overheads are
/// near-zero ratios, so pure relative tolerance is the wrong shape: a
/// 0.02 → 0.04 wobble is +100% relative but two points absolute and
/// comfortably inside every static budget. Only drifts beyond
/// `median * (1 + tol) + OVERHEAD_SLACK` fail — the static budget still
/// caps the absolute value.
pub const OVERHEAD_SLACK: f64 = 0.03;

/// One failed gate: which metric, what it was, what it was allowed.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The bench the metric came from (`bench_sweep`, …).
    pub bench: String,
    /// The offending metric (`prof_overhead`, `phase:sender_step`, …).
    pub metric: String,
    /// The measured value.
    pub value: f64,
    /// The bound it violated.
    pub bound: f64,
    /// How the bound was derived (`budget`, `floor`, `baseline`).
    pub kind: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} = {:.4} violates {} {:.4}",
            self.bench, self.metric, self.value, self.kind, self.bound
        )
    }
}

/// One phase of the record under test beside its own history: what a
/// failed gate prints so the report says which phase moved.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMove {
    /// The phase (`scheduler_decide`, …).
    pub phase: String,
    /// Its busy-time share in the record under test.
    pub share: f64,
    /// The median of its share over the bench's prior records that carry
    /// it; `None` when none do.
    pub median: Option<f64>,
}

impl PhaseMove {
    /// How far the share moved from its history median (0 without one).
    pub fn delta(&self) -> f64 {
        self.median.map_or(0.0, |m| self.share - m)
    }
}

impl fmt::Display for PhaseMove {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.median {
            Some(m) => write!(
                f,
                "phase:{} share {:.4} vs median {:.4} ({:+.4})",
                self.phase,
                self.share,
                m,
                self.delta()
            ),
            None => write!(
                f,
                "phase:{} share {:.4} (no history)",
                self.phase, self.share
            ),
        }
    }
}

/// The phase shares of `current` beside their medians over the same
/// bench's records in `history`, the largest move (either way) first.
/// A phase with no history counts as unmoved, so it sorts last.
pub fn phase_moves(history: &[HistoryRecord], current: &HistoryRecord) -> Vec<PhaseMove> {
    let mut moves: Vec<PhaseMove> = current
        .phases
        .iter()
        .map(|p| {
            let samples: Vec<f64> = history
                .iter()
                .filter(|r| r.bench == current.bench)
                .filter_map(|r| r.phases.iter().find(|q| q.phase == p.phase))
                .map(|q| q.share)
                .collect();
            PhaseMove {
                phase: p.phase.clone(),
                share: p.share,
                median: (!samples.is_empty()).then(|| median(samples)),
            }
        })
        .collect();
    moves.sort_by(|a, b| b.delta().abs().total_cmp(&a.delta().abs()));
    moves
}

/// Reads a bound from the environment; `None` (gate off) when unset,
/// empty, or unparseable (unparseable is reported on stderr).
pub fn env_bound(var: &str) -> Option<f64> {
    let raw = std::env::var(var).ok()?;
    let raw = raw.trim();
    if raw.is_empty() {
        return None;
    }
    match raw.parse::<f64>() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("bench_gate: ignoring unparseable {var}={raw:?}");
            None
        }
    }
}

/// Gates one metric against an upper bound: present and `<= budget`.
/// A record that *lacks* the metric fails the gate — a budget whose
/// metric silently vanished from the bench must not pass green.
pub fn check_budget(record: &HistoryRecord, metric: &str, budget: f64) -> Option<Violation> {
    let value = record.metrics.get(metric).copied().unwrap_or(f64::INFINITY);
    (value > budget).then(|| Violation {
        bench: record.bench.clone(),
        metric: metric.to_string(),
        value,
        bound: budget,
        kind: "budget".to_string(),
    })
}

/// Gates one metric against a lower bound: present and `>= floor`.
pub fn check_floor(record: &HistoryRecord, metric: &str, floor: f64) -> Option<Violation> {
    let value = record
        .metrics
        .get(metric)
        .copied()
        .unwrap_or(f64::NEG_INFINITY);
    (value < floor).then(|| Violation {
        bench: record.bench.clone(),
        metric: metric.to_string(),
        value,
        bound: floor,
        kind: "floor".to_string(),
    })
}

/// The median of a non-empty sample (mean of the middle two when even).
pub(crate) fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Which way a metric is allowed to move, inferred from its name.
fn lower_is_better(metric: &str) -> Option<bool> {
    if metric.ends_with("_secs") || metric.ends_with("_overhead") {
        Some(true)
    } else if metric.contains("per_sec")
        || metric.starts_with("scaling_")
        || metric.ends_with("_completed")
    {
        Some(false)
    } else {
        None
    }
}

/// Compares `current` against the median of its own bench's history,
/// metric by metric and phase by phase, within relative `tolerance`.
///
/// Only prior records for the same bench count, and at least
/// [`MIN_HISTORY`] of them must carry a metric before it is gated.
/// Metrics whose name encodes no direction are never gated.
pub fn baseline_violations(
    history: &[HistoryRecord],
    current: &HistoryRecord,
    tolerance: f64,
) -> Vec<Violation> {
    let prior: Vec<&HistoryRecord> = history
        .iter()
        .filter(|r| r.bench == current.bench)
        .collect();
    let mut violations = Vec::new();

    for (metric, &value) in &current.metrics {
        let Some(lower_better) = lower_is_better(metric) else {
            continue;
        };
        let samples: Vec<f64> = prior
            .iter()
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect();
        if samples.len() < MIN_HISTORY {
            continue;
        }
        let base = median(samples);
        let slack = if metric.ends_with("_overhead") {
            OVERHEAD_SLACK
        } else {
            0.0
        };
        let (bound, bad) = if lower_better {
            let bound = base * (1.0 + tolerance) + slack;
            (bound, value > bound)
        } else {
            let bound = base * (1.0 - tolerance);
            (bound, value < bound)
        };
        if bad {
            violations.push(Violation {
                bench: current.bench.clone(),
                metric: metric.clone(),
                value,
                bound,
                kind: format!("baseline (median of {} runs)", prior.len()),
            });
        }
    }

    for phase in &current.phases {
        let samples: Vec<f64> = prior
            .iter()
            .filter_map(|r| {
                r.phases
                    .iter()
                    .find(|p| p.phase == phase.phase)
                    .map(|p| p.share)
            })
            .collect();
        if samples.len() < MIN_HISTORY {
            continue;
        }
        let base = median(samples);
        let bound = base * (1.0 + tolerance) + SHARE_SLACK;
        if phase.share > bound {
            violations.push(Violation {
                bench: current.bench.clone(),
                metric: format!("phase:{}", phase.phase),
                value: phase.share,
                bound,
                kind: format!("baseline share (median of {} runs)", prior.len()),
            });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::PhaseShare;

    fn rec(bench: &str, metric: &str, value: f64) -> HistoryRecord {
        HistoryRecord::new(bench).metric(metric, value)
    }

    #[test]
    fn budget_passes_within_and_fails_over_and_on_absence() {
        let r = rec("bench_sweep", "prof_overhead", 0.03);
        assert!(check_budget(&r, "prof_overhead", 0.05).is_none());
        let v = check_budget(&r, "prof_overhead", 0.02).expect("over budget");
        assert_eq!(v.metric, "prof_overhead");
        assert!(v.to_string().contains("prof_overhead"));
        // A vanished metric fails rather than silently passing.
        assert!(check_budget(&r, "no_such_metric", 1.0).is_some());
    }

    #[test]
    fn floor_fails_under_and_on_absence() {
        let r = rec("bench_sessions", "sessions_per_sec_4", 300_000.0);
        assert!(check_floor(&r, "sessions_per_sec_4", 250_000.0).is_none());
        assert!(check_floor(&r, "sessions_per_sec_4", 400_000.0).is_some());
        assert!(check_floor(&r, "gone", 0.0).is_some());
    }

    #[test]
    fn synthetic_regression_trips_the_baseline_gate() {
        // Three clean historical runs at ~1.0s, then a run 50% slower:
        // with ±30% tolerance the gate must fire and name the metric.
        let history = vec![
            rec("bench_sweep", "engine_secs", 1.00),
            rec("bench_sweep", "engine_secs", 0.98),
            rec("bench_sweep", "engine_secs", 1.02),
        ];
        let slow = rec("bench_sweep", "engine_secs", 1.50);
        let violations = baseline_violations(&history, &slow, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].metric, "engine_secs");
        assert!(violations[0].value > violations[0].bound);

        // An *improvement* on a lower-is-better metric never fires.
        let fast = rec("bench_sweep", "engine_secs", 0.50);
        assert!(baseline_violations(&history, &fast, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn overhead_jitter_inside_the_absolute_slack_never_fires() {
        // 0.02 → 0.04 is +100% relative but two points absolute:
        // baseline gates must leave that to the static budget.
        let history = vec![
            rec("bench_sweep", "prof_overhead", 0.020),
            rec("bench_sweep", "prof_overhead", 0.022),
            rec("bench_sweep", "prof_overhead", 0.018),
        ];
        let wobble = rec("bench_sweep", "prof_overhead", 0.040);
        assert!(baseline_violations(&history, &wobble, DEFAULT_TOLERANCE).is_empty());
        // A real blow-up still fires.
        let blown = rec("bench_sweep", "prof_overhead", 0.30);
        let violations = baseline_violations(&history, &blown, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "prof_overhead");
    }

    #[test]
    fn throughput_collapse_trips_the_gate_downward() {
        let history = vec![
            rec("bench_sessions", "sessions_per_sec_4", 300_000.0),
            rec("bench_sessions", "sessions_per_sec_4", 310_000.0),
            rec("bench_sessions", "sessions_per_sec_4", 295_000.0),
        ];
        let collapsed = rec("bench_sessions", "sessions_per_sec_4", 100_000.0);
        let violations = baseline_violations(&history, &collapsed, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "sessions_per_sec_4");
    }

    #[test]
    fn phase_share_regression_names_the_offending_phase() {
        let with_phase = |share: f64| {
            let mut r = HistoryRecord::new("bench_sweep");
            r.phases = vec![
                PhaseShare {
                    phase: "sender_step".to_string(),
                    share,
                    total_ns: (share * 1e9) as u64,
                },
                PhaseShare {
                    phase: "receiver_step".to_string(),
                    share: 0.20,
                    total_ns: 200_000_000,
                },
            ];
            r
        };
        let history = vec![with_phase(0.30), with_phase(0.31), with_phase(0.29)];
        let bloated = with_phase(0.60);
        let violations = baseline_violations(&history, &bloated, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].metric, "phase:sender_step");
    }

    #[test]
    fn phase_moves_list_the_largest_move_first() {
        let with_shares = |bench: &str, shares: &[(&str, f64)]| {
            let mut r = HistoryRecord::new(bench);
            r.phases = shares
                .iter()
                .map(|&(phase, share)| PhaseShare {
                    phase: phase.to_string(),
                    share,
                    total_ns: (share * 1e9) as u64,
                })
                .collect();
            r
        };
        let history = vec![
            with_shares(
                "bench_sweep",
                &[("sender_step", 0.30), ("scheduler_decide", 0.40)],
            ),
            with_shares(
                "bench_sweep",
                &[("sender_step", 0.32), ("scheduler_decide", 0.38)],
            ),
            with_shares("bench_sweep", &[("sender_step", 0.31)]),
            // Another bench's shares never count.
            with_shares("bench_sessions", &[("admission", 0.90)]),
        ];
        let current = with_shares(
            "bench_sweep",
            &[
                ("admission", 0.05),
                ("sender_step", 0.33),
                ("scheduler_decide", 0.20),
            ],
        );
        let moves = phase_moves(&history, &current);
        let order: Vec<&str> = moves.iter().map(|m| m.phase.as_str()).collect();
        assert_eq!(order, ["scheduler_decide", "sender_step", "admission"]);
        assert_eq!(moves[0].median, Some(0.39));
        assert!((moves[0].delta() + 0.19).abs() < 1e-12);
        assert_eq!(moves[1].median, Some(0.31));
        assert_eq!(moves[2].median, None);
        assert!(moves[0].to_string().contains("vs median 0.3900 (-0.1900)"));
        assert!(moves[2].to_string().ends_with("(no history)"));
    }

    #[test]
    fn gates_stay_silent_until_enough_history_exists() {
        let history = vec![
            rec("bench_sweep", "engine_secs", 1.0),
            rec("bench_sweep", "engine_secs", 1.0),
        ];
        let slow = rec("bench_sweep", "engine_secs", 10.0);
        assert!(baseline_violations(&history, &slow, DEFAULT_TOLERANCE).is_empty());
        // Other benches' records don't count toward this bench's history.
        let other = vec![
            rec("bench_sessions", "engine_secs", 1.0),
            rec("bench_sessions", "engine_secs", 1.0),
            rec("bench_sessions", "engine_secs", 1.0),
        ];
        assert!(baseline_violations(&other, &slow, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn undirected_metrics_are_never_gated() {
        let history = vec![
            rec("bench_sweep", "speedup", 4.0),
            rec("bench_sweep", "speedup", 4.0),
            rec("bench_sweep", "speedup", 4.0),
        ];
        // `speedup` encodes no direction suffix: informational only.
        let odd = rec("bench_sweep", "speedup", 0.1);
        assert!(baseline_violations(&history, &odd, DEFAULT_TOLERANCE).is_empty());
    }
}
