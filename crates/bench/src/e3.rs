//! **E3 — Theorem 2 achievability.** The retransmitting tight protocol is
//! a *bounded* solution to `X`-STP(del) at `|X| = α(m)`:
//!
//! * every repetition-free sequence completes safely under deletion-heavy
//!   adversaries, and
//! * after a one-shot fault injected right after item `i` is learnt, the
//!   receiver learns item `i+1` within a constant number of steps —
//!   independent of both `i` and the input length. That constant is an
//!   empirical `f(i)` witness for Definition 2.

use serde::{Deserialize, Serialize};
use stp_channel::{CampaignScheduler, ChannelSpec, DelChannel, EagerScheduler, SchedulerSpec};
use stp_core::data::DataSeq;
use stp_core::event::{Step, TraceMode};
use stp_protocols::{ResendPolicy, TightFamily, TightReceiver, TightSender};
use stp_sim::{burst_plan, SweepEngine, SweepSpec, World};

/// One row of the E3 completeness table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E3CompletenessRow {
    /// Alphabet size.
    pub m: u16,
    /// Total runs.
    pub runs: usize,
    /// Completed runs.
    pub complete: usize,
    /// Worst observed gap between consecutive writes.
    pub worst_gap: Step,
}

/// One row of the E3 recovery profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E3RecoveryRow {
    /// Alphabet size (= input length here: the input is a permutation).
    pub m: u16,
    /// Item index `i` after which the fault strikes (1-based).
    pub fault_after_item: usize,
    /// Steps from the fault to the write of item `i+1`.
    pub recovery_steps: Step,
}

/// Completeness sweep under deletion-heavy adversaries.
pub fn run_completeness(max_m: u16, seeds: u64) -> Vec<E3CompletenessRow> {
    let mut rows = Vec::new();
    for m in 1..=max_m {
        let family = TightFamily::new(m, ResendPolicy::EveryTick);
        let spec = SweepSpec::new(
            ChannelSpec::Del,
            SchedulerSpec::DropHeavy {
                p_drop: 0.3,
                p_deliver: 0.6,
            },
        )
        .max_steps(30_000)
        .seeds(0..seeds)
        .trace_mode(TraceMode::Off)
        .threads(1);
        let outcome = SweepEngine::new(spec).run(&family);
        crate::telemetry::export_sweep("e3", &outcome);
        rows.push(E3CompletenessRow {
            m,
            runs: outcome.len(),
            complete: outcome.len() - outcome.failures.len(),
            worst_gap: outcome.worst_gap().unwrap_or(0),
        });
    }
    rows
}

/// Builds the tight-del world on the identity permutation of length `m`.
fn perm_world(m: u16, fault_at: Option<Step>) -> World {
    let input: DataSeq = DataSeq::from_indices(0..m);
    let sched: Box<dyn stp_channel::Scheduler> = match fault_at {
        Some(at) => Box::new(CampaignScheduler::new(
            Box::new(EagerScheduler::new()),
            burst_plan(at, 1),
        )),
        None => Box::new(EagerScheduler::new()),
    };
    World::builder(input.clone())
        .sender(Box::new(TightSender::new(
            input,
            m,
            ResendPolicy::EveryTick,
        )))
        .receiver(Box::new(TightReceiver::new(m, ResendPolicy::EveryTick)))
        .channel(Box::new(DelChannel::new()))
        .scheduler(sched)
        .build()
        .expect("all components supplied")
}

/// Measures recovery after a fault following each item `i` of the identity
/// permutation over `m` items.
pub fn run_recovery(m: u16) -> Vec<E3RecoveryRow> {
    // Reference run: when is each item written without faults?
    let mut base = perm_world(m, None);
    base.run_until(100_000, World::is_complete);
    let base_writes = base.trace().write_steps();
    let mut rows = Vec::new();
    for i in 1..m as usize {
        let fault_at = base_writes[i - 1] + 1;
        let mut w = perm_world(m, Some(fault_at));
        w.run_until(100_000, World::is_complete);
        let writes = w.trace().write_steps();
        assert!(
            writes.len() > i,
            "tight-del must recover and write item {} (m={m})",
            i + 1
        );
        rows.push(E3RecoveryRow {
            m,
            fault_after_item: i,
            recovery_steps: writes[i].saturating_sub(fault_at),
        });
    }
    rows
}

/// Renders the completeness table.
pub fn render_completeness(rows: &[E3CompletenessRow]) -> String {
    crate::table::render(
        &["m", "runs", "complete", "worst gap"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.m.to_string(),
                    r.runs.to_string(),
                    r.complete.to_string(),
                    r.worst_gap.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Renders the recovery profile.
pub fn render_recovery(rows: &[E3RecoveryRow]) -> String {
    crate::table::render(
        &["m", "fault after item i", "steps to learn i+1"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.m.to_string(),
                    r.fault_after_item.to_string(),
                    r.recovery_steps.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_completeness_holds() {
        for r in run_completeness(3, 3) {
            assert_eq!(r.complete, r.runs, "m={}", r.m);
        }
    }

    #[test]
    fn e3_recovery_is_flat_and_small() {
        let rows = run_recovery(8);
        let max = rows.iter().map(|r| r.recovery_steps).max().unwrap();
        let min = rows.iter().map(|r| r.recovery_steps).min().unwrap();
        assert!(max <= 8, "recovery should be a small constant, got {max}");
        assert!(
            max.saturating_sub(min) <= 4,
            "recovery must not grow with i: {rows:?}"
        );
        // And it is flat across input lengths too.
        let short = run_recovery(4);
        let short_max = short.iter().map(|r| r.recovery_steps).max().unwrap();
        assert!(max <= short_max + 4, "no growth with |X|");
    }
}
