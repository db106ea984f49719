//! **E11 — fault campaigns and recovery envelopes.** Three exhibits from
//! the chaos engine:
//!
//! 1. *Recovery envelopes* (Definition 2, measured end-to-end): a silence
//!    window is fired right after the receiver writes item 0, via an
//!    `OnWrite` campaign trigger, and we count the steps until the next
//!    write. Sweeping the input length separates the protocol classes —
//!    the tight (bounded) protocol's recovery is flat in `|X|`, the
//!    Section-5 hybrid's grows with it.
//! 2. *Composite-campaign survival*: the tight-del pair rides out a
//!    campaign of four distinct fault actions (deletion bursts, targeted
//!    strikes, silence windows, reorder floods) on a deleting channel,
//!    completing safely.
//! 3. *Shrunk witness*: a kitchen-sink campaign that drives the
//!    over-capacity naive family into a genuine safety violation is
//!    shrunk to a one-clause plan and packaged as a bit-identically
//!    replayable witness.

use serde::{Deserialize, Serialize};
use stp_channel::campaign::{Direction, FaultAction, FaultClause, FaultPlan, Trigger};
use stp_channel::{ChannelSpec, DelChannel, DupChannel, EagerScheduler, SchedulerSpec};
use stp_core::data::DataSeq;
use stp_core::event::Step;
use stp_protocols::{HybridFamily, NaiveFamily, ProtocolFamily, ResendPolicy, TightFamily};
use stp_sim::{
    classify, is_one_minimal, probe_recovery, run_with_plan, shrink_to_witness, CampaignJudge,
    SloConfig, Witness,
};

/// One recovery-envelope measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E11Row {
    /// Protocol label.
    pub protocol: String,
    /// Input length.
    pub n: usize,
    /// Index whose write triggered the fault.
    pub index: usize,
    /// Steps from the fault to the next write.
    pub recovery: Option<Step>,
    /// Steps from the fault to completion.
    pub completion: Option<Step>,
}

/// Measures the envelopes: strike right after item `index` is written,
/// sweep the input length.
pub fn run_envelopes(sizes: &[usize], index: usize) -> Vec<E11Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let input = DataSeq::from_indices(0..n as u16);

        let tight = TightFamily::new(n as u16, ResendPolicy::EveryTick);
        let cfg = SloConfig::silence(6, 100_000);
        let p = probe_recovery(
            &tight,
            &input,
            &ChannelSpec::Del,
            &SchedulerSpec::Eager,
            &cfg,
            index,
        );
        rows.push(E11Row {
            protocol: "tight-del (bounded)".into(),
            n,
            index,
            recovery: p.as_ref().and_then(|p| p.steps_to_next_write),
            completion: p.as_ref().and_then(|p| p.steps_to_completion),
        });

        let hybrid = HybridFamily::new(n as u16, 4, n);
        let cfg = SloConfig::silence(8, 100_000);
        let p = probe_recovery(
            &hybrid,
            &input,
            &ChannelSpec::Timed { deadline: 4 },
            &SchedulerSpec::Eager,
            &cfg,
            index,
        );
        rows.push(E11Row {
            protocol: "hybrid-weakly-bounded".into(),
            n,
            index,
            recovery: p.as_ref().and_then(|p| p.steps_to_next_write),
            completion: p.as_ref().and_then(|p| p.steps_to_completion),
        });
    }
    rows
}

/// Renders the envelope table.
pub fn render_envelopes(rows: &[E11Row]) -> String {
    let fmt = |o: Option<Step>| o.map_or_else(|| "-".into(), |v| v.to_string());
    crate::table::render(
        &[
            "protocol",
            "|X|",
            "struck index",
            "steps to next write",
            "steps to completion",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.protocol.clone(),
                    r.n.to_string(),
                    r.index.to_string(),
                    fmt(r.recovery),
                    fmt(r.completion),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Outcome of the composite-campaign survival run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Distinct fault actions in the campaign.
    pub actions: usize,
    /// Input length.
    pub n: usize,
    /// Steps the run took.
    pub steps: Step,
    /// Whether the whole input was written.
    pub completed: bool,
    /// Whether safety held throughout.
    pub safe: bool,
}

/// The four-action campaign the tight-del pair must survive.
pub fn composite_plan() -> FaultPlan {
    FaultPlan::new(2024)
        .with(
            FaultClause::new(
                FaultAction::DeletionBurst { copies: 1 },
                Trigger::EveryK {
                    period: 25,
                    offset: 5,
                },
            )
            .repeats(0),
        )
        .with(
            FaultClause::new(
                FaultAction::TargetedStrike { copies: 1 },
                Trigger::OnWrite { index: 2 },
            )
            .direction(Direction::ToReceiver),
        )
        .with(
            FaultClause::new(
                FaultAction::SilenceWindow,
                Trigger::EveryK {
                    period: 40,
                    offset: 10,
                },
            )
            .lasting(4)
            .repeats(3),
        )
        .with(
            FaultClause::new(FaultAction::ReorderFlood, Trigger::AtStep(0))
                .lasting(15)
                .repeats(2),
        )
}

/// Runs the composite campaign against tight-del on a deleting channel.
pub fn run_composite(n: usize) -> CampaignOutcome {
    let input = DataSeq::from_indices(0..n as u16);
    let fam = TightFamily::new(n as u16, ResendPolicy::EveryTick);
    let plan = composite_plan();
    let trace = run_with_plan(
        &fam,
        &input,
        Box::new(DelChannel::new()),
        Box::new(EagerScheduler::new()),
        &plan,
        100_000,
    );
    let violation = classify(&trace, input.len());
    CampaignOutcome {
        actions: 4,
        n,
        steps: trace.steps(),
        completed: trace.output().len() == input.len(),
        safe: !matches!(violation, Some(stp_sim::Violation::Safety { .. })),
    }
}

/// Renders the survival outcome.
pub fn render_composite(o: &CampaignOutcome) -> String {
    crate::table::render(
        &["campaign", "|X|", "steps", "completed", "safe"],
        &[vec![
            format!(
                "{} distinct fault actions on tight-del/DelChannel",
                o.actions
            ),
            o.n.to_string(),
            o.steps.to_string(),
            o.completed.to_string(),
            o.safe.to_string(),
        ]],
    )
}

/// Result of the shrink demo.
#[derive(Debug, Clone)]
pub struct ShrinkDemo {
    /// The shrunk witness.
    pub witness: Witness,
    /// Clauses before shrinking.
    pub clauses_before: usize,
    /// Whether the shrunk plan is 1-minimal.
    pub one_minimal: bool,
    /// Whether the witness script replayed bit-identically to the same
    /// violation.
    pub replay_identical: bool,
}

/// Builds the deliberately failing campaign: a duplication storm (which
/// replays a stale ack to the naive sender) buried among decoy clauses.
pub fn failing_plan() -> FaultPlan {
    FaultPlan::new(11)
        .with(
            FaultClause::new(FaultAction::DuplicationStorm, Trigger::AtStep(0))
                .lasting(400)
                .direction(Direction::Both),
        )
        .with(
            FaultClause::new(
                FaultAction::ReorderFlood,
                Trigger::EveryK {
                    period: 13,
                    offset: 5,
                },
            )
            .lasting(3)
            .repeats(0)
            .direction(Direction::ToReceiver),
        )
        .with(FaultClause::new(FaultAction::SilenceWindow, Trigger::AtStep(37)).lasting(2))
        .with(
            FaultClause::new(
                FaultAction::DeletionBurst { copies: 3 },
                Trigger::AtStep(20),
            )
            .direction(Direction::ToSender),
        )
}

/// Runs the shrink demo: drive the over-capacity naive family into a
/// safety violation, shrink the campaign, and check the witness.
pub fn run_shrink_demo() -> ShrinkDemo {
    let fam = NaiveFamily::new(4, 4);
    let input = DataSeq::from_indices([0u16, 1, 0, 2]);
    let judge = CampaignJudge {
        family: &fam,
        input: &input,
        channel: ChannelSpec::Dup,
        inner: SchedulerSpec::idle(),
        max_steps: 400,
    };
    let original = failing_plan();
    let witness = shrink_to_witness(&judge, &original).expect("the storm campaign violates safety");
    let one_minimal = is_one_minimal(&judge, &witness.plan, witness.violation.kind());
    let (trace, violation) = witness.replay(
        fam.sender_for(&input),
        fam.receiver(),
        Box::new(DupChannel::new()),
    );
    let replay_identical = violation.as_ref() == Some(&witness.violation)
        && stp_sim::script_from_trace(&trace) == witness.script
        && trace.steps() == witness.steps;
    ShrinkDemo {
        witness,
        clauses_before: original.clauses.len(),
        one_minimal,
        replay_identical,
    }
}

/// Renders the shrink demo summary (including the witness JSON).
pub fn render_shrink(demo: &ShrinkDemo) -> String {
    let mut out = crate::table::render(
        &[
            "protocol",
            "clauses before",
            "clauses after",
            "violation",
            "1-minimal",
            "replay identical",
        ],
        &[vec![
            demo.witness.protocol.clone(),
            demo.clauses_before.to_string(),
            demo.witness.plan.clauses.len().to_string(),
            demo.witness.violation.kind().to_string(),
            demo.one_minimal.to_string(),
            demo.replay_identical.to_string(),
        ]],
    );
    out.push_str("\nwitness (replayable JSON):\n");
    out.push_str(&demo.witness.to_json());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_envelopes_separate_the_protocol_classes() {
        let rows = run_envelopes(&[4, 16], 0);
        let get = |proto: &str, n: usize| -> Step {
            rows.iter()
                .find(|r| r.protocol.starts_with(proto) && r.n == n)
                .and_then(|r| r.recovery)
                .unwrap_or_else(|| panic!("{proto}/{n} should recover"))
        };
        let (t4, t16) = (get("tight", 4), get("tight", 16));
        let (h4, h16) = (get("hybrid", 4), get("hybrid", 16));
        assert!(t16 <= t4 + 2, "tight stays flat: {t4} -> {t16}");
        assert!(h16 > h4, "hybrid grows: {h4} -> {h16}");
    }

    #[test]
    fn e11_tight_survives_the_composite_campaign() {
        let o = run_composite(8);
        assert!(o.completed, "{o:?}");
        assert!(o.safe, "{o:?}");
    }

    #[test]
    fn e11_shrink_demo_holds_its_guarantees() {
        let d = run_shrink_demo();
        assert_eq!(d.witness.violation.kind(), "safety");
        assert_eq!(d.witness.plan.clauses.len(), 1);
        assert!(d.one_minimal);
        assert!(d.replay_identical);
    }
}
