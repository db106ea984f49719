//! What a sweep of a protocol family over its claimed sequence set
//! produces — the workhorse behind the achievability experiments (E1,
//! E3). The sweep itself is [`SweepEngine`](crate::engine::SweepEngine):
//! describe the grid with a [`SweepSpec`](crate::engine::SweepSpec) and
//! call [`SweepEngine::run`](crate::engine::SweepEngine::run); every
//! thread count produces the same [`SweepOutcome`] in the same order.

use crate::metrics::{RunStats, SweepReport};
use crate::world::World;
use stp_channel::{Channel, Scheduler};
use stp_core::data::DataSeq;
use stp_core::event::{Step, Trace};
use stp_protocols::ProtocolFamily;

/// One run of one grid cell: a family member under one adversary recipe
/// and one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberRun {
    /// The input sequence of the run.
    pub input: DataSeq,
    /// The adversary seed.
    pub seed: u64,
    /// Index into the spec's scheduler list that drove this run.
    pub scheduler: usize,
    /// The run's statistics.
    pub stats: RunStats,
    /// The recorded trace — `None` when the sweep ran with
    /// [`TraceMode::Off`](stp_core::event::TraceMode::Off).
    pub trace: Option<Trace>,
}

/// The aggregate outcome of a sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Per-(scheduler, sequence, seed) results in grid order.
    pub runs: Vec<MemberRun>,
    /// Sequences that failed to complete under some seed.
    pub failures: Vec<(DataSeq, u64)>,
}

impl SweepOutcome {
    /// Packages finished runs, deriving the failure list.
    pub fn from_runs(runs: Vec<MemberRun>) -> Self {
        let failures = runs
            .iter()
            .filter(|r| !r.stats.is_complete())
            .map(|r| (r.input.clone(), r.seed))
            .collect();
        SweepOutcome { runs, failures }
    }

    /// Sweep-wide distributions, folded from every run's statistics in
    /// grid order on each call.
    pub fn report(&self) -> SweepReport {
        let mut report = SweepReport::new();
        for r in &self.runs {
            report.observe(&r.stats);
        }
        report
    }

    /// Whether every member completed safely under every seed.
    pub fn all_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of runs executed.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether no runs were executed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Mean messages-per-item over complete runs (`None` if none).
    pub fn mean_sends_per_item(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|r| r.stats.sends_per_item())
            .collect();
        if rates.is_empty() {
            None
        } else {
            Some(rates.iter().sum::<f64>() / rates.len() as f64)
        }
    }

    /// The worst inter-write gap observed across all runs.
    pub fn worst_gap(&self) -> Option<Step> {
        self.runs.iter().filter_map(|r| r.stats.max_gap()).max()
    }
}

/// Runs one family member once and returns the trace.
pub fn run_family_member(
    family: &dyn ProtocolFamily,
    x: &DataSeq,
    channel: Box<dyn Channel>,
    scheduler: Box<dyn Scheduler>,
    max_steps: Step,
) -> Trace {
    let mut world = World::builder(x.clone())
        .sender(family.sender_for(x))
        .receiver(family.receiver())
        .channel(channel)
        .scheduler(scheduler)
        .build()
        .expect("all components supplied");
    world.run_until(max_steps, World::is_complete);
    world.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SweepEngine, SweepSpec};
    use stp_channel::{ChannelSpec, SchedulerSpec};
    use stp_core::alpha::alpha;
    use stp_protocols::{NaiveFamily, ResendPolicy, TightFamily};

    #[test]
    fn tight_dup_sweep_is_fully_complete_under_storms() {
        let family = TightFamily::new(3, ResendPolicy::Once);
        let spec = SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
            .max_steps(5_000)
            .seeds([0, 7, 42])
            .threads(1);
        let outcome = SweepEngine::new(spec).run(&family);
        assert!(outcome.all_complete(), "failures: {:?}", outcome.failures);
        assert_eq!(outcome.len() as u128, alpha(3).unwrap() * 3);
        assert!(outcome.mean_sends_per_item().unwrap() >= 1.0);
    }

    #[test]
    fn tight_del_sweep_is_fully_complete_under_drops() {
        let family = TightFamily::new(2, ResendPolicy::EveryTick);
        let spec = SweepSpec::new(
            ChannelSpec::Del,
            SchedulerSpec::DropHeavy {
                p_drop: 0.3,
                p_deliver: 0.6,
            },
        )
        .max_steps(20_000)
        .seeds([3, 4])
        .threads(1);
        let outcome = SweepEngine::new(spec).run(&family);
        assert!(outcome.all_complete(), "failures: {:?}", outcome.failures);
        assert!(outcome.worst_gap().is_some());
    }

    #[test]
    fn naive_overcapacity_family_fails_some_member() {
        // Theorem 1 in action: the claimed family exceeds α(m), so some
        // sequence must fail even under a *friendly* adversary.
        let family = NaiveFamily::new(2, 2);
        let spec = SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
            .max_steps(2_000)
            .seeds([0])
            .threads(1);
        let outcome = SweepEngine::new(spec).run(&family);
        assert!(
            !outcome.all_complete(),
            "an over-capacity family cannot complete everywhere"
        );
        // The repetition-containing sequences are among the failures.
        assert!(outcome
            .failures
            .iter()
            .any(|(x, _)| !x.is_repetition_free()));
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep() {
        let family = TightFamily::new(3, ResendPolicy::Once);
        let spec = SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
            .max_steps(5_000)
            .seeds([0, 1])
            .threads(4);
        let serial = SweepEngine::new(spec.clone().threads(1)).run(&family);
        let parallel = SweepEngine::new(spec).run(&family);
        assert_eq!(serial.len(), parallel.len());
        assert!(parallel.all_complete());
        assert_eq!(serial.runs, parallel.runs);
    }

    #[test]
    fn run_family_member_returns_trace() {
        let family = TightFamily::new(2, ResendPolicy::Once);
        let x = DataSeq::from_indices([1, 0]);
        let trace = run_family_member(
            &family,
            &x,
            Box::new(stp_channel::DupChannel::new()),
            Box::new(stp_channel::EagerScheduler::new()),
            1_000,
        );
        assert_eq!(trace.output(), x);
    }
}
