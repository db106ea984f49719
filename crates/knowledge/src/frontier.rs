//! The knowledge frontier of a recorded run.
//!
//! The epistemic machinery in [`universe`](crate::universe) evaluates
//! knowledge *exactly* but needs a whole universe of runs. For
//! observability we want something far cheaper: a per-step *frontier*
//! summary of how much each side knows, computable from a single run's
//! trace. [`Frontier`] tracks
//!
//! * the **receiver frontier** — how many items `R` has safely written
//!   (its learned prefix depth `d`) and how many candidate continuations
//!   remain compatible with that knowledge. A repetition-free sequence
//!   over an `m`-symbol alphabet whose first `d` items are pinned down
//!   continues as any repetition-free sequence over the remaining `m − d`
//!   symbols, so the candidate count is exactly
//!   [`alpha`]`(m − d)` — at depth 0 this is the paper's `α(m)`, and it
//!   collapses monotonically toward `α(0) = 1` as `R` learns;
//! * the **sender frontier** — how many distinct acknowledgement values
//!   `S` has received (`DeliverToS`), its depth of knowledge about what
//!   `R` has learned.
//!
//! Each *change* of either quantity is recorded as a [`FrontierPoint`],
//! ready to export as Perfetto counter tracks
//! ([`Frontier::counter_tracks`]) or telemetry JSONL
//! ([`Frontier::frontier_records`]).

use stp_core::alpha::alpha;
use stp_core::event::{Event, Step, Trace};
use stp_sim::telemetry::FrontierRecord;
use stp_sim::trace::CounterTrack;

/// One sample of the knowledge frontier, recorded when it moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierPoint {
    /// The step after which this frontier state holds.
    pub step: Step,
    /// Items the receiver has safely written (its learned prefix).
    pub r_written: usize,
    /// Candidate sequences still compatible with the receiver's
    /// knowledge: `α(m − r_written)`, saturated to `u128::MAX` when the
    /// alphabet is too large for the exact count.
    pub candidates: u128,
    /// Distinct acknowledgement values the sender has received.
    pub s_ack_depth: usize,
}

/// The knowledge frontier of one run, folded from its trace.
///
/// The fold is protocol-agnostic: it reads only the run's writes and
/// deliveries to `S`, so it reports a sound *upper bound* on the
/// candidate set — exactly the reading the crate's soundness note
/// prescribes for sampled knowledge.
#[derive(Debug, Clone)]
pub struct Frontier {
    m: u16,
    points: Vec<FrontierPoint>,
}

impl Frontier {
    /// Folds the frontier of the run `trace` recorded, over an alphabet
    /// of size `m`.
    ///
    /// `trace` must be a [`TraceMode::Full`](stp_core::event::TraceMode::Full)
    /// trace: the fold needs every `DeliverToS` event, which the other
    /// modes do not record.
    pub fn of(m: u16, trace: &Trace) -> Frontier {
        let mut f = Frontier {
            m,
            points: Vec::new(),
        };
        let mut acked = vec![false; usize::from(m)];
        let (mut r_written, mut s_ack_depth) = (0, 0);
        f.points.push(f.point(0, r_written, s_ack_depth));
        let events = trace.events();
        for (i, e) in events.iter().enumerate() {
            match e.event {
                Event::Write { .. } => r_written += 1,
                Event::DeliverToS { msg } => {
                    if let Some(seen) = acked.get_mut(usize::from(msg.0)) {
                        if !*seen {
                            *seen = true;
                            s_ack_depth += 1;
                        }
                    }
                }
                _ => {}
            }
            // After the last event of each step, record the step's state
            // if it moved. A step without events cannot move it.
            let step_ends = events.get(i + 1).is_none_or(|next| next.step != e.step);
            let last = f.points.last().expect("baseline recorded above");
            if step_ends && (r_written, s_ack_depth) != (last.r_written, last.s_ack_depth) {
                f.points.push(f.point(e.step, r_written, s_ack_depth));
            }
        }
        f
    }

    /// The candidate-continuation count at receiver depth `d` (clamped to
    /// the alphabet size): `α(m − d)`, saturated on overflow.
    pub fn candidates_at(&self, d: usize) -> u128 {
        let d = d.min(usize::from(self.m)) as u32;
        alpha(u32::from(self.m) - d).unwrap_or(u128::MAX)
    }

    /// Every recorded frontier movement, in step order. The first point
    /// is the step-0 baseline (`α(m)` candidates, nothing acknowledged).
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// The frontier as Perfetto counter tracks: the receiver's candidate
    /// count (log₁₀, so `α(m)`-scale collapses render visibly) and both
    /// knowledge depths.
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        let mut candidates = Vec::with_capacity(self.points.len());
        let mut written = Vec::with_capacity(self.points.len());
        let mut acks = Vec::with_capacity(self.points.len());
        for p in &self.points {
            candidates.push((p.step, (p.candidates as f64).log10()));
            written.push((p.step, p.r_written as f64));
            acks.push((p.step, p.s_ack_depth as f64));
        }
        vec![
            CounterTrack {
                name: "log10 candidates".to_string(),
                points: candidates,
            },
            CounterTrack {
                name: "R written".to_string(),
                points: written,
            },
            CounterTrack {
                name: "S ack depth".to_string(),
                points: acks,
            },
        ]
    }

    /// The frontier as telemetry wire records, tagged with run context.
    pub fn frontier_records(&self, experiment: &str, seed: u64) -> Vec<FrontierRecord> {
        self.points
            .iter()
            .map(|p| FrontierRecord {
                experiment: experiment.to_string(),
                seed,
                step: p.step,
                r_written: p.r_written,
                candidates: p.candidates,
                s_ack_depth: p.s_ack_depth,
            })
            .collect()
    }

    fn point(&self, step: Step, r_written: usize, s_ack_depth: usize) -> FrontierPoint {
        FrontierPoint {
            step,
            r_written,
            candidates: self.candidates_at(r_written),
            s_ack_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_channel::{DelChannel, DropHeavyScheduler};
    use stp_core::data::DataSeq;
    use stp_protocols::{ResendPolicy, TightReceiver, TightSender};
    use stp_sim::World;

    #[test]
    fn baseline_candidates_equal_alpha_of_m() {
        for m in 0..=10u16 {
            let probe = Frontier::of(m, &Trace::new(DataSeq::new()));
            assert_eq!(probe.candidates_at(0), alpha(u32::from(m)).unwrap());
            assert_eq!(probe.candidates_at(usize::from(m)), 1, "α(0) = 1");
        }
    }

    #[test]
    fn candidates_saturate_instead_of_panicking() {
        let probe = Frontier::of(200, &Trace::new(DataSeq::new()));
        assert_eq!(probe.candidates_at(0), u128::MAX);
        assert_eq!(probe.candidates_at(200), 1);
    }

    #[test]
    fn frontier_collapses_as_the_run_completes() {
        let input = DataSeq::from_indices([2, 0, 3]);
        let m = 4u16;
        let mut world = World::builder(input.clone())
            .sender(Box::new(TightSender::new(
                input.clone(),
                m,
                ResendPolicy::EveryTick,
            )))
            .receiver(Box::new(TightReceiver::new(m, ResendPolicy::EveryTick)))
            .channel(Box::new(DelChannel::new()))
            .scheduler(Box::new(DropHeavyScheduler::new(11, 0.3, 0.6)))
            .build()
            .unwrap();
        assert!(world.run_until(20_000, World::is_complete));
        let probe = Frontier::of(m, world.trace());
        let points = probe.points();
        assert!(points.len() >= 2, "the frontier moved");
        assert_eq!(points[0].step, 0);
        assert_eq!(points[0].r_written, 0);
        assert_eq!(points[0].candidates, alpha(u32::from(m)).unwrap());
        assert_eq!(points[0].s_ack_depth, 0);
        // Candidates shrink monotonically; depths grow monotonically.
        for w in points.windows(2) {
            assert!(w[1].step > w[0].step);
            assert!(w[1].candidates <= w[0].candidates);
            assert!(w[1].r_written >= w[0].r_written);
            assert!(w[1].s_ack_depth >= w[0].s_ack_depth);
        }
        let last = points.last().unwrap();
        assert_eq!(last.r_written, input.len());
        assert_eq!(
            last.candidates,
            alpha(u32::from(m) - input.len() as u32).unwrap()
        );
        // The export shapes agree with the points.
        let tracks = probe.counter_tracks();
        assert_eq!(tracks.len(), 3);
        assert!(tracks.iter().all(|t| t.points.len() == points.len()));
        let recs = probe.frontier_records("e1", 11);
        assert_eq!(recs.len(), points.len());
        assert_eq!(recs[0].candidates, points[0].candidates);
        assert_eq!(recs[0].experiment, "e1");
    }

    #[test]
    fn probe_resets_cleanly_between_runs() {
        let input = DataSeq::from_indices([1, 0]);
        let m = 2u16;
        let mut world = World::builder(input.clone())
            .sender(Box::new(TightSender::new(
                input.clone(),
                m,
                ResendPolicy::EveryTick,
            )))
            .receiver(Box::new(TightReceiver::new(m, ResendPolicy::EveryTick)))
            .channel(Box::new(DelChannel::new()))
            .scheduler(Box::new(DropHeavyScheduler::new(3, 0.2, 0.7)))
            .build()
            .unwrap();
        assert!(world.run_until(10_000, World::is_complete));
        let first: Vec<FrontierPoint> = Frontier::of(m, world.trace()).points().to_vec();
        world.reset(&input, 3);
        assert!(world.run_until(10_000, World::is_complete));
        let probe = Frontier::of(m, world.trace());
        let second = probe.points();
        assert_eq!(first.as_slice(), second, "same seed ⇒ same frontier");
    }
}
