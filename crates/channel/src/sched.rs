//! Delivery schedulers — the adversary that resolves the channel's
//! nondeterminism.
//!
//! Each global step the executor asks the scheduler what to deliver to each
//! processor (at most one message each, per the paper's §2.2 model) and,
//! on deleting channels, which in-flight copies to destroy. Schedulers are
//! deterministic given their seed, so every run is replayable.

use crate::chan::Channel;
use rand::{Bernoulli, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use stp_core::alphabet::{RMsg, SMsg};
use stp_core::event::{CorruptionKind, Step};

/// One transient state-corruption command, scheduled by the adversary and
/// executed by the world. The `draw` is taken from the campaign's seeded
/// PRNG at scheduling time, so the command is a self-contained value: a
/// scripted replay carries the exact same draws and perturbs the exact
/// same state, with no campaign machinery in the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorruptionCommand {
    /// What to corrupt.
    pub kind: CorruptionKind,
    /// The PRNG draw parameterizing the perturbation.
    pub draw: u64,
}

/// What the adversary does in one global step.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StepDecision {
    /// Sender message to deliver to `R` this step (at most one).
    pub deliver_to_r: Option<SMsg>,
    /// Receiver message to deliver to `S` this step (at most one).
    pub deliver_to_s: Option<RMsg>,
    /// In-flight copies addressed to `R` to destroy (deleting channels
    /// only).
    pub delete_to_r: Vec<SMsg>,
    /// In-flight copies addressed to `S` to destroy.
    pub delete_to_s: Vec<RMsg>,
    /// Transient state corruptions to apply this step, in order. Almost
    /// always empty — worlds gate the entire corruption path on
    /// `corruptions.is_empty()` — and defaulted on deserialization so
    /// pre-corruption witnesses and specs parse unchanged.
    #[serde(default)]
    pub corruptions: Vec<CorruptionCommand>,
}

impl StepDecision {
    /// A step in which the adversary does nothing.
    pub fn idle() -> Self {
        StepDecision::default()
    }
}

/// The adversary interface.
pub trait Scheduler: fmt::Debug {
    /// Decides the adversary's actions for `step`, given the current
    /// channel state.
    fn decide(&mut self, step: Step, chan: &dyn Channel) -> StepDecision;

    /// Observation hook: the executor reports, once per step before
    /// [`Scheduler::decide`], how many output items the receiver has
    /// written so far. Lets adversaries react to protocol *progress*
    /// (e.g. [`crate::campaign::Trigger::OnWrite`] campaign triggers).
    /// The default does nothing.
    fn note_progress(&mut self, _step: Step, _written: usize) {}

    /// Rewinds the scheduler for a fresh run, re-deriving any randomized
    /// state from `seed` — exactly as if it had been newly constructed
    /// with that seed. Deterministic schedulers (eager, reorder, scripted)
    /// ignore the seed; wrappers forward it to their inner scheduler.
    /// Pooled executors call this between runs instead of re-boxing.
    ///
    /// Seeded schedulers rewind their generator with
    /// [`ChaCha8Rng::reseed`]: a reset to the seed the scheduler already
    /// holds replays that seed's keystream from the generator's tape
    /// instead of computing it again, and draws exactly the words a fresh
    /// build would. So a reset is still exactly a fresh build; it is only
    /// cheaper when consecutive runs share a seed.
    fn reset(&mut self, seed: u64);

    /// Clones the scheduler state behind a box (object-safe `Clone`).
    fn box_clone(&self) -> Box<dyn Scheduler>;
}

impl Clone for Box<dyn Scheduler> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Delivers something in each direction every step, rotating through the
/// deliverable messages by step index — the friendliest *fair* adversary,
/// useful as a baseline and for terminating experiments quickly. (Plain
/// "always deliver the first deliverable" would starve all but the
/// smallest ever-sent message on a duplication channel, which is unfair.)
#[derive(Debug, Clone, Default)]
pub struct EagerScheduler;

impl EagerScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        EagerScheduler
    }
}

impl Scheduler for EagerScheduler {
    fn decide(&mut self, step: Step, chan: &dyn Channel) -> StepDecision {
        let pick_s = |v: &[SMsg]| {
            if v.is_empty() {
                None
            } else {
                Some(v[step as usize % v.len()])
            }
        };
        let pick_r = |v: &[RMsg]| {
            if v.is_empty() {
                None
            } else {
                Some(v[step as usize % v.len()])
            }
        };
        StepDecision {
            deliver_to_r: pick_s(chan.deliverable_to_r()),
            deliver_to_s: pick_r(chan.deliverable_to_s()),
            ..StepDecision::idle()
        }
    }

    fn reset(&mut self, _seed: u64) {}

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// Delivers each direction with a configurable probability, picking a
/// uniformly random deliverable message: delays and reorders, but loses
/// nothing by itself.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: ChaCha8Rng,
    deliver: Bernoulli,
}

impl RandomScheduler {
    /// Creates a scheduler with delivery probability `p_deliver` per
    /// direction per step.
    ///
    /// # Panics
    ///
    /// Panics if `p_deliver` is not within `[0, 1]`.
    pub fn new(seed: u64, p_deliver: f64) -> Self {
        RandomScheduler {
            rng: ChaCha8Rng::seed_from_u64(seed),
            deliver: Bernoulli::new(p_deliver),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn decide(&mut self, _step: Step, chan: &dyn Channel) -> StepDecision {
        let mut d = StepDecision::idle();
        let to_r = chan.deliverable_to_r();
        if !to_r.is_empty() && self.deliver.sample(&mut self.rng) {
            d.deliver_to_r = Some(to_r[self.rng.gen_range(0..to_r.len())]);
        }
        let to_s = chan.deliverable_to_s();
        if !to_s.is_empty() && self.deliver.sample(&mut self.rng) {
            d.deliver_to_s = Some(to_s[self.rng.gen_range(0..to_s.len())]);
        }
        d
    }

    fn reset(&mut self, seed: u64) {
        self.rng.reseed(seed);
    }

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// A duplication-storm adversary for [`DupChannel`](crate::DupChannel):
/// every step it delivers a uniformly random *ever-sent* message in each
/// direction, so stale messages keep arriving long after they were first
/// sent — the behaviour the paper's dup-decisive-tuple argument exploits.
#[derive(Debug, Clone)]
pub struct DupStormScheduler {
    rng: ChaCha8Rng,
    /// Whether to deliver anything at all in a direction (keeping a bit of
    /// starvation makes the storm nastier, not kinder).
    deliver: Bernoulli,
}

impl DupStormScheduler {
    /// Creates a storm with the given seed and per-direction delivery
    /// probability.
    ///
    /// # Panics
    ///
    /// Panics if `p_deliver` is not within `[0, 1]`.
    pub fn new(seed: u64, p_deliver: f64) -> Self {
        DupStormScheduler {
            rng: ChaCha8Rng::seed_from_u64(seed),
            deliver: Bernoulli::new(p_deliver),
        }
    }
}

impl Scheduler for DupStormScheduler {
    fn decide(&mut self, _step: Step, chan: &dyn Channel) -> StepDecision {
        let mut d = StepDecision::idle();
        let to_r = chan.deliverable_to_r();
        if !to_r.is_empty() && self.deliver.sample(&mut self.rng) {
            // Bias toward the *oldest* (smallest) messages: stale floods.
            let idx = self.rng.gen_range(0..to_r.len().max(1));
            let idx = idx.min(self.rng.gen_range(0..to_r.len()));
            d.deliver_to_r = Some(to_r[idx]);
        }
        let to_s = chan.deliverable_to_s();
        if !to_s.is_empty() && self.deliver.sample(&mut self.rng) {
            let idx = self.rng.gen_range(0..to_s.len().max(1));
            let idx = idx.min(self.rng.gen_range(0..to_s.len()));
            d.deliver_to_s = Some(to_s[idx]);
        }
        d
    }

    fn reset(&mut self, seed: u64) {
        self.rng.reseed(seed);
    }

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// A deletion-heavy adversary for deleting channels: each step it destroys
/// pending copies with probability `p_drop` and delivers with probability
/// `p_deliver`.
#[derive(Debug, Clone)]
pub struct DropHeavyScheduler {
    rng: ChaCha8Rng,
    drop: Bernoulli,
    deliver: Bernoulli,
}

impl DropHeavyScheduler {
    /// Creates the adversary.
    ///
    /// # Panics
    ///
    /// Panics if either probability is not within `[0, 1]`.
    pub fn new(seed: u64, p_drop: f64, p_deliver: f64) -> Self {
        DropHeavyScheduler {
            rng: ChaCha8Rng::seed_from_u64(seed),
            drop: Bernoulli::new(p_drop),
            deliver: Bernoulli::new(p_deliver),
        }
    }
}

impl Scheduler for DropHeavyScheduler {
    fn decide(&mut self, _step: Step, chan: &dyn Channel) -> StepDecision {
        let mut d = StepDecision::idle();
        if chan.can_delete() {
            let to_r = chan.deliverable_to_r();
            if !to_r.is_empty() && self.drop.sample(&mut self.rng) {
                d.delete_to_r.push(to_r[self.rng.gen_range(0..to_r.len())]);
            }
            let to_s = chan.deliverable_to_s();
            if !to_s.is_empty() && self.drop.sample(&mut self.rng) {
                d.delete_to_s.push(to_s[self.rng.gen_range(0..to_s.len())]);
            }
        }
        // Deliveries are computed against the post-deletion state by the
        // executor; choosing from the current view is still sound because
        // the executor ignores infeasible decisions.
        let to_r = chan.deliverable_to_r();
        if !to_r.is_empty() && self.deliver.sample(&mut self.rng) {
            d.deliver_to_r = Some(to_r[self.rng.gen_range(0..to_r.len())]);
        }
        let to_s = chan.deliverable_to_s();
        if !to_s.is_empty() && self.deliver.sample(&mut self.rng) {
            d.deliver_to_s = Some(to_s[self.rng.gen_range(0..to_s.len())]);
        }
        d
    }

    fn reset(&mut self, seed: u64) {
        self.rng.reseed(seed);
    }

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// A reorder-maximizing *fair* adversary: always delivers, cycling through
/// the deliverable messages in **reverse** order by step index, so
/// consecutive deliveries are as far from send order as the state allows
/// while every message still gets its turn.
#[derive(Debug, Clone, Default)]
pub struct ReorderScheduler;

impl ReorderScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        ReorderScheduler
    }
}

impl Scheduler for ReorderScheduler {
    fn decide(&mut self, step: Step, chan: &dyn Channel) -> StepDecision {
        let pick_s = |v: &[SMsg]| {
            if v.is_empty() {
                None
            } else {
                Some(v[v.len() - 1 - (step as usize % v.len())])
            }
        };
        let pick_r = |v: &[RMsg]| {
            if v.is_empty() {
                None
            } else {
                Some(v[v.len() - 1 - (step as usize % v.len())])
            }
        };
        StepDecision {
            deliver_to_r: pick_s(chan.deliverable_to_r()),
            deliver_to_s: pick_r(chan.deliverable_to_s()),
            ..StepDecision::idle()
        }
    }

    fn reset(&mut self, _seed: u64) {}

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// An adaptive adversary for deleting channels: it targets *progress* by
/// deleting the newest distinct in-flight message with probability
/// `p_target` (the newest message is the one a stop-and-wait protocol is
/// currently relying on), while delivering the **oldest** with probability
/// `p_deliver` — maximizing staleness without ever being outright unfair.
#[derive(Debug, Clone)]
pub struct TargetedScheduler {
    rng: ChaCha8Rng,
    target: Bernoulli,
    deliver: Bernoulli,
}

impl TargetedScheduler {
    /// Creates the adversary.
    ///
    /// # Panics
    ///
    /// Panics if either probability is not within `[0, 1]`.
    pub fn new(seed: u64, p_target: f64, p_deliver: f64) -> Self {
        TargetedScheduler {
            rng: ChaCha8Rng::seed_from_u64(seed),
            target: Bernoulli::new(p_target),
            deliver: Bernoulli::new(p_deliver),
        }
    }
}

impl Scheduler for TargetedScheduler {
    fn decide(&mut self, _step: Step, chan: &dyn Channel) -> StepDecision {
        let mut d = StepDecision::idle();
        if chan.can_delete() {
            // Deliverable lists are sorted by message index; protocols
            // allocate new logical messages at fresh indices, so the last
            // entry is the adversary's best guess at "the current one".
            if self.target.sample(&mut self.rng) {
                if let Some(&m) = chan.deliverable_to_r().last() {
                    d.delete_to_r.push(m);
                }
            }
            if self.target.sample(&mut self.rng) {
                if let Some(&m) = chan.deliverable_to_s().last() {
                    d.delete_to_s.push(m);
                }
            }
        }
        if self.deliver.sample(&mut self.rng) {
            d.deliver_to_r = chan.deliverable_to_r().first().copied();
        }
        if self.deliver.sample(&mut self.rng) {
            d.deliver_to_s = chan.deliverable_to_s().first().copied();
        }
        d
    }

    fn reset(&mut self, seed: u64) {
        self.rng.reseed(seed);
    }

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// Replays an explicit script of decisions, one per step; steps beyond the
/// script are idle. The verifier uses scripted schedulers to realize the
/// specific adversarial extensions constructed in the impossibility proofs.
#[derive(Debug, Clone, Default)]
pub struct ScriptedScheduler {
    script: Vec<StepDecision>,
}

impl ScriptedScheduler {
    /// Creates a scheduler that replays `script`.
    pub fn new(script: Vec<StepDecision>) -> Self {
        ScriptedScheduler { script }
    }

    /// Length of the script.
    pub fn len(&self) -> usize {
        self.script.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.script.is_empty()
    }
}

impl Scheduler for ScriptedScheduler {
    fn decide(&mut self, step: Step, _chan: &dyn Channel) -> StepDecision {
        self.script
            .get(step as usize)
            .cloned()
            .unwrap_or_else(StepDecision::idle)
    }

    fn reset(&mut self, _seed: u64) {}

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// Withholds all deliveries before `quiet_until`, then delegates to an
/// inner scheduler — Property 1(b)(i)'s "there is an extension in which
/// nothing is delivered", made executable.
#[derive(Debug, Clone)]
pub struct StarveScheduler {
    quiet_until: Step,
    inner: Box<dyn Scheduler>,
}

impl StarveScheduler {
    /// Creates a scheduler that is silent before step `quiet_until`.
    pub fn new(quiet_until: Step, inner: Box<dyn Scheduler>) -> Self {
        StarveScheduler { quiet_until, inner }
    }
}

impl Scheduler for StarveScheduler {
    fn decide(&mut self, step: Step, chan: &dyn Channel) -> StepDecision {
        if step < self.quiet_until {
            StepDecision::idle()
        } else {
            self.inner.decide(step, chan)
        }
    }

    fn note_progress(&mut self, step: Step, written: usize) {
        self.inner.note_progress(step, written);
    }

    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
    }

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::del::DelChannel;
    use crate::dup::DupChannel;

    #[test]
    fn eager_delivers_first_available() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(2));
        ch.send_s(SMsg(0));
        let d = EagerScheduler::new().decide(0, &ch);
        assert_eq!(d.deliver_to_r, Some(SMsg(0)));
        assert_eq!(d.deliver_to_s, None);
        assert!(d.delete_to_r.is_empty());
    }

    #[test]
    fn step_decisions_without_corruptions_parse_and_stay_compact() {
        // Pre-corruption witness JSON (no `corruptions` key) must parse.
        let legacy =
            r#"{"deliver_to_r":null,"deliver_to_s":null,"delete_to_r":[],"delete_to_s":[]}"#;
        let d: StepDecision = serde_json::from_str(legacy).unwrap();
        assert_eq!(d, StepDecision::idle());
        // A populated one round-trips.
        let mut d = StepDecision::idle();
        d.corruptions.push(CorruptionCommand {
            kind: CorruptionKind::ScrambleSender,
            draw: 99,
        });
        let back: StepDecision = serde_json::from_str(&serde_json::to_string(&d).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn eager_idles_on_empty_channel() {
        let ch = DupChannel::new();
        assert_eq!(EagerScheduler::new().decide(0, &ch), StepDecision::idle());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut ch = DupChannel::new();
        for i in 0..4 {
            ch.send_s(SMsg(i));
        }
        let run = |seed: u64| {
            let mut s = RandomScheduler::new(seed, 0.7);
            (0..20).map(|t| s.decide(t, &ch)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn random_zero_probability_never_delivers() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(0));
        let mut s = RandomScheduler::new(1, 0.0);
        for t in 0..50 {
            assert_eq!(s.decide(t, &ch), StepDecision::idle());
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn random_rejects_bad_probability() {
        let _ = RandomScheduler::new(0, 1.5);
    }

    #[test]
    fn storm_delivers_only_sent_messages() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(1));
        ch.send_s(SMsg(3));
        let mut s = DupStormScheduler::new(7, 1.0);
        for t in 0..100 {
            let d = s.decide(t, &ch);
            let m = d.deliver_to_r.expect("storm always delivers");
            assert!(m == SMsg(1) || m == SMsg(3));
        }
    }

    #[test]
    fn drop_heavy_only_deletes_on_deleting_channels() {
        let mut dup = DupChannel::new();
        dup.send_s(SMsg(0));
        let mut s = DropHeavyScheduler::new(3, 1.0, 0.0);
        for t in 0..20 {
            let d = s.decide(t, &dup);
            assert!(d.delete_to_r.is_empty(), "must not delete on dup channel");
        }
        let mut del = DelChannel::new();
        del.send_s(SMsg(0));
        let mut s = DropHeavyScheduler::new(3, 1.0, 0.0);
        let d = s.decide(0, &del);
        assert_eq!(d.delete_to_r, vec![SMsg(0)]);
    }

    #[test]
    fn reorder_alternates_extremes() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(0));
        ch.send_s(SMsg(9));
        let mut s = ReorderScheduler::new();
        let a = s.decide(0, &ch).deliver_to_r.unwrap();
        let b = s.decide(1, &ch).deliver_to_r.unwrap();
        assert_ne!(a, b);
        assert!(matches!((a, b), (SMsg(9), SMsg(0)) | (SMsg(0), SMsg(9))));
    }

    #[test]
    fn targeted_deletes_newest_delivers_oldest() {
        let mut ch = DelChannel::new();
        ch.send_s(SMsg(0));
        ch.send_s(SMsg(5));
        let mut s = TargetedScheduler::new(1, 1.0, 1.0);
        let d = s.decide(0, &ch);
        assert_eq!(d.delete_to_r, vec![SMsg(5)], "targets the newest");
        assert_eq!(d.deliver_to_r, Some(SMsg(0)), "delivers the oldest");
    }

    #[test]
    fn targeted_never_deletes_on_dup_channels() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(0));
        let mut s = TargetedScheduler::new(1, 1.0, 0.0);
        for t in 0..10 {
            assert!(s.decide(t, &ch).delete_to_r.is_empty());
        }
    }

    #[test]
    fn scripted_replays_then_idles() {
        let script = vec![
            StepDecision {
                deliver_to_r: Some(SMsg(1)),
                ..StepDecision::idle()
            },
            StepDecision::idle(),
        ];
        let mut s = ScriptedScheduler::new(script);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        let ch = DupChannel::new();
        assert_eq!(s.decide(0, &ch).deliver_to_r, Some(SMsg(1)));
        assert_eq!(s.decide(1, &ch), StepDecision::idle());
        assert_eq!(s.decide(99, &ch), StepDecision::idle());
    }

    #[test]
    fn starve_is_silent_then_delegates() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(4));
        let mut s = StarveScheduler::new(10, Box::new(EagerScheduler::new()));
        for t in 0..10 {
            assert_eq!(s.decide(t, &ch), StepDecision::idle());
        }
        assert_eq!(s.decide(10, &ch).deliver_to_r, Some(SMsg(4)));
    }

    #[test]
    fn reset_restores_seeded_determinism() {
        let mut ch = DupChannel::new();
        for i in 0..4 {
            ch.send_s(SMsg(i));
        }
        let mut s = RandomScheduler::new(42, 0.7);
        let first: Vec<_> = (0..20).map(|t| s.decide(t, &ch)).collect();
        s.reset(42);
        let again: Vec<_> = (0..20).map(|t| s.decide(t, &ch)).collect();
        assert_eq!(first, again, "reset(seed) replays the same run");
        s.reset(43);
        let other: Vec<_> = (0..20).map(|t| s.decide(t, &ch)).collect();
        assert_ne!(first, other, "a different seed gives a different run");
    }

    #[test]
    fn boxed_scheduler_clone() {
        let s: Box<dyn Scheduler> = Box::new(RandomScheduler::new(5, 0.5));
        let mut a = s.clone();
        let mut b = s.clone();
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(0));
        // Clones share the seed state at clone time, so they agree.
        for t in 0..10 {
            assert_eq!(a.decide(t, &ch), b.decide(t, &ch));
        }
    }
}
