//! Composable fault campaigns — the chaos engine behind the robustness
//! experiments.
//!
//! A [`FaultPlan`] is a declarative schedule of typed fault actions
//! ([`FaultAction`]) bound to triggers ([`Trigger`]): "a deletion burst
//! right after the receiver writes item 3", "a silence window every 50
//! steps", "a duplication storm for 20 steps starting at step 100". A
//! [`CampaignScheduler`] compiles the plan against any inner
//! [`Scheduler`] and perturbs the inner adversary's decisions while a
//! clause is active.
//!
//! Plans are plain serializable data, so a failing campaign can be
//! shrunk, stored, and replayed. The paper connection: Definition 2 says
//! a *bounded* protocol recovers from any such perturbation in time
//! `f(i)` that depends only on the index `i` being transferred — a
//! campaign is exactly the adversarial extension quantified over in that
//! definition, made composable.
//!
//! ```
//! use stp_channel::campaign::{CampaignScheduler, Direction, FaultAction, FaultClause, FaultPlan, Trigger};
//! use stp_channel::EagerScheduler;
//!
//! let plan = FaultPlan::new(7)
//!     .with(FaultClause::new(
//!         FaultAction::DeletionBurst { copies: 1 },
//!         Trigger::AtStep(10),
//!     ))
//!     .with(
//!         FaultClause::new(FaultAction::SilenceWindow, Trigger::EveryK { period: 40, offset: 20 })
//!             .lasting(5)
//!             .repeats(3),
//!     );
//! let sched = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
//! assert_eq!(sched.plan().clauses.len(), 2);
//! ```

use crate::chan::Channel;
use crate::sched::{CorruptionCommand, Scheduler, StepDecision};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use stp_core::event::{CorruptionKind, Step};

/// Which channel direction a clause strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Only messages addressed to the receiver (`S → R`).
    ToReceiver,
    /// Only messages addressed to the sender (`R → S`).
    ToSender,
    /// Both directions.
    Both,
}

impl Direction {
    /// Whether the `S → R` direction is targeted.
    pub fn hits_r(self) -> bool {
        matches!(self, Direction::ToReceiver | Direction::Both)
    }

    /// Whether the `R → S` direction is targeted.
    pub fn hits_s(self) -> bool {
        matches!(self, Direction::ToSender | Direction::Both)
    }
}

/// A typed fault the campaign can inject while a clause is active.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Destroy up to `copies` of the *oldest* in-flight messages per
    /// targeted direction (deleting channels only).
    DeletionBurst {
        /// Maximum copies destroyed per direction per step.
        copies: usize,
    },
    /// Destroy up to `copies` of the *newest* in-flight messages per
    /// targeted direction — aimed at the message a stop-and-wait protocol
    /// is currently relying on (deleting channels only).
    TargetedStrike {
        /// Maximum copies destroyed per direction per step.
        copies: usize,
    },
    /// Override deliveries with stale-biased redeliveries: the oldest
    /// in-flight messages keep arriving instead of fresh ones.
    DuplicationStorm,
    /// Override deliveries with newest-first picks, maximizing distance
    /// from send order.
    ReorderFlood,
    /// Suppress all deliveries in the targeted directions.
    SilenceWindow,
    /// Scramble a processor's volatile protocol state. The direction
    /// selects the victim: `ToSender` scrambles `S`, `ToReceiver`
    /// scrambles `R`, `Both` scrambles both. Each strike carries a fresh
    /// draw from the campaign RNG; the processor's `scramble` hook maps
    /// the draw onto its state space. Protocols that do not opt in
    /// absorb the strike silently.
    StateScramble,
    /// Desynchronize a processor's sequencing counters (the
    /// alternation bit, window base, or expected index) without
    /// touching the rest of its state — the classic transient fault of
    /// the self-stabilization literature. Direction selects the victim
    /// as for [`FaultAction::StateScramble`].
    CounterDesync,
    /// Forge a fresh message onto the channel as if the peer had sent
    /// it. `ToReceiver` injects an `S → R` message, `ToSender` an
    /// `R → S` one. The payload is drawn from the campaign RNG and
    /// reduced modulo the victim alphabet by the executor.
    InjectNoise,
    /// Garble an in-flight message: on deleting channels one deliverable
    /// victim (picked by the campaign RNG) is destroyed and a forged
    /// replacement injected in its place; on non-deleting channels the
    /// original survives and the garbled copy rides alongside as noise.
    GarbleInFlight,
}

/// When a clause fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trigger {
    /// Fires at the first decision with `step >= s`.
    AtStep(Step),
    /// Fires at every step `s` with `s >= offset` and
    /// `(s - offset) % period == 0`.
    EveryK {
        /// Distance between firings (must be non-zero).
        period: Step,
        /// First eligible step.
        offset: Step,
    },
    /// Fires as soon as the receiver has written the item at position
    /// `index` (0-based) — "right after item `i` is learnt", the probe
    /// point of the paper's Definition 2. Requires the executor to feed
    /// progress via [`Scheduler::note_progress`].
    OnWrite {
        /// 0-based output position to watch for.
        index: usize,
    },
}

/// One scheduled fault: an action, a trigger, a direction, an active
/// window, and a repetition budget.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultClause {
    /// What to inject.
    pub action: FaultAction,
    /// When to start injecting.
    pub trigger: Trigger,
    /// Which directions are hit.
    pub direction: Direction,
    /// How many consecutive steps the action stays active per firing
    /// (at least 1).
    pub duration: Step,
    /// Maximum number of firings; `0` means unlimited.
    pub max_firings: u32,
}

impl FaultClause {
    /// A clause striking both directions for one step, firing once.
    pub fn new(action: FaultAction, trigger: Trigger) -> Self {
        FaultClause {
            action,
            trigger,
            direction: Direction::Both,
            duration: 1,
            max_firings: 1,
        }
    }

    /// Restricts the clause to one direction.
    pub fn direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Sets the active-window length per firing.
    pub fn lasting(mut self, steps: Step) -> Self {
        self.duration = steps.max(1);
        self
    }

    /// Sets the firing budget (`0` = unlimited).
    pub fn repeats(mut self, times: u32) -> Self {
        self.max_firings = times;
        self
    }
}

/// A full campaign: an ordered list of clauses plus the seed for the
/// campaign's own randomized choices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Clauses applied in order each step (later clauses win conflicts).
    pub clauses: Vec<FaultClause>,
    /// Seed for randomized action choices (storm/flood picks).
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            clauses: Vec::new(),
            seed,
        }
    }

    /// Appends a clause.
    pub fn with(mut self, clause: FaultClause) -> Self {
        self.clauses.push(clause);
        self
    }

    /// A plan containing only `clause`.
    pub fn single(seed: u64, clause: FaultClause) -> Self {
        FaultPlan::new(seed).with(clause)
    }
}

/// Per-clause runtime state.
#[derive(Debug, Clone, Default)]
struct ClauseState {
    firings: u32,
    /// Exclusive end of the current active window, if any.
    active_until: Option<Step>,
}

/// A [`Scheduler`] combinator executing a [`FaultPlan`] on top of any
/// inner adversary.
#[derive(Debug, Clone)]
pub struct CampaignScheduler {
    inner: Box<dyn Scheduler>,
    plan: FaultPlan,
    rng: ChaCha8Rng,
    states: Vec<ClauseState>,
    written: usize,
}

impl CampaignScheduler {
    /// Compiles `plan` over `inner`.
    pub fn new(inner: Box<dyn Scheduler>, plan: FaultPlan) -> Self {
        let states = vec![ClauseState::default(); plan.clauses.len()];
        let rng = ChaCha8Rng::seed_from_u64(plan.seed);
        CampaignScheduler {
            inner,
            plan,
            rng,
            states,
            written: 0,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total firings so far of the clause at `idx`.
    pub fn firings(&self, idx: usize) -> u32 {
        self.states.get(idx).map_or(0, |s| s.firings)
    }

    /// Whether any clause has fired yet.
    pub fn any_fired(&self) -> bool {
        self.states.iter().any(|s| s.firings > 0)
    }

    /// Rewinds all campaign state (firing counts, active windows, the
    /// campaign RNG, observed progress) so the scheduler can drive a
    /// fresh run. The inner scheduler is **not** reset — pass a fresh
    /// inner scheduler for full determinism across reuses.
    pub fn reset(&mut self) {
        for s in &mut self.states {
            *s = ClauseState::default();
        }
        // The plan's seed never changes, so every reset replays the
        // campaign's keystream from the generator's tape.
        self.rng.reseed(self.plan.seed);
        self.written = 0;
    }

    /// Whether clause `idx` is (or becomes) active at `step`, updating
    /// firing state.
    fn clause_active(&mut self, idx: usize, step: Step) -> bool {
        let clause = &self.plan.clauses[idx];
        let state = &mut self.states[idx];
        if let Some(until) = state.active_until {
            if step < until {
                return true;
            }
            state.active_until = None;
        }
        if clause.max_firings != 0 && state.firings >= clause.max_firings {
            return false;
        }
        let triggers = match clause.trigger {
            Trigger::AtStep(s) => step >= s,
            Trigger::EveryK { period, offset } => {
                step >= offset && period > 0 && (step - offset).is_multiple_of(period)
            }
            Trigger::OnWrite { index } => self.written > index,
        };
        if triggers {
            state.firings += 1;
            state.active_until = Some(step + clause.duration.max(1));
            true
        } else {
            false
        }
    }

    /// Applies the clause's action to the decision in place.
    fn apply(&mut self, idx: usize, d: &mut StepDecision, chan: &dyn Channel) {
        let clause = &self.plan.clauses[idx];
        let dir = clause.direction;
        match clause.action {
            FaultAction::DeletionBurst { copies } => {
                if chan.can_delete() {
                    if dir.hits_r() {
                        d.delete_to_r = chan
                            .deliverable_to_r()
                            .iter()
                            .copied()
                            .take(copies)
                            .collect();
                    }
                    if dir.hits_s() {
                        d.delete_to_s = chan
                            .deliverable_to_s()
                            .iter()
                            .copied()
                            .take(copies)
                            .collect();
                    }
                    // A burst also suppresses that step's deliveries: the
                    // strike wipes the step, like the one-shot injector
                    // the boundedness experiments were built on.
                    if dir.hits_r() {
                        d.deliver_to_r = None;
                    }
                    if dir.hits_s() {
                        d.deliver_to_s = None;
                    }
                }
            }
            FaultAction::TargetedStrike { copies } => {
                if chan.can_delete() {
                    if dir.hits_r() {
                        let v = chan.deliverable_to_r();
                        d.delete_to_r = v.iter().rev().copied().take(copies).collect();
                        d.deliver_to_r = None;
                    }
                    if dir.hits_s() {
                        let v = chan.deliverable_to_s();
                        d.delete_to_s = v.iter().rev().copied().take(copies).collect();
                        d.deliver_to_s = None;
                    }
                }
            }
            FaultAction::DuplicationStorm => {
                if dir.hits_r() {
                    let v = chan.deliverable_to_r();
                    if !v.is_empty() {
                        // Stale bias: min of two uniform draws skews old.
                        let a = self.rng.gen_range(0..v.len());
                        let b = self.rng.gen_range(0..v.len());
                        d.deliver_to_r = Some(v[a.min(b)]);
                    }
                }
                if dir.hits_s() {
                    let v = chan.deliverable_to_s();
                    if !v.is_empty() {
                        let a = self.rng.gen_range(0..v.len());
                        let b = self.rng.gen_range(0..v.len());
                        d.deliver_to_s = Some(v[a.min(b)]);
                    }
                }
            }
            FaultAction::ReorderFlood => {
                if dir.hits_r() {
                    let v = chan.deliverable_to_r();
                    if !v.is_empty() {
                        // Newest-first bias: max of two uniform draws.
                        let a = self.rng.gen_range(0..v.len());
                        let b = self.rng.gen_range(0..v.len());
                        d.deliver_to_r = Some(v[a.max(b)]);
                    }
                }
                if dir.hits_s() {
                    let v = chan.deliverable_to_s();
                    if !v.is_empty() {
                        let a = self.rng.gen_range(0..v.len());
                        let b = self.rng.gen_range(0..v.len());
                        d.deliver_to_s = Some(v[a.max(b)]);
                    }
                }
            }
            FaultAction::SilenceWindow => {
                if dir.hits_r() {
                    d.deliver_to_r = None;
                }
                if dir.hits_s() {
                    d.deliver_to_s = None;
                }
            }
            FaultAction::StateScramble => {
                // `hits_s` reads "the R → S side", i.e. the sender is
                // the victim; `hits_r` targets the receiver. Draws are
                // taken here, in clause order, so a run is a pure
                // function of (plan, inner, channel) and the scripted
                // replay can carry the concrete commands verbatim.
                if dir.hits_s() {
                    d.corruptions.push(CorruptionCommand {
                        kind: CorruptionKind::ScrambleSender,
                        draw: self.rng.next_u64(),
                    });
                }
                if dir.hits_r() {
                    d.corruptions.push(CorruptionCommand {
                        kind: CorruptionKind::ScrambleReceiver,
                        draw: self.rng.next_u64(),
                    });
                }
            }
            FaultAction::CounterDesync => {
                if dir.hits_s() {
                    d.corruptions.push(CorruptionCommand {
                        kind: CorruptionKind::DesyncSender,
                        draw: self.rng.next_u64(),
                    });
                }
                if dir.hits_r() {
                    d.corruptions.push(CorruptionCommand {
                        kind: CorruptionKind::DesyncReceiver,
                        draw: self.rng.next_u64(),
                    });
                }
            }
            FaultAction::InjectNoise => {
                if dir.hits_r() {
                    d.corruptions.push(CorruptionCommand {
                        kind: CorruptionKind::InjectToR,
                        draw: self.rng.next_u64(),
                    });
                }
                if dir.hits_s() {
                    d.corruptions.push(CorruptionCommand {
                        kind: CorruptionKind::InjectToS,
                        draw: self.rng.next_u64(),
                    });
                }
            }
            FaultAction::GarbleInFlight => {
                if dir.hits_r() {
                    let v = chan.deliverable_to_r();
                    if !v.is_empty() {
                        if chan.can_delete() {
                            let victim = v[self.rng.gen_range(0..v.len())];
                            d.delete_to_r.push(victim);
                            if d.deliver_to_r == Some(victim) {
                                d.deliver_to_r = None;
                            }
                        }
                        d.corruptions.push(CorruptionCommand {
                            kind: CorruptionKind::InjectToR,
                            draw: self.rng.next_u64(),
                        });
                    }
                }
                if dir.hits_s() {
                    let v = chan.deliverable_to_s();
                    if !v.is_empty() {
                        if chan.can_delete() {
                            let victim = v[self.rng.gen_range(0..v.len())];
                            d.delete_to_s.push(victim);
                            if d.deliver_to_s == Some(victim) {
                                d.deliver_to_s = None;
                            }
                        }
                        d.corruptions.push(CorruptionCommand {
                            kind: CorruptionKind::InjectToS,
                            draw: self.rng.next_u64(),
                        });
                    }
                }
            }
        }
    }
}

impl Scheduler for CampaignScheduler {
    fn decide(&mut self, step: Step, chan: &dyn Channel) -> StepDecision {
        let mut d = self.inner.decide(step, chan);
        for idx in 0..self.plan.clauses.len() {
            if self.clause_active(idx, step) {
                self.apply(idx, &mut d, chan);
            }
        }
        d
    }

    fn note_progress(&mut self, step: Step, written: usize) {
        self.written = written;
        self.inner.note_progress(step, written);
    }

    /// Rewinds the campaign (via [`CampaignScheduler::reset`]) *and* the
    /// inner scheduler, so a pooled run replays fully deterministically.
    /// Note the campaign RNG is re-derived from the plan's own seed, not
    /// `seed` — the plan is part of the experiment's identity.
    fn reset(&mut self, seed: u64) {
        CampaignScheduler::reset(self);
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
    use crate::sched::EagerScheduler;
    use stp_core::alphabet::SMsg;

    fn loaded_del() -> DelChannel {
        let mut ch = DelChannel::new();
        ch.send_s(SMsg(0));
        ch.send_s(SMsg(5));
        ch
    }

    #[test]
    fn deletion_burst_fires_once_and_deletes_oldest() {
        let ch = loaded_del();
        let plan = FaultPlan::single(
            1,
            FaultClause::new(FaultAction::DeletionBurst { copies: 1 }, Trigger::AtStep(2)),
        );
        let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
        for t in 0..2 {
            assert!(s.decide(t, &ch).delete_to_r.is_empty(), "t={t}");
            assert!(!s.any_fired());
        }
        let d = s.decide(2, &ch);
        assert_eq!(d.delete_to_r, vec![SMsg(0)], "oldest first");
        assert!(d.deliver_to_r.is_none(), "burst suppresses delivery");
        assert_eq!(s.firings(0), 1);
        let d = s.decide(3, &ch);
        assert!(d.delete_to_r.is_empty(), "budget exhausted");
    }

    #[test]
    fn targeted_strike_deletes_newest() {
        let ch = loaded_del();
        let plan = FaultPlan::single(
            1,
            FaultClause::new(
                FaultAction::TargetedStrike { copies: 1 },
                Trigger::AtStep(0),
            ),
        );
        let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
        assert_eq!(s.decide(0, &ch).delete_to_r, vec![SMsg(5)]);
    }

    #[test]
    fn deletion_actions_respect_non_deleting_channels() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(0));
        for action in [
            FaultAction::DeletionBurst { copies: 1 },
            FaultAction::TargetedStrike { copies: 1 },
        ] {
            let plan = FaultPlan::single(1, FaultClause::new(action, Trigger::AtStep(0)));
            let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
            let d = s.decide(0, &ch);
            assert!(d.delete_to_r.is_empty());
            assert!(s.any_fired(), "the firing still spends the budget");
        }
    }

    #[test]
    fn silence_window_suppresses_deliveries_for_duration() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(3));
        let plan = FaultPlan::single(
            1,
            FaultClause::new(FaultAction::SilenceWindow, Trigger::AtStep(1)).lasting(3),
        );
        let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
        assert!(s.decide(0, &ch).deliver_to_r.is_some());
        for t in 1..4 {
            assert!(s.decide(t, &ch).deliver_to_r.is_none(), "t={t}");
        }
        assert!(s.decide(4, &ch).deliver_to_r.is_some());
    }

    #[test]
    fn every_k_repeats_up_to_budget() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(0));
        let plan = FaultPlan::single(
            1,
            FaultClause::new(
                FaultAction::SilenceWindow,
                Trigger::EveryK {
                    period: 10,
                    offset: 0,
                },
            )
            .repeats(2),
        );
        let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
        let mut silenced = Vec::new();
        for t in 0..40 {
            if s.decide(t, &ch).deliver_to_r.is_none() {
                silenced.push(t);
            }
        }
        assert_eq!(silenced, vec![0, 10], "two firings, then budget spent");
    }

    #[test]
    fn on_write_trigger_waits_for_progress() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(0));
        let plan = FaultPlan::single(
            1,
            FaultClause::new(FaultAction::SilenceWindow, Trigger::OnWrite { index: 1 }),
        );
        let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
        s.note_progress(0, 0);
        assert!(s.decide(0, &ch).deliver_to_r.is_some(), "no writes yet");
        s.note_progress(1, 1);
        assert!(
            s.decide(1, &ch).deliver_to_r.is_some(),
            "item 1 not written"
        );
        s.note_progress(2, 2);
        assert!(
            s.decide(2, &ch).deliver_to_r.is_none(),
            "fires after write 2"
        );
    }

    #[test]
    fn storm_and_flood_pick_from_deliverable() {
        let mut ch = DupChannel::new();
        for i in [0, 2, 7] {
            ch.send_s(SMsg(i));
        }
        for action in [FaultAction::DuplicationStorm, FaultAction::ReorderFlood] {
            let plan = FaultPlan::single(
                9,
                FaultClause::new(action, Trigger::AtStep(0))
                    .lasting(50)
                    .repeats(1),
            );
            let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
            for t in 0..50 {
                let m = s.decide(t, &ch).deliver_to_r.expect("storm delivers");
                assert!([SMsg(0), SMsg(2), SMsg(7)].contains(&m));
            }
        }
    }

    #[test]
    fn campaigns_are_deterministic_per_seed_and_reset_restores() {
        let mut ch = DupChannel::new();
        for i in 0..5 {
            ch.send_s(SMsg(i));
        }
        let plan = FaultPlan::single(
            42,
            FaultClause::new(FaultAction::DuplicationStorm, Trigger::AtStep(0)).lasting(100),
        );
        let run = |s: &mut CampaignScheduler| -> Vec<StepDecision> {
            (0..30).map(|t| s.decide(t, &ch)).collect()
        };
        let mut a = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan.clone());
        let mut b = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
        let first = run(&mut a);
        assert_eq!(first, run(&mut b), "same seed, same decisions");
        a.reset();
        assert_eq!(first, run(&mut a), "reset rewinds the campaign");
    }

    #[test]
    fn later_clauses_override_earlier_ones() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(1));
        let plan = FaultPlan::new(0)
            .with(FaultClause::new(FaultAction::DuplicationStorm, Trigger::AtStep(0)).lasting(10))
            .with(FaultClause::new(FaultAction::SilenceWindow, Trigger::AtStep(0)).lasting(10));
        let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
        for t in 0..10 {
            assert!(s.decide(t, &ch).deliver_to_r.is_none(), "silence wins");
        }
    }

    #[test]
    fn corruption_actions_map_direction_to_victim() {
        let ch = loaded_del();
        for (action, s_kind, r_kind) in [
            (
                FaultAction::StateScramble,
                CorruptionKind::ScrambleSender,
                CorruptionKind::ScrambleReceiver,
            ),
            (
                FaultAction::CounterDesync,
                CorruptionKind::DesyncSender,
                CorruptionKind::DesyncReceiver,
            ),
        ] {
            let plan = FaultPlan::single(
                1,
                FaultClause::new(action.clone(), Trigger::AtStep(0)).direction(Direction::ToSender),
            );
            let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
            let d = s.decide(0, &ch);
            assert_eq!(d.corruptions.len(), 1, "{action:?} to-sender");
            assert_eq!(d.corruptions[0].kind, s_kind);

            let plan = FaultPlan::single(1, FaultClause::new(action.clone(), Trigger::AtStep(0)));
            let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
            let kinds: Vec<_> = s
                .decide(0, &ch)
                .corruptions
                .iter()
                .map(|c| c.kind)
                .collect();
            assert_eq!(kinds, vec![s_kind, r_kind], "{action:?} both");
        }
    }

    #[test]
    fn inject_noise_forges_toward_the_targeted_direction() {
        let ch = DupChannel::new();
        let plan = FaultPlan::single(
            1,
            FaultClause::new(FaultAction::InjectNoise, Trigger::AtStep(0))
                .direction(Direction::ToReceiver),
        );
        let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
        let d = s.decide(0, &ch);
        assert_eq!(d.corruptions.len(), 1);
        assert_eq!(d.corruptions[0].kind, CorruptionKind::InjectToR);
        assert!(d.delete_to_r.is_empty(), "pure injection deletes nothing");
    }

    #[test]
    fn garble_deletes_a_victim_only_on_deleting_channels() {
        let ch = loaded_del();
        let plan = FaultPlan::single(
            5,
            FaultClause::new(FaultAction::GarbleInFlight, Trigger::AtStep(0))
                .direction(Direction::ToReceiver),
        );
        let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan.clone());
        let d = s.decide(0, &ch);
        assert_eq!(d.delete_to_r.len(), 1, "one victim destroyed");
        assert_eq!(d.corruptions.len(), 1);
        assert_eq!(d.corruptions[0].kind, CorruptionKind::InjectToR);
        assert_ne!(
            d.deliver_to_r,
            Some(d.delete_to_r[0]),
            "the destroyed victim cannot also be delivered"
        );

        let mut dup = DupChannel::new();
        dup.send_s(SMsg(0));
        let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
        let d = s.decide(0, &dup);
        assert!(d.delete_to_r.is_empty(), "dup channels never delete");
        assert_eq!(d.corruptions.len(), 1, "the garbled copy still injects");

        let empty = DelChannel::new();
        let plan = FaultPlan::single(
            5,
            FaultClause::new(FaultAction::GarbleInFlight, Trigger::AtStep(0)),
        );
        let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
        let d = s.decide(0, &empty);
        assert!(
            d.corruptions.is_empty(),
            "nothing in flight, nothing to garble"
        );
    }

    #[test]
    fn corruption_draws_are_deterministic_per_seed() {
        let ch = loaded_del();
        let plan = FaultPlan::single(
            99,
            FaultClause::new(FaultAction::StateScramble, Trigger::AtStep(0))
                .lasting(10)
                .repeats(0),
        );
        let run = |plan: FaultPlan| -> Vec<StepDecision> {
            let mut s = CampaignScheduler::new(Box::new(EagerScheduler::new()), plan);
            (0..10).map(|t| s.decide(t, &ch)).collect()
        };
        let a = run(plan.clone());
        assert_eq!(a, run(plan), "same seed, same draws");
        let draws: std::collections::HashSet<u64> = a
            .iter()
            .flat_map(|d| d.corruptions.iter().map(|c| c.draw))
            .collect();
        assert!(draws.len() > 1, "fresh draw per strike, not a constant");
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = FaultPlan::new(3)
            .with(
                FaultClause::new(FaultAction::DeletionBurst { copies: 2 }, Trigger::AtStep(5))
                    .direction(Direction::ToReceiver),
            )
            .with(
                FaultClause::new(
                    FaultAction::ReorderFlood,
                    Trigger::EveryK {
                        period: 7,
                        offset: 2,
                    },
                )
                .lasting(4)
                .repeats(0),
            )
            .with(FaultClause::new(
                FaultAction::SilenceWindow,
                Trigger::OnWrite { index: 3 },
            ))
            .with(
                FaultClause::new(FaultAction::StateScramble, Trigger::AtStep(9))
                    .direction(Direction::ToSender),
            )
            .with(FaultClause::new(
                FaultAction::GarbleInFlight,
                Trigger::OnWrite { index: 1 },
            ));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
