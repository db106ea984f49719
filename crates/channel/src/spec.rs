//! Serializable recipes for channels and schedulers.
//!
//! Sweep engines, SLO harnesses and shrinkers all need to build *fresh*
//! (or freshly reset) channel and adversary instances, repeatedly and on
//! worker threads. Passing `Fn() -> Box<dyn …>` closures everywhere makes
//! configurations unserializable and un-shareable across threads; a spec
//! is plain data — it travels in JSON, compares for equality, and builds
//! an instance on demand. [`ChannelSpec::build`] and
//! [`SchedulerSpec::build`] are the only constructors the high-level
//! harnesses use.

use crate::campaign::{CampaignScheduler, FaultPlan};
use crate::chan::Channel;
use crate::del::DelChannel;
use crate::dup::DupChannel;
use crate::fifo::{FifoChannel, LossyFifoChannel, PerfectChannel};
use crate::sched::{
    DropHeavyScheduler, DupStormScheduler, EagerScheduler, RandomScheduler, ReorderScheduler,
    Scheduler, ScriptedScheduler, StarveScheduler, StepDecision, TargetedScheduler,
};
use crate::timed::TimedChannel;
use serde::{Deserialize, Serialize};
use stp_core::event::Step;

/// A buildable description of a channel model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChannelSpec {
    /// Reorder + duplicate ([`DupChannel`]).
    Dup,
    /// Reorder + delete ([`DelChannel`]).
    Del,
    /// Reliable FIFO ([`FifoChannel`]).
    Fifo,
    /// Lossy FIFO ([`LossyFifoChannel`]).
    LossyFifo,
    /// Reliable, in-order, prompt ([`PerfectChannel`]).
    Perfect,
    /// Lossy FIFO with a delivery deadline ([`TimedChannel`]).
    Timed {
        /// Ticks until an in-flight message expires (must be ≥ 1).
        deadline: u32,
    },
}

impl ChannelSpec {
    /// Builds a fresh channel instance.
    ///
    /// # Panics
    ///
    /// Panics if a [`ChannelSpec::Timed`] deadline is 0 (the same
    /// invariant [`TimedChannel::new`] enforces).
    pub fn build(&self) -> Box<dyn Channel> {
        match self {
            ChannelSpec::Dup => Box::new(DupChannel::new()),
            ChannelSpec::Del => Box::new(DelChannel::new()),
            ChannelSpec::Fifo => Box::new(FifoChannel::new()),
            ChannelSpec::LossyFifo => Box::new(LossyFifoChannel::new()),
            ChannelSpec::Perfect => Box::new(PerfectChannel::new()),
            ChannelSpec::Timed { deadline } => Box::new(TimedChannel::new(*deadline)),
        }
    }
}

/// A buildable description of an adversarial scheduler. Randomized
/// variants take their seed at [`SchedulerSpec::build`] time, so one spec
/// covers a whole seed sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// The fair, always-delivering baseline ([`EagerScheduler`]).
    Eager,
    /// Random delivery with probability `p_deliver` ([`RandomScheduler`]).
    Random {
        /// Per-direction delivery probability in `[0, 1]`.
        p_deliver: f64,
    },
    /// Stale-flood storm for dup channels ([`DupStormScheduler`]).
    DupStorm {
        /// Per-direction delivery probability in `[0, 1]`.
        p_deliver: f64,
    },
    /// Deletion-heavy adversary ([`DropHeavyScheduler`]).
    DropHeavy {
        /// Per-direction deletion probability in `[0, 1]`.
        p_drop: f64,
        /// Per-direction delivery probability in `[0, 1]`.
        p_deliver: f64,
    },
    /// Reorder-maximizing fair adversary ([`ReorderScheduler`]).
    Reorder,
    /// Progress-targeting adversary ([`TargetedScheduler`]).
    Targeted {
        /// Probability of deleting the newest in-flight message.
        p_target: f64,
        /// Probability of delivering the oldest in-flight message.
        p_deliver: f64,
    },
    /// Replays an explicit per-step script ([`ScriptedScheduler`]); an
    /// empty script is the idle adversary.
    Scripted {
        /// The decisions to replay, one per step.
        script: Vec<StepDecision>,
    },
    /// Silent before `quiet_until`, then delegates ([`StarveScheduler`]).
    Starve {
        /// First step at which the inner scheduler acts.
        quiet_until: Step,
        /// The delegate.
        inner: Box<SchedulerSpec>,
    },
    /// A fault campaign layered over an inner scheduler
    /// ([`CampaignScheduler`]).
    Campaign {
        /// The scheduler the campaign perturbs.
        inner: Box<SchedulerSpec>,
        /// The fault plan to execute.
        plan: FaultPlan,
    },
}

impl SchedulerSpec {
    /// The adversary that never does anything: an empty script.
    pub fn idle() -> Self {
        SchedulerSpec::Scripted { script: Vec::new() }
    }

    /// Builds a fresh scheduler instance, deriving randomized state from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a probability field is outside `[0, 1]` (the same
    /// invariants the underlying constructors enforce).
    pub fn build(&self, seed: u64) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Eager => Box::new(EagerScheduler::new()),
            SchedulerSpec::Random { p_deliver } => Box::new(RandomScheduler::new(seed, *p_deliver)),
            SchedulerSpec::DupStorm { p_deliver } => {
                Box::new(DupStormScheduler::new(seed, *p_deliver))
            }
            SchedulerSpec::DropHeavy { p_drop, p_deliver } => {
                Box::new(DropHeavyScheduler::new(seed, *p_drop, *p_deliver))
            }
            SchedulerSpec::Reorder => Box::new(ReorderScheduler::new()),
            SchedulerSpec::Targeted {
                p_target,
                p_deliver,
            } => Box::new(TargetedScheduler::new(seed, *p_target, *p_deliver)),
            SchedulerSpec::Scripted { script } => Box::new(ScriptedScheduler::new(script.clone())),
            SchedulerSpec::Starve { quiet_until, inner } => {
                Box::new(StarveScheduler::new(*quiet_until, inner.build(seed)))
            }
            SchedulerSpec::Campaign { inner, plan } => {
                Box::new(CampaignScheduler::new(inner.build(seed), plan.clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_core::alphabet::SMsg;

    #[test]
    fn channel_specs_build_their_kinds() {
        use crate::chan::ChannelKind;
        let cases = [
            (ChannelSpec::Dup, ChannelKind::ReorderDuplicate),
            (ChannelSpec::Del, ChannelKind::ReorderDelete),
            (ChannelSpec::Fifo, ChannelKind::Fifo),
            (ChannelSpec::LossyFifo, ChannelKind::LossyFifo),
            (ChannelSpec::Perfect, ChannelKind::Perfect),
            (ChannelSpec::Timed { deadline: 3 }, ChannelKind::Timed),
        ];
        for (spec, kind) in cases {
            assert_eq!(spec.build().kind(), kind, "{spec:?}");
        }
    }

    #[test]
    fn scheduler_spec_build_is_deterministic_per_seed() {
        let mut ch = DupChannel::new();
        for i in 0..4 {
            ch.send_s(SMsg(i));
        }
        let spec = SchedulerSpec::DropHeavy {
            p_drop: 0.3,
            p_deliver: 0.6,
        };
        let run = |seed: u64| {
            let mut s = spec.build(seed);
            (0..20).map(|t| s.decide(t, &ch)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn built_scheduler_reset_matches_fresh_build() {
        let mut ch = DupChannel::new();
        for i in 0..4 {
            ch.send_s(SMsg(i));
        }
        let spec = SchedulerSpec::Starve {
            quiet_until: 3,
            inner: Box::new(SchedulerSpec::Random { p_deliver: 0.5 }),
        };
        let mut pooled = spec.build(1);
        let _: Vec<_> = (0..10).map(|t| pooled.decide(t, &ch)).collect();
        pooled.reset(2);
        let after_reset: Vec<_> = (0..10).map(|t| pooled.decide(t, &ch)).collect();
        let mut fresh = spec.build(2);
        let from_fresh: Vec<_> = (0..10).map(|t| fresh.decide(t, &ch)).collect();
        assert_eq!(after_reset, from_fresh);
    }

    #[test]
    fn scheduler_provision_matches_fresh_build() {
        // A recycled session slot reseeds its scheduler in place with
        // `Scheduler::reset`; that must be indistinguishable from a fresh
        // build at the new seed, and a different spec builds a new one.
        let mut ch = DupChannel::new();
        for i in 0..4 {
            ch.send_s(SMsg(i));
        }
        let spec = SchedulerSpec::DropHeavy {
            p_drop: 0.3,
            p_deliver: 0.6,
        };
        let mut slot = spec.build(1);
        let _: Vec<_> = (0..10).map(|t| slot.decide(t, &ch)).collect();
        slot.reset(2);
        let recycled: Vec<_> = (0..10).map(|t| slot.decide(t, &ch)).collect();
        let mut fresh = spec.build(2);
        let from_fresh: Vec<_> = (0..10).map(|t| fresh.decide(t, &ch)).collect();
        assert_eq!(recycled, from_fresh);
        let mut slot = SchedulerSpec::Eager.build(0);
        for t in 0..5 {
            let d = slot.decide(t, &ch);
            assert!(d.deliver_to_r.is_some());
        }
    }

    #[test]
    fn idle_spec_never_acts() {
        let mut ch = DupChannel::new();
        ch.send_s(SMsg(0));
        let mut s = SchedulerSpec::idle().build(9);
        for t in 0..20 {
            assert_eq!(s.decide(t, &ch), StepDecision::idle());
        }
    }

    #[test]
    fn channel_reset_matches_fresh_build() {
        use stp_core::alphabet::RMsg;
        let specs = [
            ChannelSpec::Dup,
            ChannelSpec::Del,
            ChannelSpec::Fifo,
            ChannelSpec::LossyFifo,
            ChannelSpec::Perfect,
            ChannelSpec::Timed { deadline: 2 },
        ];
        for spec in specs {
            let mut ch = spec.build();
            ch.send_s(SMsg(1));
            ch.send_r(RMsg(0));
            ch.tick();
            assert_eq!(ch.pending_to_r(), 1, "{spec:?}");
            // Reset in place: queues emptied, the same state as a fresh
            // build of the same spec.
            ch.reset();
            let fresh = spec.build();
            assert_eq!(ch.kind(), fresh.kind(), "{spec:?}");
            assert_eq!(ch.pending_to_r() + ch.pending_to_s(), 0, "{spec:?}");
            assert_eq!(ch.state_key(), fresh.state_key(), "{spec:?}");
        }
    }

    #[test]
    fn specs_round_trip_json() {
        let chan = ChannelSpec::Timed { deadline: 4 };
        let json = serde_json::to_string(&chan).unwrap();
        assert_eq!(serde_json::from_str::<ChannelSpec>(&json).unwrap(), chan);

        let sched = SchedulerSpec::Campaign {
            inner: Box::new(SchedulerSpec::DupStorm { p_deliver: 0.9 }),
            plan: FaultPlan::new(11),
        };
        let json = serde_json::to_string(&sched).unwrap();
        assert_eq!(serde_json::from_str::<SchedulerSpec>(&json).unwrap(), sched);
    }
}
