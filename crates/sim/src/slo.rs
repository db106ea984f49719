//! Recovery-SLO measurement: how long a protocol takes to make progress
//! again after a mid-run fault campaign strikes.
//!
//! The paper's Definition 2 calls a protocol *bounded* when there is a
//! function `f` such that, from any point of any run extended by any
//! adversary, the receiver learns item `i` within `f(i)` further steps —
//! crucially, `f` may depend on `i` but **not** on the input sequence.
//! A *weakly bounded* protocol only guarantees recovery within
//! `f(i, |X|)`. This module turns that distinction into a measurement:
//! inject the same fault right after item `i` is written (via a
//! [`Trigger::OnWrite`] campaign clause), then count the steps until the
//! next write and until completion. Sweeping the input length while
//! holding `i` fixed produces a *recovery envelope*; bounded protocols
//! have flat envelopes, weakly bounded ones grow with the input.

use crate::world::World;
use serde::{Deserialize, Serialize};
use stp_channel::campaign::{
    CampaignScheduler, Direction, FaultAction, FaultClause, FaultPlan, Trigger,
};
use stp_channel::{Channel, ChannelSpec, Scheduler, SchedulerSpec};
use stp_core::data::DataSeq;
use stp_core::event::{Event, Step, Trace};
use stp_core::proto::{Receiver, Sender};
use stp_protocols::ProtocolFamily;

/// How a recovery probe strikes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloConfig {
    /// The fault injected at each probe point.
    pub action: FaultAction,
    /// How many consecutive steps the fault stays active.
    pub duration: Step,
    /// Which channel direction is struck.
    pub direction: Direction,
    /// Seed for the campaign's randomized choices.
    pub seed: u64,
    /// Step budget per probe run.
    pub max_steps: Step,
}

impl SloConfig {
    /// A deletion burst wiping every in-flight copy for `duration` steps —
    /// the harshest strike a deleting channel admits.
    pub fn wipeout(duration: Step, max_steps: Step) -> Self {
        SloConfig {
            action: FaultAction::DeletionBurst { copies: usize::MAX },
            duration,
            direction: Direction::Both,
            seed: 0,
            max_steps,
        }
    }

    /// A silence window (delivery suppression) — the strike that trips a
    /// timed channel's deadline and forces the Section-5 hybrid into its
    /// recovery phase.
    pub fn silence(duration: Step, max_steps: Step) -> Self {
        SloConfig {
            action: FaultAction::SilenceWindow,
            duration,
            direction: Direction::Both,
            seed: 0,
            max_steps,
        }
    }

    /// A single-step transient state-corruption strike — one of the
    /// corruption [`FaultAction`]s, aimed at the processor(s) selected by
    /// `direction`. The workhorse config for stabilization envelopes
    /// (experiment E12).
    pub fn corruption(action: FaultAction, direction: Direction, max_steps: Step) -> Self {
        SloConfig {
            action,
            duration: 1,
            direction,
            seed: 0,
            max_steps,
        }
    }
}

/// The measured recovery behaviour after one fault at one probe point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryProbe {
    /// Index `i` of the item whose write triggered the fault.
    pub index: usize,
    /// Step at which the fault clause fired.
    pub fault_step: Step,
    /// Steps from the fault until the receiver's next write, if it ever
    /// wrote again within the budget.
    pub steps_to_next_write: Option<Step>,
    /// Steps from the fault until the whole input was written, if the run
    /// completed within the budget.
    pub steps_to_completion: Option<Step>,
}

/// The recovery envelope of one protocol on one input: probes for every
/// index that could be struck.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryEnvelope {
    /// Protocol family name.
    pub protocol: String,
    /// Input length.
    pub input_len: usize,
    /// One probe per struck index, in index order.
    pub probes: Vec<RecoveryProbe>,
}

impl RecoveryEnvelope {
    /// Largest observed steps-to-next-write, the envelope's height.
    /// `None` when no probe recovered.
    pub fn max_next_write(&self) -> Option<Step> {
        self.probes
            .iter()
            .filter_map(|p| p.steps_to_next_write)
            .max()
    }

    /// Whether every probe recovered within the budget — to the next
    /// write, or (for the final index, which has no next write) to
    /// completion.
    pub fn fully_recovered(&self) -> bool {
        !self.probes.is_empty()
            && self
                .probes
                .iter()
                .all(|p| p.steps_to_next_write.is_some() || p.steps_to_completion.is_some())
    }
}

/// Measures one probe: runs `family` on `input` with `cfg`'s fault fired
/// right after item `index` is written, returning `None` if the run never
/// reached the probe point.
pub fn probe_recovery(
    family: &dyn ProtocolFamily,
    input: &DataSeq,
    channel: &ChannelSpec,
    inner: &SchedulerSpec,
    cfg: &SloConfig,
    index: usize,
) -> Option<RecoveryProbe> {
    let clause = FaultClause::new(cfg.action.clone(), Trigger::OnWrite { index })
        .direction(cfg.direction)
        .lasting(cfg.duration);
    let probe_seed = cfg.seed.wrapping_add(index as u64);
    let plan = FaultPlan::single(probe_seed, clause);
    let trace = run_with_plan(
        family,
        input,
        channel.build(),
        inner.build(probe_seed),
        &plan,
        cfg.max_steps,
    );
    let writes = trace.write_steps();
    if writes.len() <= index {
        return None;
    }
    // OnWrite{index} fires at the first decision after the write of item
    // `index` lands, i.e. at step write_steps[index] + 1 (progress is
    // reported to the scheduler at the top of each step).
    let fault_step = writes[index] + 1;
    let steps_to_next_write = writes.get(index + 1).map(|&s| s.saturating_sub(fault_step));
    let steps_to_completion = if writes.len() >= input.len() {
        writes.last().map(|&s| s.saturating_sub(fault_step))
    } else {
        None
    };
    Some(RecoveryProbe {
        index,
        fault_step,
        steps_to_next_write,
        steps_to_completion,
    })
}

/// Measures the full envelope: one probe per index `0..input.len()`.
pub fn recovery_envelope(
    family: &dyn ProtocolFamily,
    input: &DataSeq,
    channel: &ChannelSpec,
    inner: &SchedulerSpec,
    cfg: &SloConfig,
) -> RecoveryEnvelope {
    let probes = (0..input.len())
        .filter_map(|i| probe_recovery(family, input, channel, inner, cfg, i))
        .collect();
    RecoveryEnvelope {
        protocol: family.name().to_string(),
        input_len: input.len(),
        probes,
    }
}

/// The step at which the **last** corruption command took effect in
/// `trace`, or `None` if no corruption event was recorded. This is the
/// point `c` from which stabilization is measured: a self-stabilizing
/// protocol must reconverge within a bounded number of steps after the
/// transient faults stop.
pub fn last_corruption_step(trace: &Trace) -> Option<Step> {
    trace
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::Corruption { .. }))
        .map(|e| e.step)
        .next_back()
}

/// The stabilization point of `trace`: the earliest step `T` such that
/// the writes at steps `>= T` are **exactly** `x[p..n)` for some `p` — an
/// in-order run of input items ending at the input's end. Returns `None`
/// when no such step exists (the run stalled short of the final item, or
/// its tail contains corrupted values).
///
/// The output tape is append-only, so transient corruption can leave
/// garbage or duplicates permanently on the tape; what a self-stabilizing
/// protocol guarantees (DESIGN.md §13) is that the tape's *tail* becomes a
/// clean in-order suffix of the input, reaching the input's end. For an
/// uncorrupted run this degenerates to the step of the first write
/// (`p = 0`). For an empty input any write-free run stabilizes at step 0.
pub fn stabilization_point(trace: &Trace) -> Option<Step> {
    let input = trace.input().items().to_vec();
    let n = input.len();
    let writes: Vec<(Step, stp_core::data::DataItem)> = trace
        .events()
        .iter()
        .filter_map(|e| match e.event {
            Event::Write { item, .. } => Some((e.step, item)),
            _ => None,
        })
        .collect();
    if n == 0 {
        // Nothing to transmit: stabilized once (garbage) writes stop.
        return Some(writes.last().map_or(0, |w| w.0 + 1));
    }
    let w = writes.len();
    // Longest trailing run of writes equal to a suffix of the input that
    // ends at the input's end.
    let mut k = 0usize;
    while k < w && k < n && writes[w - 1 - k].1 == input[n - 1 - k] {
        k += 1;
    }
    if k == 0 {
        return None;
    }
    Some(writes[w - k].0)
}

/// The measured outcome of one corruption strike at one probe point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StabilizationProbe {
    /// Index `i` of the item whose write triggered the corruption.
    pub index: usize,
    /// Step of the last corruption command that took effect.
    pub fault_end: Step,
    /// How many corruption commands took effect.
    pub corruption_events: usize,
    /// The stabilization point `T` (see [`stabilization_point`]), if the
    /// run's write tail reconverged to a clean input suffix within the
    /// budget.
    pub stabilized_at: Option<Step>,
    /// `stabilized_at - fault_end`, saturating at zero when the tail was
    /// already clean before the strike ended.
    pub steps_to_stabilize: Option<Step>,
}

/// The stabilization envelope of one protocol on one input: one corruption
/// strike per index, mirroring [`RecoveryEnvelope`] for transient state
/// corruption instead of channel faults.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StabilizationEnvelope {
    /// Protocol family name.
    pub protocol: String,
    /// Input length.
    pub input_len: usize,
    /// One probe per struck index, in index order.
    pub probes: Vec<StabilizationProbe>,
}

impl StabilizationEnvelope {
    /// Largest observed steps-to-stabilize — the envelope's height, and
    /// the empirical stabilization bound a certificate claims. `None`
    /// when no probe stabilized.
    pub fn max_steps_to_stabilize(&self) -> Option<Step> {
        self.probes
            .iter()
            .filter_map(|p| p.steps_to_stabilize)
            .max()
    }

    /// Whether every probe reconverged within the budget. A protocol
    /// whose envelope is not fully stabilized is flagged *divergent*
    /// under this corruption plan.
    pub fn fully_stabilized(&self) -> bool {
        !self.probes.is_empty() && self.probes.iter().all(|p| p.stabilized_at.is_some())
    }
}

/// Measures one stabilization probe: runs `family` on `input` with
/// `cfg`'s corruption fired right after item `index` is written. Returns
/// `None` if the run never reached the probe point or no corruption
/// command took effect (e.g. the hook found nothing to perturb).
pub fn probe_stabilization(
    family: &dyn ProtocolFamily,
    input: &DataSeq,
    channel: &ChannelSpec,
    inner: &SchedulerSpec,
    cfg: &SloConfig,
    index: usize,
) -> Option<StabilizationProbe> {
    let clause = FaultClause::new(cfg.action.clone(), Trigger::OnWrite { index })
        .direction(cfg.direction)
        .lasting(cfg.duration);
    let probe_seed = cfg.seed.wrapping_add(index as u64);
    let plan = FaultPlan::single(probe_seed, clause);
    let trace = run_with_plan(
        family,
        input,
        channel.build(),
        inner.build(probe_seed),
        &plan,
        cfg.max_steps,
    );
    let fault_end = last_corruption_step(&trace)?;
    let corruption_events = trace
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::Corruption { .. }))
        .count();
    // A tail that began before the strike still counts: it means the
    // corruption left the clean suffix intact (otherwise the tail match
    // would have broken), so the protocol stabilized instantly.
    let stabilized_at = stabilization_point(&trace);
    Some(StabilizationProbe {
        index,
        fault_end,
        corruption_events,
        steps_to_stabilize: stabilized_at.map(|t| t.saturating_sub(fault_end)),
        stabilized_at,
    })
}

/// Measures the full stabilization envelope: one corruption strike per
/// index `0..input.len()`.
pub fn stabilization_envelope(
    family: &dyn ProtocolFamily,
    input: &DataSeq,
    channel: &ChannelSpec,
    inner: &SchedulerSpec,
    cfg: &SloConfig,
) -> StabilizationEnvelope {
    let probes = (0..input.len())
        .filter_map(|i| probe_stabilization(family, input, channel, inner, cfg, i))
        .collect();
    StabilizationEnvelope {
        protocol: family.name().to_string(),
        input_len: input.len(),
        probes,
    }
}

/// Runs `family` on `input` under `plan` compiled over a fresh inner
/// scheduler, for at most `max_steps` steps or until completion.
pub fn run_with_plan(
    family: &dyn ProtocolFamily,
    input: &DataSeq,
    channel: Box<dyn Channel>,
    inner: Box<dyn Scheduler>,
    plan: &FaultPlan,
    max_steps: Step,
) -> stp_core::event::Trace {
    run_campaign(
        input,
        family.sender_for(input),
        family.receiver(),
        channel,
        inner,
        plan,
        max_steps,
    )
}

/// Runs an explicit protocol pair under `plan`, for at most `max_steps`
/// steps or until completion.
pub fn run_campaign(
    input: &DataSeq,
    sender: Box<dyn Sender>,
    receiver: Box<dyn Receiver>,
    channel: Box<dyn Channel>,
    inner: Box<dyn Scheduler>,
    plan: &FaultPlan,
    max_steps: Step,
) -> stp_core::event::Trace {
    let scheduler = CampaignScheduler::new(inner, plan.clone());
    let mut world = World::builder(input.clone())
        .sender(sender)
        .receiver(receiver)
        .channel(channel)
        .scheduler(Box::new(scheduler))
        .build()
        .expect("all components supplied");
    world.run_until(max_steps, World::is_complete);
    world.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_protocols::{HybridFamily, ResendPolicy, StabilizingFamily, TightFamily};

    fn seq(n: u16) -> DataSeq {
        DataSeq::from_indices(0..n)
    }

    #[test]
    fn stabilization_point_of_a_clean_run_is_its_first_write() {
        let fam = TightFamily::new(8, ResendPolicy::EveryTick);
        let input = seq(4);
        let trace = run_with_plan(
            &fam,
            &input,
            ChannelSpec::Dup.build(),
            SchedulerSpec::Eager.build(0),
            &FaultPlan::new(0),
            5_000,
        );
        let writes = trace.write_steps();
        assert_eq!(writes.len(), 4);
        assert_eq!(stabilization_point(&trace), Some(writes[0]));
        assert_eq!(last_corruption_step(&trace), None);
    }

    #[test]
    fn stabilizing_family_reconverges_from_receiver_scrambles() {
        let fam = StabilizingFamily::new(4, 6);
        let input = seq(4);
        // Seed chosen so no scramble draw lands the receiver counter on
        // exactly `n` — the documented blind spot where corruption is
        // indistinguishable from genuine completion (DESIGN.md §13).
        let mut cfg =
            SloConfig::corruption(FaultAction::StateScramble, Direction::ToReceiver, 50_000);
        cfg.seed = 22;
        let env =
            stabilization_envelope(&fam, &input, &ChannelSpec::Del, &SchedulerSpec::Eager, &cfg);
        assert!(!env.probes.is_empty(), "some strikes must land");
        assert!(env.fully_stabilized(), "probes: {:?}", env.probes);
        let bound = env.max_steps_to_stabilize().unwrap();
        assert!(bound < 50_000);
    }

    #[test]
    fn tight_sender_desync_is_flagged_divergent() {
        // CounterDesync clears the tight sender's outstanding item: the
        // handshake deadlocks mid-transfer, the final item is never
        // written, and no clean input suffix ever forms.
        let fam = TightFamily::new(8, ResendPolicy::EveryTick);
        let input = seq(5);
        let cfg = SloConfig::corruption(FaultAction::CounterDesync, Direction::ToSender, 5_000);
        let p = probe_stabilization(
            &fam,
            &input,
            &ChannelSpec::Del,
            &SchedulerSpec::Eager,
            &cfg,
            1,
        )
        .expect("the strike lands after item 1");
        assert_eq!(p.stabilized_at, None, "probe: {p:?}");
    }

    #[test]
    fn tight_del_recovers_from_a_wipeout() {
        let fam = TightFamily::new(8, ResendPolicy::EveryTick);
        let input = seq(6);
        let cfg = SloConfig::wipeout(3, 20_000);
        let env = recovery_envelope(&fam, &input, &ChannelSpec::Del, &SchedulerSpec::Eager, &cfg);
        assert_eq!(env.probes.len(), 6);
        assert!(env.fully_recovered(), "probes: {:?}", env.probes);
    }

    #[test]
    fn probe_records_a_plausible_fault_step() {
        let fam = TightFamily::new(4, ResendPolicy::EveryTick);
        let input = seq(3);
        let cfg = SloConfig::wipeout(2, 5_000);
        let p = probe_recovery(
            &fam,
            &input,
            &ChannelSpec::Del,
            &SchedulerSpec::Eager,
            &cfg,
            1,
        )
        .expect("item 1 is written");
        assert_eq!(p.index, 1);
        assert!(p.fault_step >= 1);
        assert!(p.steps_to_next_write.unwrap() >= 1, "the fault costs time");
    }

    #[test]
    fn hybrid_envelope_grows_with_input_while_tight_stays_flat() {
        // The separation the module exists to exhibit: strike right after
        // item 0, sweep the input length. The tight protocol's recovery
        // depends only on the index struck; the hybrid re-sends the whole
        // remaining sequence, so its recovery grows with the input.
        let cfg = SloConfig::silence(8, 50_000);
        let probe_first = |n: u16| -> (Step, Step) {
            let input = seq(n);
            let tight = TightFamily::new(32, ResendPolicy::EveryTick);
            let t = probe_recovery(
                &tight,
                &input,
                &ChannelSpec::Del,
                &SchedulerSpec::Eager,
                &cfg,
                0,
            )
            .expect("tight writes item 0");
            let hybrid = HybridFamily::new(32, 4, n as usize);
            let h = probe_recovery(
                &hybrid,
                &input,
                &ChannelSpec::Timed { deadline: 4 },
                &SchedulerSpec::Eager,
                &cfg,
                0,
            )
            .expect("hybrid writes item 0");
            (
                t.steps_to_next_write.expect("tight recovers"),
                h.steps_to_next_write.expect("hybrid recovers"),
            )
        };
        let (t_small, h_small) = probe_first(4);
        let (t_big, h_big) = probe_first(16);
        assert!(
            t_big <= t_small + 2,
            "tight recovery must not grow with input: {t_small} -> {t_big}"
        );
        assert!(
            h_big > h_small,
            "hybrid recovery should grow with input: {h_small} -> {h_big}"
        );
        assert!(
            h_big > t_big,
            "hybrid should recover slower than tight at the same size"
        );
    }
}
