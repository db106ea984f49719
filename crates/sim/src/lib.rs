//! # stp-sim — the discrete-event executor
//!
//! Runs a sender/receiver pair against a channel and an adversarial
//! scheduler in lock-step global steps, recording everything as a
//! [`Trace`](stp_core::event::Trace). One global step is:
//!
//! 1. the scheduler inspects the channel and decides deletions and at most
//!    one delivery per processor (the paper's §2.2 model);
//! 2. deletions are applied (recorded as `ChannelDrop`);
//! 3. each processor handles its event — `Init` at step 0, `Deliver(m)` if
//!    a message arrived, `Tick` otherwise — and its outputs (sends, tape
//!    writes) are applied *after* the deliveries, so nothing is delivered
//!    in the step it was sent;
//! 4. the channel's clock advances (timed channels expire messages here).
//!
//! Everything is deterministic given the scheduler's seed, so runs are
//! replayable; the verifier leans on this to re-execute adversarial
//! extensions it has constructed.
//!
//! ```
//! use stp_core::data::DataSeq;
//! use stp_sim::World;
//!
//! let input = DataSeq::from_indices([2, 0, 1]);
//! let mut world = World::tight_dup(input.clone(), 3);
//! let trace = world.run_to_completion(1_000).unwrap();
//! assert_eq!(trace.output(), input);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod fault;
pub mod fleet;
mod kernel;
pub mod metrics;
pub mod prelude;
pub mod prof;
pub mod replay;
pub mod runner;
pub mod sessions;
pub mod shrink;
pub mod slo;
pub mod telemetry;
pub mod trace;
pub mod world;

pub use engine::{IsolatedReport, SweepEngine, SweepSpec};
pub use error::SimError;
pub use fault::burst_plan;
pub use fleet::{
    healthy_step_bound, prometheus_text, FleetDelta, FleetRecord, FleetRegistry, FleetSnapshot,
    FleetStats, FleetWatch, ShardMetrics, StallRecord, WatchdogSpec, NO_SAMPLES,
};
pub use metrics::{Histogram, MetricsProbe, RunStats, SweepReport};
pub use prof::{folded, note_alloc, Phase, PhaseProfiler, ProfPhase, ProfRecord};
pub use replay::{replay, script_from_trace, scripted_world};
pub use runner::{run_family_member, MemberRun, SweepOutcome};
pub use sessions::{
    run_churn, ChurnReport, ChurnRun, ChurnSpec, ServerSpec, SessionEngine, SessionFate, SessionId,
    SessionOutcome, SessionServer, SessionSpec, SessionStatus, SessionTemplate,
};
pub use shrink::{
    classify, is_one_minimal, shrink_plan, shrink_to_witness, CampaignJudge, Violation, Witness,
};
pub use slo::{
    last_corruption_step, probe_recovery, probe_stabilization, recovery_envelope, run_campaign,
    run_with_plan, stabilization_envelope, stabilization_point, RecoveryEnvelope, RecoveryProbe,
    SloConfig, StabilizationEnvelope, StabilizationProbe,
};
pub use telemetry::{
    ExperimentSummary, FrontierRecord, MemorySink, RunRecord, SessionsRecord, Sink, SpanRecord,
    StabilizationRecord, TelemetryLine, TelemetryWriter,
};
pub use trace::{
    chrome_trace_json, write_chrome_trace, CounterTrack, LifecycleCounts, MsgFate, MsgSpan,
    MsgSpans,
};
pub use world::{World, WorldBuilder};
