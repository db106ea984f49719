//! One-stop imports for driving simulations and sweeps.
//!
//! ```
//! use stp_sim::prelude::*;
//!
//! let spec = SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
//!     .max_steps(2_000)
//!     .seeds([0])
//!     .trace_mode(TraceMode::Off)
//!     .threads(1);
//! let outcome = SweepEngine::new(spec)
//!     .run(&stp_protocols::TightFamily::new(2, stp_protocols::ResendPolicy::Once));
//! assert!(outcome.all_complete());
//! ```

pub use crate::engine::{IsolatedReport, SweepEngine, SweepSpec};
pub use crate::fleet::{
    healthy_step_bound, prometheus_text, FleetDelta, FleetRecord, FleetRegistry, FleetSnapshot,
    FleetStats, FleetWatch, ShardMetrics, StallRecord, WatchdogSpec, NO_SAMPLES,
};
pub use crate::metrics::{Histogram, MetricsProbe, RunStats, SweepReport};
pub use crate::runner::{run_family_member, MemberRun, SweepOutcome};
pub use crate::sessions::{
    run_churn, ChurnReport, ChurnRun, ChurnSpec, ServerSpec, SessionEngine, SessionFate, SessionId,
    SessionOutcome, SessionServer, SessionSpec, SessionStatus, SessionTemplate,
};
pub use crate::shrink::{shrink_plan, shrink_to_witness, CampaignJudge, Violation, Witness};
pub use crate::slo::{
    probe_recovery, recovery_envelope, RecoveryEnvelope, RecoveryProbe, SloConfig,
};
pub use crate::telemetry::{
    ExperimentSummary, FrontierRecord, MemorySink, RunRecord, SessionsRecord, Sink, SpanRecord,
    TelemetryLine, TelemetryWriter,
};
pub use crate::trace::{
    chrome_trace_json, write_chrome_trace, CounterTrack, LifecycleCounts, MsgFate, MsgSpan,
    MsgSpans,
};
pub use crate::world::{World, WorldBuilder};
pub use stp_channel::campaign::{
    CampaignScheduler, Direction, FaultAction, FaultClause, FaultPlan, Trigger,
};
pub use stp_channel::{ChannelSpec, SchedulerSpec};
pub use stp_core::event::TraceMode;
pub use stp_protocols::FamilySpec;
