//! Massively-multi-session throughput benchmark: the sharded
//! [`SessionServer`](stp_sim::sessions::SessionServer) store under a
//! million-session open/transmit/
//! disconnect churn workload, at 1, 4 and 8 shards, plus a metered
//! 4-shard lane with the fleet registry and stall watchdog armed whose
//! overhead is recorded (and budget-gated in CI), plus a profiled
//! 4-shard lane under the phase-scoped profiler whose overhead is gated
//! the same way. Writes `BENCH_sessions.json` in the current directory,
//! appends one schema-versioned record (lane metrics + per-phase cost
//! breakdown) to `BENCH_history.jsonl` for `bench_gate`'s baselines,
//! and, when `STP_TELEMETRY` is set, emits one `{"sessions": …}` line
//! per lane, the metered lane's per-shard + aggregate `{"fleet": …}`
//! snapshots, and the profiled lane's `{"prof": …}` report. Progress
//! goes to stderr as one line per lane and lap; to watch a churn run's
//! retirements live, read the fleet row (`sessions_top` does).
//!
//! ## Timing model
//!
//! Lane throughput is **critical-path** timing: each lane steps its
//! shards sequentially, in isolation, and records every shard's exact
//! single-threaded stepping seconds; the lane's `sessions_per_sec` is
//! completed sessions over the *busiest* shard's seconds. That is the
//! wall time the lane converges to on a host with a core per shard, and
//! it measures what sharding actually controls — partition balance and
//! per-shard speed — rather than how many cores the benchmark host
//! happens to have (CI runners often pin this binary to one or two). The
//! honest wall clock of each run is recorded alongside (`wall_secs`,
//! which on a single-core host is close to the *sum* of the per-shard
//! times). The host's measured parallelism is recorded as
//! `host_cores_effective` (what the scheduler actually grants this
//! process — cgroup and affinity aware) and `host_cores_present` (CPUs
//! the kernel reports), so a `1` next to 4- and 8-shard lanes reads as
//! "critical-path projection from one core", not as a claim the lanes
//! ran in parallel.
//!
//! ## Metered overhead
//!
//! The metered lane re-runs the 4-shard workload with a
//! [`FleetRegistry`] attached and the default [`WatchdogSpec`] armed.
//! `metered_overhead` compares **total busy seconds** (summed across
//! shards) against the unmetered 4-shard lane — the sum is steadier than
//! the per-shard max on small hosts, and metering cost is per-shard
//! work, so the sum is the quantity the registry can actually inflate.
//! Both sides are measured as the **minimum over interleaved laps**:
//! shared benchmark hosts inject multi-percent one-sided timing noise
//! (a single identical lap can vary ±10%+ under a noisy neighbour), and
//! since noise only ever *adds* time, min-of-N on each side converges on
//! the true cost while a single-shot ratio would gate on the weather.
//! The metered digest must equal the unmetered digest (observation never
//! changes an outcome) and the watchdog must stay silent on this clean
//! workload.
//!
//! Every lane runs the identical seeded workload; the per-session
//! outcome digest must agree across shard counts — the sharding is
//! required to change scheduling only, never any session's result.

use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use stp_bench::history::{self, HistoryRecord, HISTORY_FILE};
use stp_bench::host::host_parallelism;
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_protocols::{FamilySpec, ResendPolicy};
use stp_sim::fleet::{FleetRegistry, WatchdogSpec};
use stp_sim::sessions::{run_churn, ChurnReport, ChurnRun, ChurnSpec, ServerSpec, SessionTemplate};
use stp_sim::{PhaseProfiler, SessionsRecord, TelemetryLine};

/// One shard-count lane of the benchmark.
#[derive(Debug, Serialize)]
struct Lane {
    shards: u16,
    /// Whether the fleet registry + watchdog were attached for this lane.
    metered: bool,
    completed: u64,
    critical_path_secs: f64,
    /// Total stepping seconds summed across shards — the denominator of
    /// the metered-overhead ratio.
    busy_secs: f64,
    wall_secs: f64,
    sessions_per_sec: f64,
    p99_latency_rounds: f64,
    rounds: u64,
}

impl Lane {
    fn from_report(report: &ChurnReport, shards: u16, metered: bool) -> Self {
        Lane {
            shards,
            metered,
            completed: report.fleet.completed,
            critical_path_secs: report.critical_path_secs(),
            busy_secs: report.shard_busy_secs.iter().sum(),
            wall_secs: report.wall_secs,
            sessions_per_sec: report.sessions_per_sec(),
            p99_latency_rounds: report.p99_latency_rounds(),
            rounds: report.fleet.round,
        }
    }
}

#[derive(Debug, Serialize)]
struct SessionsBenchReport {
    workload: String,
    timing: String,
    /// Parallelism actually granted to this process (affinity/cgroup
    /// aware) — what the lanes were *measured* on.
    host_cores_effective: usize,
    /// CPUs the kernel reports as present, `>= host_cores_effective`.
    host_cores_present: usize,
    sessions_submitted: u64,
    sessions_completed: u64,
    sessions_disconnected: u64,
    sessions_exhausted: u64,
    digest: String,
    lanes: Vec<Lane>,
    metered_lane: Lane,
    /// Busy-seconds inflation of the metered 4-shard lane over the
    /// unmetered one (0.012 = +1.2%). Budget-gated in CI.
    metered_overhead: f64,
    profiled_lane: Lane,
    /// Busy-seconds inflation of the profiled 4-shard lane (phase-scoped
    /// profiler at its default sampling period) over the unmetered one.
    /// Budget-gated in CI.
    prof_overhead: f64,
    sessions_per_sec_1: f64,
    sessions_per_sec_4: f64,
    sessions_per_sec_8: f64,
    p99_latency_rounds: f64,
    scaling_4_over_1: f64,
    scaling_8_over_1: f64,
}

fn workload(shards: u16) -> ChurnSpec {
    ChurnSpec {
        sessions: 1_100_000,
        arrivals_per_round: 4_096,
        server: ServerSpec {
            shards,
            capacity_per_shard: 4_096,
            quantum: 8,
            watchdog: None,
        },
        max_steps: 2_000,
        seed: 0x5E55_1045,
        disconnect_rate: 0.05,
        disconnect_after: 2,
        // No template loses a copy: `Random` and `DupStorm` never delete,
        // and neither the del nor the lossy-FIFO channel drops on its own,
        // so every session reports `drops == 0` and the "lossy" and "del"
        // lanes exercise delivery, not loss. Changing the mix would move
        // the committed digest (DESIGN §14).
        mix: vec![
            SessionTemplate {
                family: FamilySpec::Tight {
                    d: 3,
                    policy: ResendPolicy::Once,
                },
                channel: ChannelSpec::Dup,
                scheduler: SchedulerSpec::DupStorm { p_deliver: 0.9 },
            },
            SessionTemplate {
                family: FamilySpec::Abp {
                    domain: 2,
                    max_len: 3,
                },
                channel: ChannelSpec::LossyFifo,
                scheduler: SchedulerSpec::Random { p_deliver: 0.8 },
            },
            SessionTemplate {
                family: FamilySpec::Tight {
                    d: 4,
                    policy: ResendPolicy::EveryTick,
                },
                channel: ChannelSpec::Del,
                scheduler: SchedulerSpec::Random { p_deliver: 0.7 },
            },
        ],
    }
}

fn main() {
    let (host_cores_effective, host_cores_present) = host_parallelism();
    // Every lane times each shard in isolation (see the module docs).
    let isolated = ChurnRun {
        isolated: true,
        ..ChurnRun::default()
    };

    let mut lanes = Vec::new();
    let mut records: Vec<SessionsRecord> = Vec::new();
    let mut first_report = None;
    let mut unmetered_4_busy = 0.0_f64;
    for shards in [1u16, 4, 8] {
        eprintln!("bench_sessions: lane {shards} shard(s)…");
        let spec = workload(shards);
        let report = run_churn(&spec, &isolated);
        let fleet = &report.fleet;
        assert_eq!(fleet.submitted, spec.sessions);
        assert_eq!(
            fleet.completed + fleet.exhausted + fleet.disconnected,
            fleet.submitted
        );
        let lane = Lane::from_report(&report, shards, false);
        if shards == 4 {
            unmetered_4_busy = lane.busy_secs;
        }
        lanes.push(lane);
        records.push(report.record("bench_sessions"));
        match &first_report {
            None => first_report = Some(report),
            Some(base) => {
                assert_eq!(
                    report.digest, base.digest,
                    "sharding must not change any session's outcome"
                );
                assert_eq!(report.fleet.completed, base.fleet.completed);
            }
        }
    }
    let base = first_report.expect("three lanes ran");

    // Metered lane: same 4-shard workload, fleet registry attached and
    // the default watchdog armed. Observation must not change a single
    // outcome, and the watchdog must stay silent — this workload always
    // retires sessions well inside their α(m)-derived bound. Overhead
    // is min-of-laps on both sides (see the module docs on noise).
    const OVERHEAD_LAPS: usize = 3;
    let mut metered_spec = workload(4);
    metered_spec.server.watchdog = Some(WatchdogSpec::default());
    let mut plain_busy = unmetered_4_busy;
    let mut metered_busy = f64::INFINITY;
    let mut metered_lane = None;
    let mut last_snapshot = None;
    for lap in 1..=OVERHEAD_LAPS {
        eprintln!(
            "bench_sessions: metered lane 4 shard(s) (fleet registry + watchdog), \
             lap {lap}/{OVERHEAD_LAPS}…"
        );
        let fleet = FleetRegistry::new(4);
        let metered = run_churn(
            &metered_spec,
            &ChurnRun {
                fleet: Some(&fleet),
                ..isolated
            },
        );
        assert_eq!(
            metered.digest, base.digest,
            "metering must not change any session's outcome"
        );
        assert_eq!(metered.fleet.completed, base.fleet.completed);
        assert!(
            metered.stalls.is_empty(),
            "watchdog false positives on the clean bench workload: {}",
            metered.stalls.len()
        );
        let snapshot = fleet.snapshot();
        assert_eq!(snapshot.stats(), metered.fleet);
        last_snapshot = Some(snapshot);
        let lane = Lane::from_report(&metered, 4, true);
        if lane.busy_secs < metered_busy {
            metered_busy = lane.busy_secs;
            metered_lane = Some(lane);
        }
        if lap == OVERHEAD_LAPS {
            records.push(metered.record("bench_sessions"));
            break;
        }
        // Interleave an unmetered control lap so both sides sample the
        // same host weather.
        eprintln!(
            "bench_sessions: unmetered control lap {lap}/{}…",
            OVERHEAD_LAPS - 1
        );
        let control = run_churn(&workload(4), &isolated);
        assert_eq!(control.digest, base.digest);
        plain_busy = plain_busy.min(control.shard_busy_secs.iter().sum());
    }
    let snapshot = last_snapshot.expect("metered laps ran");
    let stats = snapshot.stats();
    let metered_lane = metered_lane.expect("metered laps ran");
    let metered_overhead = metered_busy / plain_busy - 1.0;

    // Profiled lane: the same 4-shard workload under the phase-scoped
    // profiler at its default (sparse) sampling period. Profiling must
    // not change a single outcome — the sampled quanta run the same
    // generic step body, just observed — and its busy-seconds inflation
    // is measured min-of-laps against the unmetered minimum, like the
    // metered lane.
    const PROF_LAPS: usize = 2;
    let prof = Arc::new(PhaseProfiler::new(PhaseProfiler::DEFAULT_PERIOD));
    let mut profiled_busy = f64::INFINITY;
    let mut profiled_lane = None;
    for lap in 1..=PROF_LAPS {
        eprintln!("bench_sessions: profiled lane 4 shard(s), lap {lap}/{PROF_LAPS}…");
        let profiled = run_churn(
            &workload(4),
            &ChurnRun {
                profiler: Some(&prof),
                ..isolated
            },
        );
        assert_eq!(
            profiled.digest, base.digest,
            "profiling must not change any session's outcome"
        );
        assert_eq!(profiled.fleet.completed, base.fleet.completed);
        let lane = Lane::from_report(&profiled, 4, false);
        if lane.busy_secs < profiled_busy {
            profiled_busy = lane.busy_secs;
            profiled_lane = Some(lane);
        }
        if lap == PROF_LAPS {
            records.push(profiled.record("bench_sessions"));
        }
    }
    let profiled_lane = profiled_lane.expect("profiled laps ran");
    let prof_overhead = profiled_busy / plain_busy - 1.0;
    let prof_record = prof.report("bench_sessions", "churn_4shard");

    let rate = |shards: u16| {
        lanes
            .iter()
            .find(|l| l.shards == shards)
            .map(|l| l.sessions_per_sec)
            .expect("lane ran")
    };
    let (r1, r4, r8) = (rate(1), rate(4), rate(8));
    let report = SessionsBenchReport {
        workload: format!(
            "churn: {} sessions, 5% walk-away, mix {{tight-dup, abp-lossy, tight-del}}, \
             4096 arrivals/round",
            base.fleet.submitted
        ),
        timing: "critical-path".to_string(),
        host_cores_effective,
        host_cores_present,
        sessions_submitted: base.fleet.submitted,
        sessions_completed: base.fleet.completed,
        sessions_disconnected: base.fleet.disconnected,
        sessions_exhausted: base.fleet.exhausted,
        digest: format!("{:016x}", base.digest),
        sessions_per_sec_1: r1,
        sessions_per_sec_4: r4,
        sessions_per_sec_8: r8,
        p99_latency_rounds: lanes.last().expect("lanes ran").p99_latency_rounds,
        scaling_4_over_1: r4 / r1,
        scaling_8_over_1: r8 / r1,
        lanes,
        metered_lane,
        metered_overhead,
        profiled_lane,
        prof_overhead,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_sessions.json", &json).expect("BENCH_sessions.json written");
    println!("{json}");
    println!(
        "bench_sessions: 4-shard lane {r4:.0}/s critical-path, measured on \
         {host_cores_effective} effective core(s) ({host_cores_present} present); \
         fleet metering overhead {:+.2}% busy-secs, profiling overhead {:+.2}%",
        report.metered_overhead * 100.0,
        report.prof_overhead * 100.0
    );

    // Durable trajectory: one schema-versioned record per run, appended
    // to the history file bench_gate reads its baselines from.
    let history_record = HistoryRecord::new("bench_sessions")
        .metric("sessions_completed", report.sessions_completed as f64)
        .metric("sessions_per_sec_1", r1)
        .metric("sessions_per_sec_4", r4)
        .metric("sessions_per_sec_8", r8)
        .metric("scaling_4_over_1", report.scaling_4_over_1)
        .metric("metered_overhead", report.metered_overhead)
        .metric("prof_overhead", report.prof_overhead)
        .phases_from(std::slice::from_ref(&prof_record));
    if let Err(e) = history::append(Path::new(HISTORY_FILE), &history_record) {
        eprintln!("bench_sessions: cannot append {HISTORY_FILE}: {e}");
    }
    stp_bench::telemetry::export("bench_sessions", [TelemetryLine::Prof(prof_record)]);

    stp_bench::telemetry::export(
        "bench_sessions",
        records.iter().cloned().map(TelemetryLine::Sessions),
    );
    let fleet_records = snapshot
        .shards
        .iter()
        .map(|s| s.record("bench_sessions"))
        .chain([stats.record("bench_sessions")]);
    stp_bench::telemetry::export("bench_sessions", fleet_records.map(TelemetryLine::Fleet));
    // Headline gates, re-checked (with reviewed budgets) by CI's
    // bench_gate step: a million completed sessions in one churn run,
    // 4-way sharding at least 2.5× the single shard on the critical
    // path, and fleet metering within its busy-seconds budget.
    stp_bench::telemetry::export_summary(
        "bench_sessions",
        records.len(),
        report.sessions_completed >= 1_000_000
            && report.scaling_4_over_1 >= 2.5
            && report.metered_overhead <= 0.05
            && report.prof_overhead <= 0.05,
    );
}
