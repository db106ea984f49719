//! `churn`: `bench_sessions`' session mix (tight-dup d3 under a dup storm,
//! ABP on a lossy FIFO, tight-del d4 EveryTick; 5% of users walk away two
//! rounds after admission) on its server shape (1 shard × 4096 slots,
//! quantum 8), driven through `SessionServer::submit`, `step_rounds` and
//! `drain_completed` as a closed loop of 4096 clients: each submits its
//! next session as soon as the previous one drains, so the slots stay full
//! and no queue grows. Latency runs from submit to drain.
//!
//! Session specs come from `ChurnSpec::session_at` over a pool built at
//! set-up; clients cycle through it in order, so every run of a seed
//! submits the same sessions in the same order.

use crate::layers;
use crate::replay::{Pool, Recipe};
use crate::stats::{self, fold, stats_digest, SplitMix};
use crate::trace::{span, Calibration, Recorder, Shared};
use crate::{num, time_setup, Args, Laps, Report};
use std::collections::HashMap;
use std::time::Instant;
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_protocols::{FamilySpec, ResendPolicy};
use stp_sim::{
    ChurnSpec, ServerSpec, SessionFate, SessionId, SessionOutcome, SessionServer, SessionSpec,
    SessionTemplate,
};

const CLIENTS: usize = 4096;
const QUANTUM: u32 = 8;
const POOL: u64 = 1 << 15;
/// Sessions retired per lap.
const LAP: u64 = 32_768;
/// One pool entry in this many is replayed by the traced run.
const SAMPLE_EVERY: u64 = 16;

fn churn_spec(seed: u64) -> ChurnSpec {
    ChurnSpec {
        sessions: POOL,
        arrivals_per_round: CLIENTS as u64,
        server: ServerSpec {
            shards: 1,
            capacity_per_shard: CLIENTS,
            quantum: QUANTUM,
            watchdog: None,
        },
        max_steps: 2_000,
        seed,
        disconnect_rate: 0.05,
        disconnect_after: 2,
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

struct Setup {
    spec: ChurnSpec,
    pool: Vec<SessionSpec>,
    server: SessionServer,
}

fn setup(seed: u64) -> Setup {
    let spec = churn_spec(seed);
    let claimed = spec.claimed_inputs();
    let pool = (0..POOL).map(|k| spec.session_at(k, &claimed)).collect();
    let server = SessionServer::new(&spec.server);
    Setup { spec, pool, server }
}

/// A clock that runs only while a loop runs, so the pauses between laps
/// (calibration, replays) never count as session latency.
#[derive(Debug, Default)]
struct LoopClock {
    base_ns: u64,
    since: Option<Instant>,
}

impl LoopClock {
    fn resume(&mut self) {
        self.since = Some(Instant::now());
    }

    fn pause(&mut self) {
        self.base_ns = self.now_ns();
        self.since = None;
    }

    fn now_ns(&self) -> u64 {
        self.base_ns + self.since.map_or(0, |s| s.elapsed().as_nanos() as u64)
    }
}

/// Spans around the server calls, in the traced run.
struct ServerSpans {
    rec: Shared,
    submit: u16,
    step: u16,
    drain: u16,
    /// Sessions stepped, summed over rounds.
    active: u64,
}

/// What one lap saw.
#[derive(Debug, Default)]
struct Lap {
    secs: f64,
    latency_ms: Vec<f64>,
    rounds: Vec<f64>,
}

/// The clients and outcome checker around one server.
struct Clients<'a> {
    s: &'a Setup,
    clock: LoopClock,
    cursor: u64,
    /// Submission index and start time of every session in the server.
    inflight: HashMap<SessionId, (u64, u64)>,
    /// Stats digest per pool entry; 0 until one of its sessions drains.
    seen: Vec<u64>,
    spans: Option<ServerSpans>,
    attempted: u64,
    exhausted: u64,
    disconnected: u64,
    unsafe_runs: u64,
    short_writes: u64,
    inconsistent: u64,
    /// Digest over the outcomes of the first `POOL` submissions, folded in
    /// drain order, which the closed loop makes deterministic.
    digest: u64,
}

impl<'a> Clients<'a> {
    fn new(s: &'a Setup, rec: Option<&Shared>) -> Clients<'a> {
        let spans = rec.map(|r| {
            let mut m = r.borrow_mut();
            ServerSpans {
                rec: r.clone(),
                submit: m.name("sessions.submit"),
                step: m.name("sessions.step_round"),
                drain: m.name("sessions.drain"),
                active: 0,
            }
        });
        Clients {
            s,
            clock: LoopClock::default(),
            cursor: 0,
            inflight: HashMap::with_capacity(2 * CLIENTS),
            seen: vec![0; POOL as usize],
            spans,
            attempted: 0,
            exhausted: 0,
            disconnected: 0,
            unsafe_runs: 0,
            short_writes: 0,
            inconsistent: 0,
            digest: 0,
        }
    }

    fn submit(&mut self, start_ns: u64) {
        let k = self.cursor;
        self.cursor += 1;
        let spec = self.s.pool[(k % POOL) as usize].clone();
        let server = &self.s.server;
        let id = match &self.spans {
            Some(sp) => span(&sp.rec, sp.submit, || server.submit(spec)),
            None => server.submit(spec),
        };
        self.inflight.insert(id, (k, start_ns));
    }

    /// Steps one round and accounts for what drained; returns how many.
    fn step_and_drain(&mut self, lap: &mut Lap) -> usize {
        let server = &self.s.server;
        let outcomes = match &mut self.spans {
            Some(sp) => {
                // Queued sessions are admitted at the start of the round.
                sp.active += (server.active_sessions() + server.queued_sessions()) as u64;
                span(&sp.rec, sp.step, || server.step_rounds(1));
                span(&sp.rec, sp.drain, || server.drain_completed())
            }
            None => {
                server.step_rounds(1);
                server.drain_completed()
            }
        };
        let now = self.clock.now_ns();
        for o in &outcomes {
            self.account(o, now, lap);
        }
        outcomes.len()
    }

    fn account(&mut self, o: &SessionOutcome, now_ns: u64, lap: &mut Lap) {
        let (k, start) = self
            .inflight
            .remove(&o.id)
            .expect("every drained session was submitted by these clients");
        let idx = (k % POOL) as usize;
        lap.latency_ms
            .push(now_ns.saturating_sub(start) as f64 / 1e6);
        lap.rounds.push(o.latency_rounds() as f64);
        self.attempted += 1;
        match o.fate {
            SessionFate::Completed => {
                self.short_writes += u64::from(o.stats.written != o.stats.input_len);
            }
            SessionFate::Exhausted => self.exhausted += 1,
            SessionFate::Disconnected => self.disconnected += 1,
        }
        self.unsafe_runs += u64::from(!o.stats.safe);
        let d = stats_digest(&o.stats) | 1;
        match self.seen[idx] {
            0 => self.seen[idx] = d,
            prev => self.inconsistent += u64::from(prev != d),
        }
        if k < POOL {
            self.digest = fold(self.digest, d);
        }
    }

    /// One lap into `lap`, reusing its buffers: at least `LAP` sessions
    /// retire, each replaced by its client's next session on drain.
    fn lap(&mut self, lap: &mut Lap) {
        lap.latency_ms.clear();
        lap.rounds.clear();
        self.clock.resume();
        let t = Instant::now();
        if self.inflight.is_empty() {
            let now = self.clock.now_ns();
            for _ in 0..CLIENTS {
                self.submit(now);
            }
        }
        let mut retired = 0;
        while retired < LAP {
            let n = self.step_and_drain(lap);
            let now = self.clock.now_ns();
            for _ in 0..n {
                self.submit(now);
            }
            retired += n as u64;
        }
        lap.secs = t.elapsed().as_secs_f64();
        self.clock.pause();
    }

    fn finish(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.exhausted + self.unsafe_runs + self.short_writes;
        report.check("every retired session is safe", self.unsafe_runs == 0);
        report.check(
            "every completed session wrote its whole input",
            self.short_writes == 0,
        );
        report.check(
            "every session of one pool entry retires with the same stats",
            self.inconsistent == 0,
        );
        report.detail(
            "sessions",
            format!(
                "{{\"submitted\":{},\"retired\":{},\"exhausted\":{},\"disconnected\":{},\"unsafe\":{}}}",
                self.cursor, self.attempted, self.exhausted, self.disconnected, self.unsafe_runs
            ),
        );
        report.detail("digest", format!("\"{:016x}\"", self.digest));
    }
}

pub fn end_to_end(args: &Args) -> Report {
    let mut report = Report::default();
    time_setup(&mut report, || setup(args.seed));
    let s = setup(args.seed);
    let mut d = Clients::new(&s, None);
    let mut lap = Lap::default();
    d.lap(&mut lap);

    let mut laps = Laps::default();
    let mut samples = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        d.lap(&mut lap);
        samples += lap.latency_ms.len();
        let rate = lap.latency_ms.len() as f64 / lap.secs;
        let p50 = stats::quantile(&mut lap.latency_ms, 0.5);
        laps.push(rate, p50, stats::quantile(&mut lap.latency_ms, 0.99));
    }
    d.finish(&mut report);
    report.detail("latency_samples", samples.to_string());
    laps.report(&mut report);
    report
}

/// Replays the sampled pool entries; returns (steps, entries checked
/// against a drained outcome, mismatches).
fn replay_sample(
    s: &Setup,
    seen: &[u64],
    sample: &[usize],
    pool: &mut Pool,
    keep_rows: bool,
) -> (u64, u64, u64) {
    let (mut steps, mut checked, mut mismatched) = (0, 0, 0);
    for &idx in sample {
        let spec = &s.pool[idx];
        let cap = spec.ttl_rounds.map_or(spec.max_steps, |ttl| {
            (ttl * u64::from(QUANTUM)).min(spec.max_steps)
        });
        let recipe = idx % s.spec.mix.len();
        let stats = pool.run(recipe, &spec.input, spec.seed, cap, (idx as u64, keep_rows));
        steps += stats.steps;
        if seen[idx] != 0 {
            checked += 1;
            mismatched += u64::from(seen[idx] != (stats_digest(&stats) | 1));
        }
    }
    (steps, checked, mismatched)
}

pub fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let s = setup(args.seed);
    let rec = Recorder::shared();
    let mut cal = Calibration::new();
    let recipes = || -> Vec<Recipe> {
        s.spec
            .mix
            .iter()
            .map(|t| Recipe::new(&t.family, &t.channel, &t.scheduler))
            .collect()
    };
    let mut plain = Pool::new(recipes(), false, None);
    let mut decorated = Pool::new(recipes(), false, Some(&rec));
    let sample: Vec<usize> = (0..POOL)
        .filter(|&i| {
            SplitMix::new(args.seed ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D))
                .next_u64()
                .is_multiple_of(SAMPLE_EVERY)
        })
        .map(|i| i as usize)
        .collect();

    let mut d = Clients::new(&s, Some(&rec));
    let mut lap = Lap::default();
    d.lap(&mut lap);
    let warm_retired = d.attempted;
    if let Some(sp) = &mut d.spans {
        sp.active = 0;
    }
    rec.borrow_mut().clear_totals();

    let (mut r, mut t) = (0.0, 0.0);
    let (mut steps, mut checked, mut mismatched) = (0, 0, 0);
    let (mut latency_p50, mut rounds_p50, mut rounds_p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut cycles = 0u64;
    let start = Instant::now();
    while cycles == 0 || start.elapsed().as_secs_f64() < args.seconds {
        // Server spans feed the aggregates only; rows are kept for
        // replayed sessions.
        rec.borrow_mut().begin_item(u64::MAX, false);
        cal.sample();
        d.lap(&mut lap);
        latency_p50.push(stats::quantile(&mut lap.latency_ms, 0.5));
        rounds_p50.push(stats::quantile(&mut lap.rounds, 0.5));
        rounds_p99.push(stats::quantile(&mut lap.rounds, 0.99));
        let a = Instant::now();
        let (_, c1, m1) = replay_sample(&s, &d.seen, &sample, &mut plain, false);
        let b = Instant::now();
        let (st, c2, m2) = replay_sample(&s, &d.seen, &sample, &mut decorated, cycles == 0);
        let c = Instant::now();
        r += (b - a).as_secs_f64();
        t += (c - b).as_secs_f64();
        steps += st;
        checked += c1 + c2;
        mismatched += m1 + m2;
        cycles += 1;
    }
    d.finish(&mut report);
    let cost = cal.cost();
    report.check(
        "replayed sessions retire with the server's stats",
        mismatched == 0,
    );
    report.detail("replay_checked", checked.to_string());

    let rec_ref = rec.borrow();
    let (submit, step, drain) = (
        rec_ref.agg("sessions.submit"),
        rec_ref.agg("sessions.step_round"),
        rec_ref.agg("sessions.drain"),
    );
    let retired = (d.attempted - warm_retired) as f64;
    let active = d.spans.as_ref().map_or(0, |sp| sp.active) as f64;
    let (submit_ns, step_ns, drain_ns) = (
        cost.corrected_self_ns(submit),
        cost.corrected_self_ns(step),
        cost.corrected_self_ns(drain),
    );
    let round_us = step_ns / step.calls.max(1) as f64 / 1e3;
    // Medians over laps of each lap's quantiles.
    let (rounds_p50, rounds_p99) = (
        stats::median(&mut rounds_p50),
        stats::median(&mut rounds_p99),
    );

    let layers = layers::layer_metrics(&mut report, &rec_ref, &cost, cycles as f64, steps);
    report.metric(
        "sessions.submit_ns",
        submit_ns / submit.calls.max(1) as f64,
        "ns",
    );
    report.metric("sessions.drain_ns_per_outcome", drain_ns / retired, "ns");
    report.metric("sessions.round_ns_per_active", step_ns / active, "ns");
    report.metric("sessions.round_us", round_us, "us");
    report.metric("sessions.latency_rounds_p50", rounds_p50, "rounds");
    report.metric("sessions.latency_rounds_p99", rounds_p99, "rounds");
    // The layer model of one session: its replayed step cost plus the
    // server's submit and drain costs, against the server's measured busy
    // time per retired session.
    let busy = (submit_ns + step_ns + drain_ns) / retired;
    let replayed = layers.total_ns / (cycles as f64 * sample.len() as f64);
    let predicted = replayed + (submit_ns + drain_ns) / retired;
    report.metric("unattributed_share", 1.0 - predicted / busy, "share");
    report.metric("trace_overhead", t / r - 1.0, "share");

    report.detail("cycles", cycles.to_string());
    report.detail("sample_sessions", sample.len().to_string());
    report.detail(
        "span_cost_ns",
        format!(
            "{{\"inside\":{},\"total\":{}}}",
            cost.inside_ns, cost.total_ns
        ),
    );
    report.detail("active_per_round", num(active / step.calls.max(1) as f64));
    report.detail(
        "latency_split",
        format!(
            "{{\"latency_p50_ms\":{},\"rounds_p50_x_round_us_ms\":{}}}",
            num(stats::median(&mut latency_p50)),
            num(rounds_p50 * round_us / 1e3)
        ),
    );
    report.detail(
        "decorator_shares",
        layers.shares_json(busy * cycles as f64 * sample.len() as f64),
    );
    layers::write_spans(&mut report, &rec_ref, "churn");
    report
}
