//! Causal trace recorder and query tool.
//!
//! ```text
//! trace_query record [OUT_DIR] [SEED]     record one traced E1-style cell
//! trace_query --validate PERFETTO.json   structural checks on an export
//! trace_query fate ID [SPANS.jsonl]       full fate of one MsgId
//! trace_query critical I [SPANS.jsonl]    critical path of input item I
//! trace_query stalls [K] [SPANS.jsonl]    top-K stall intervals
//! ```
//!
//! `record` runs the tight protocol (`m = 4`) over a duplicating channel
//! under a duplication storm with the full trace and provenance
//! recording on, folds the recording into spans (`MsgSpans`) and the
//! knowledge frontier (`Frontier`), reconciles the spans against the
//! world's statistics, and writes `OUT_DIR/trace.perfetto.json` (open it
//! in `ui.perfetto.dev`) plus `OUT_DIR/spans.jsonl` (run + span +
//! frontier telemetry lines).
//! The query subcommands answer questions from the JSONL; `--validate`
//! checks the Perfetto JSON parses and is structurally sound. Every
//! failure path exits nonzero, so CI can gate on this binary.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::ExitCode;
use stp_core::data::DataSeq;
use stp_core::event::{ProcessId, Step, TraceMode};
use stp_knowledge::Frontier;
use stp_protocols::{ResendPolicy, TightReceiver, TightSender};
use stp_sim::telemetry::{FileSink, RunRecord, SpanRecord, TelemetryLine, TelemetryWriter};
use stp_sim::trace::{write_chrome_trace, MsgSpans};
use stp_sim::World;

const EXPERIMENT: &str = "e1-trace";
const M: u16 = 4;
const INPUT: [u16; 4] = [2, 0, 3, 1];
const DEFAULT_DIR: &str = "target/trace";
const DEFAULT_SEED: u64 = 7;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match strs.as_slice() {
        ["record"] => record(DEFAULT_DIR, DEFAULT_SEED),
        ["record", dir] => record(dir, DEFAULT_SEED),
        ["record", dir, seed] => match seed.parse() {
            Ok(seed) => record(dir, seed),
            Err(_) => Err(format!("seed must be an integer, got {seed:?}")),
        },
        ["--validate", path] => validate(path),
        ["fate", id] => fate(id, &default_spans()),
        ["fate", id, spans] => fate(id, spans),
        ["critical", i] => critical(i, &default_spans()),
        ["critical", i, spans] => critical(i, spans),
        ["stalls"] => stalls("3", &default_spans()),
        ["stalls", k] => stalls(k, &default_spans()),
        ["stalls", k, spans] => stalls(k, spans),
        _ => Err(format!(
            "usage: trace_query record [OUT_DIR] [SEED] | --validate FILE \
             | fate ID [SPANS] | critical I [SPANS] | stalls [K] [SPANS]\n\
             got: {args:?}"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_query: {e}");
            ExitCode::FAILURE
        }
    }
}

fn default_spans() -> String {
    format!("{DEFAULT_DIR}/spans.jsonl")
}

// ---------------------------------------------------------------- record

fn record(dir: &str, seed: u64) -> Result<(), String> {
    let input = DataSeq::from_indices(INPUT);
    let mut world = World::builder(input.clone())
        .sender(Box::new(TightSender::new(
            input.clone(),
            M,
            ResendPolicy::Once,
        )))
        .receiver(Box::new(TightReceiver::new(M, ResendPolicy::Once)))
        .channel(Box::new(stp_channel::DupChannel::new()))
        .scheduler(Box::new(stp_channel::DupStormScheduler::new(seed, 0.9)))
        .mode(TraceMode::Full)
        .provenance(true)
        .build()
        .map_err(|e| e.to_string())?;
    if !world.run_until(50_000, World::is_complete) {
        return Err(format!("seed {seed}: run did not complete in 50k steps"));
    }
    let stats = world.stats();
    let spans = MsgSpans::of(world.msg_events(), world.step_count());
    let frontier = Frontier::of(M, world.trace());
    spans
        .reconcile(&stats)
        .map_err(|e| format!("spans do not reconcile with stats: {e}"))?;

    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let perfetto = format!("{dir}/trace.perfetto.json");
    let mut out =
        std::fs::File::create(&perfetto).map_err(|e| format!("create {perfetto}: {e}"))?;
    write_chrome_trace(&mut out, &spans, &frontier.counter_tracks())
        .map_err(|e| format!("write {perfetto}: {e}"))?;

    let spans_path = format!("{dir}/spans.jsonl");
    let _ = std::fs::remove_file(&spans_path); // the sink appends
    let sink = FileSink::open(&spans_path).map_err(|e| format!("open {spans_path}: {e}"))?;
    let mut w = TelemetryWriter::new(Box::new(sink));
    let io = |e: std::io::Error| format!("write {spans_path}: {e}");
    w.emit(&TelemetryLine::Run(RunRecord {
        experiment: EXPERIMENT.to_string(),
        input,
        seed,
        scheduler: 0,
        stats,
    }))
    .map_err(io)?;
    for span in spans.span_records(EXPERIMENT, seed) {
        w.emit(&TelemetryLine::Span(span)).map_err(io)?;
    }
    for rec in frontier.frontier_records(EXPERIMENT, seed) {
        w.emit(&TelemetryLine::Frontier(rec)).map_err(io)?;
    }
    w.flush().map_err(io)?;

    println!(
        "recorded seed {seed}: {} spans, {} frontier points, {} steps → {perfetto}, {spans_path}",
        spans.span_count(),
        frontier.points().len(),
        world.step_count()
    );
    Ok(())
}

// -------------------------------------------------------------- validate

// The concrete shape of the events we emit; unknown keys in the JSON are
// ignored by the deserializer, so this stays forward-compatible.
#[derive(Debug, Deserialize)]
#[allow(non_snake_case)]
struct PerfettoDoc {
    #[serde(default)]
    displayTimeUnit: Option<String>,
    traceEvents: Vec<PerfettoEvent>,
}

#[derive(Debug, Deserialize)]
struct PerfettoEvent {
    ph: String,
    #[serde(default)]
    pid: Option<u32>,
    #[serde(default)]
    ts: Option<u64>,
    #[serde(default)]
    id: Option<u64>,
    #[serde(default)]
    args: Option<PerfettoArgs>,
}

#[derive(Debug, Deserialize)]
struct PerfettoArgs {
    #[serde(default)]
    name: Option<String>,
    #[serde(default)]
    fate: Option<String>,
    #[serde(default)]
    value: Option<f64>,
}

const FATES: [&str; 5] = ["in-flight", "delivered", "dropped", "expired", "coalesced"];

fn validate(path: &str) -> Result<(), String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc: PerfettoDoc =
        serde_json::from_str(&body).map_err(|e| format!("{path} is not a trace: {e}"))?;
    if doc.displayTimeUnit.as_deref() != Some("ms") {
        return Err("displayTimeUnit must be \"ms\"".to_string());
    }
    let mut begins: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut named_processes = 0usize;
    let mut spans = 0usize;
    let mut counters = 0usize;
    let mut instants = 0usize;
    for (i, ev) in doc.traceEvents.iter().enumerate() {
        let pid = ev.pid.ok_or_else(|| format!("event {i}: missing pid"))?;
        if !(1..=3).contains(&pid) {
            return Err(format!("event {i}: unexpected pid {pid}"));
        }
        match ev.ph.as_str() {
            "M" => {
                let named = ev.args.as_ref().and_then(|a| a.name.as_deref());
                if named.is_none_or(str::is_empty) {
                    return Err(format!("event {i}: metadata without a process name"));
                }
                named_processes += 1;
            }
            "b" => {
                let id = ev.id.ok_or_else(|| format!("event {i}: span without id"))?;
                let ts = ev.ts.ok_or_else(|| format!("event {i}: span without ts"))?;
                let fate = ev.args.as_ref().and_then(|a| a.fate.as_deref());
                if !fate.is_some_and(|f| FATES.contains(&f)) {
                    return Err(format!("event {i}: span #{id} has no known fate"));
                }
                if begins.insert((pid, id), ts).is_some() {
                    return Err(format!("event {i}: span #{id} begun twice"));
                }
            }
            "e" => {
                let id = ev
                    .id
                    .ok_or_else(|| format!("event {i}: span end without id"))?;
                let ts = ev
                    .ts
                    .ok_or_else(|| format!("event {i}: span end without ts"))?;
                let begin = begins
                    .remove(&(pid, id))
                    .ok_or_else(|| format!("event {i}: span #{id} ends without beginning"))?;
                if ts < begin {
                    return Err(format!("event {i}: span #{id} ends before it begins"));
                }
                spans += 1;
            }
            "i" => instants += 1,
            "C" => {
                let value = ev.args.as_ref().and_then(|a| a.value);
                if !value.is_some_and(f64::is_finite) {
                    return Err(format!("event {i}: counter without a finite value"));
                }
                counters += 1;
            }
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    if !begins.is_empty() {
        return Err(format!("{} spans never end", begins.len()));
    }
    if named_processes < 3 {
        return Err("expected process names for both directions and the counters".to_string());
    }
    if spans == 0 {
        return Err("trace contains no message spans".to_string());
    }
    if counters == 0 {
        return Err("trace contains no knowledge-frontier counters".to_string());
    }
    println!(
        "{path}: valid — {spans} spans, {instants} instants, {counters} counter samples, \
         {named_processes} named tracks"
    );
    Ok(())
}

// ------------------------------------------------------------ span store

struct SpanStore {
    run: RunRecord,
    spans: Vec<SpanRecord>,
}

fn load(path: &str) -> Result<SpanStore, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut run = None;
    let mut spans = Vec::new();
    for (n, line) in body.lines().enumerate() {
        match TelemetryLine::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))? {
            TelemetryLine::Run(r) => run = Some(r),
            TelemetryLine::Span(s) => spans.push(s),
            _ => {}
        }
    }
    let run = run.ok_or_else(|| format!("{path}: no run line (re-run `trace_query record`)"))?;
    spans.sort_by_key(|s| s.id);
    Ok(SpanStore { run, spans })
}

impl SpanStore {
    fn span(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Re-sends that coalesced (directly or transitively) into `id`.
    fn fan_in(&self, id: u64) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| self.origin_of(s) == id && s.id != id)
            .collect()
    }

    fn origin_of(&self, span: &SpanRecord) -> u64 {
        let mut at = span;
        while let Some(orig) = at.coalesced_into.and_then(|o| self.span(o)) {
            at = orig;
        }
        at.id
    }
}

fn dir(to: ProcessId) -> &'static str {
    match to {
        ProcessId::Receiver => "S\u{2192}R",
        ProcessId::Sender => "R\u{2192}S",
    }
}

// ------------------------------------------------------------------ fate

fn fate(id: &str, spans_path: &str) -> Result<(), String> {
    let id: u64 = id
        .parse()
        .map_err(|_| format!("ID must be an integer, got {id:?}"))?;
    let store = load(spans_path)?;
    let span = store
        .span(id)
        .ok_or_else(|| format!("no span #{id} (run has {} spans)", store.spans.len()))?;
    println!(
        "message #{id} ({}, value {}): sent at step {}, fate {}",
        dir(span.to),
        span.msg,
        span.sent_at,
        span.fate
    );
    if let Some(orig) = span.coalesced_into {
        let origin = store.origin_of(span);
        println!("  coalesced into #{orig} (origin #{origin}); its lifecycle continues there:");
        return fate(&origin.to_string(), spans_path);
    }
    for (k, step) in span.delivered_at.iter().enumerate() {
        println!("  delivery {} at step {step}", k + 1);
    }
    if let Some(step) = span.dropped_at {
        println!("  dropped by the adversary at step {step}");
    }
    if let Some(step) = span.expired_at {
        println!("  expired by the channel at step {step}");
    }
    let fan_in = store.fan_in(id);
    if !fan_in.is_empty() {
        let ids: Vec<String> = fan_in.iter().map(|s| format!("#{}", s.id)).collect();
        println!(
            "  duplicate fan-in: {} re-send(s) coalesced here ({})",
            fan_in.len(),
            ids.join(", ")
        );
    }
    Ok(())
}

// -------------------------------------------------------------- critical

fn critical(i: &str, spans_path: &str) -> Result<(), String> {
    let i: usize = i
        .parse()
        .map_err(|_| format!("item index must be an integer, got {i:?}"))?;
    let store = load(spans_path)?;
    let item = store
        .run
        .input
        .get(i)
        .ok_or_else(|| format!("input has {} items, no item {i}", store.run.input.len()))?;
    let written_at = *store
        .run
        .stats
        .write_steps
        .get(i)
        .ok_or_else(|| format!("item {i} was never written"))?;
    println!("item {i} (value {}): written at step {written_at}", item.0);
    // The critical path: every carrier of this value toward R, in send
    // order, with its fate; the winning delivery is the last one at or
    // before the write step.
    let carriers: Vec<&SpanRecord> = store
        .spans
        .iter()
        .filter(|s| s.to == ProcessId::Receiver && s.msg == item.0)
        .collect();
    let mut winning: Option<(u64, Step, Step)> = None;
    for s in &carriers {
        println!(
            "  #{} sent at step {}, fate {}{}",
            s.id,
            s.sent_at,
            s.fate,
            match s.coalesced_into {
                Some(o) => format!(" (into #{o})"),
                None => String::new(),
            }
        );
        for &d in &s.delivered_at {
            if d <= written_at && winning.is_none_or(|(_, _, best)| d > best) {
                winning = Some((s.id, s.sent_at, d));
            }
        }
    }
    match winning {
        Some((id, sent, delivered)) => println!(
            "  critical carrier: #{id}, channel latency {} step(s), write lag {} step(s)",
            delivered - sent,
            written_at - delivered
        ),
        None => println!("  no delivery precedes the write (acknowledged knowledge path)"),
    }
    Ok(())
}

// ---------------------------------------------------------------- stalls

fn stalls(k: &str, spans_path: &str) -> Result<(), String> {
    let k: usize = k
        .parse()
        .map_err(|_| format!("K must be an integer, got {k:?}"))?;
    let store = load(spans_path)?;
    let writes = &store.run.stats.write_steps;
    if writes.is_empty() {
        return Err("the run wrote nothing; no stall structure".to_string());
    }
    // Interval before each write: (gap, from, to, item). Losses inside an
    // interval are the mechanism of the stall.
    let mut intervals = Vec::with_capacity(writes.len());
    let mut prev = 0;
    for (i, &w) in writes.iter().enumerate() {
        intervals.push((w - prev, prev, w, i));
        prev = w;
    }
    intervals.sort_by(|a, b| b.0.cmp(&a.0).then(a.3.cmp(&b.3)));
    println!(
        "top {} stall intervals of {}:",
        k.min(intervals.len()),
        intervals.len()
    );
    for &(gap, from, to, item) in intervals.iter().take(k) {
        let lost = store
            .spans
            .iter()
            .filter(|s| {
                s.dropped_at
                    .or(s.expired_at)
                    .is_some_and(|at| from < at && at <= to)
            })
            .count();
        println!(
            "  item {item}: {gap} step(s) (steps {from}..{to}), {lost} carrier(s) lost inside"
        );
    }
    Ok(())
}
