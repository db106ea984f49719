//! Per-layer metrics from the recorder's aggregates, and the reports that
//! sit beside them: decorator shares, profiler shares and the span dump.

use crate::trace::{Recorder, SpanCost};
use crate::{num, Report};
use stp_sim::ProfRecord;

/// Every per-layer metric with its unit. A traced run reports each one; a
/// layer the workload never enters reports 0 (no calls).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("channel.dup.send_ns", "ns"),
    ("channel.dup.deliver_ns", "ns"),
    ("channel.dup.deliverable_ns", "ns"),
    ("channel.dup.calls", "count"),
    ("channel.del.send_ns", "ns"),
    ("channel.del.deliver_ns", "ns"),
    ("channel.del.deliverable_ns", "ns"),
    ("channel.del.delete_ns", "ns"),
    ("channel.del.calls", "count"),
    ("channel.lossy_fifo.send_ns", "ns"),
    ("channel.lossy_fifo.deliver_ns", "ns"),
    ("channel.lossy_fifo.deliverable_ns", "ns"),
    ("channel.lossy_fifo.calls", "count"),
    ("sched.dup_storm.decide_ns", "ns"),
    ("sched.dup_storm.calls", "count"),
    ("sched.reorder.decide_ns", "ns"),
    ("sched.reorder.calls", "count"),
    ("sched.random.decide_ns", "ns"),
    ("sched.random.calls", "count"),
    ("proto.tight.sender_ns", "ns"),
    ("proto.tight.receiver_ns", "ns"),
    ("proto.tight.calls", "count"),
    ("proto.abp.sender_ns", "ns"),
    ("proto.abp.receiver_ns", "ns"),
    ("proto.abp.calls", "count"),
    ("world.step_self_ns", "ns"),
    ("world.steps", "count"),
    ("engine.dispatch_ns_per_cell", "ns"),
    ("engine.worker_idle_share", "share"),
    ("sessions.submit_ns", "ns"),
    ("sessions.drain_ns_per_outcome", "ns"),
    ("sessions.round_ns_per_active", "ns"),
    ("sessions.round_us", "us"),
    ("sessions.latency_rounds_p50", "rounds"),
    ("sessions.latency_rounds_p99", "rounds"),
    ("unattributed_share", "share"),
    ("trace_overhead", "share"),
];

/// Span names that belong to the replayed step: the components and the
/// kernel's own `world.cell` span.
fn is_step_layer(name: &str) -> bool {
    name.starts_with("channel.")
        || name.starts_with("sched.")
        || name.starts_with("proto.")
        || name == "world.cell"
}

/// Corrected self time of every step layer, summed over the run.
#[derive(Debug)]
pub struct Layers {
    pub total_ns: f64,
    parts: Vec<(String, f64)>,
}

impl Layers {
    /// Each layer's share of `whole_ns`, plus the executor's remainder.
    pub fn shares_json(&self, whole_ns: f64) -> String {
        let mut fields: Vec<String> = self
            .parts
            .iter()
            .map(|(n, ns)| format!("\"{n}\":{}", num(ns / whole_ns)))
            .collect();
        fields.push(format!("\"rest\":{}", num(1.0 - self.total_ns / whole_ns)));
        format!("{{{}}}", fields.join(","))
    }
}

/// Reports the channel, scheduler, protocol and kernel metrics. Times are
/// self nanoseconds per call with the calibrated span cost taken out;
/// counts are divided by `per` (laps or sample replays) so they repeat
/// exactly for a seed. `steps` is the replayed step count over the run.
pub fn layer_metrics(
    report: &mut Report,
    rec: &Recorder,
    cost: &SpanCost,
    per: f64,
    steps: u64,
) -> Layers {
    let per_call = |name: &str| {
        let a = rec.agg(name);
        if a.calls == 0 {
            0.0
        } else {
            cost.corrected_self_ns(a) / a.calls as f64
        }
    };
    let calls = |prefix: &str| {
        rec.aggs()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, a)| a.calls)
            .sum::<u64>() as f64
            / per
    };
    for kind in ["dup", "del", "lossy_fifo"] {
        let ops: &[&str] = match kind {
            "del" => &["send", "deliver", "deliverable", "delete"],
            _ => &["send", "deliver", "deliverable"],
        };
        for op in ops {
            report.metric(
                &format!("channel.{kind}.{op}_ns"),
                per_call(&format!("channel.{kind}.{op}")),
                "ns",
            );
        }
        report.metric(
            &format!("channel.{kind}.calls"),
            calls(&format!("channel.{kind}.")),
            "count",
        );
    }
    for policy in ["dup_storm", "reorder", "random"] {
        report.metric(
            &format!("sched.{policy}.decide_ns"),
            per_call(&format!("sched.{policy}.decide")),
            "ns",
        );
        report.metric(
            &format!("sched.{policy}.calls"),
            calls(&format!("sched.{policy}.")),
            "count",
        );
    }
    for family in ["tight", "abp"] {
        report.metric(
            &format!("proto.{family}.sender_ns"),
            per_call(&format!("proto.{family}.sender")),
            "ns",
        );
        report.metric(
            &format!("proto.{family}.receiver_ns"),
            per_call(&format!("proto.{family}.receiver")),
            "ns",
        );
        report.metric(
            &format!("proto.{family}.calls"),
            calls(&format!("proto.{family}.")),
            "count",
        );
    }
    let kernel = cost.corrected_self_ns(rec.agg("world.cell"));
    report.metric(
        "world.step_self_ns",
        if steps == 0 {
            0.0
        } else {
            kernel / steps as f64
        },
        "ns",
    );
    report.metric("world.steps", steps as f64 / per, "count");

    let parts: Vec<(String, f64)> = rec
        .aggs()
        .filter(|(n, a)| is_step_layer(n) && a.calls > 0)
        .map(|(n, a)| (n.to_string(), cost.corrected_self_ns(a)))
        .collect();
    Layers {
        total_ns: parts.iter().map(|(_, ns)| ns).sum(),
        parts,
    }
}

/// Adds a zero for every per-layer metric the workload did not report.
pub fn fill_missing(report: &mut Report) {
    for (name, unit) in PER_LAYER {
        if !report.has_metric(name) {
            report.metric(name, 0.0, unit);
        }
    }
}

pub fn profiler_shares_json(prof: &ProfRecord) -> String {
    let fields: Vec<String> = prof
        .phases
        .iter()
        .map(|p| format!("\"{}\":{}", p.phase, num(p.share)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Writes the kept span rows next to the build output, where the run may
/// write: `$CARGO_TARGET_DIR` (default `.bench_build`).
pub fn write_spans(report: &mut Report, rec: &Recorder, workload: &str) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    let path = std::path::Path::new(&dir).join(format!("perfbench-spans-{workload}.jsonl"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        rec.write_rows(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    let status = match written {
        Ok(()) => format!("\"{}\"", path.display()),
        Err(e) => format!("\"not written: {e}\""),
    };
    report.detail("span_rows_file", status);
    report.detail("span_rows_kept", rec.kept_rows().to_string());
}
