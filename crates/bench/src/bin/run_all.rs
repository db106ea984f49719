//! Runs every experiment and prints every table — the one-shot
//! reproduction driver behind EXPERIMENTS.md.
//!
//! With `STP_TELEMETRY` set, every experiment additionally appends its
//! JSONL telemetry (per-run records and sweep reports where a harness
//! sweeps, one `{"summary": …}` digest per experiment always) to the
//! shared sink; the printed tables are unaffected.
//!
//! Exits nonzero when any experiment's own success predicate fails, with
//! the failing experiments named on stderr — the tables on stdout are
//! identical either way, so the committed `results/*.txt` stay stable.

use std::process::ExitCode;
use stp_bench::telemetry::export_summary;
use stp_sim::TelemetryLine;

fn main() -> ExitCode {
    let mut failed: Vec<&'static str> = Vec::new();
    let mut check = |name: &'static str, ok: bool| {
        if !ok {
            failed.push(name);
        }
        ok
    };
    println!("E1 — tight protocol over reorder+duplicate channels");
    let e1 = stp_bench::e1::run(5, 3);
    println!("{}", stp_bench::e1::render(&e1));
    export_summary(
        "e1",
        e1.len(),
        check("e1", e1.iter().all(|r| r.complete == r.runs)),
    );
    println!("E2 — Theorem 1 impossibility");
    let e2 = stp_bench::e2::run(3);
    println!("{}", stp_bench::e2::render(&e2));
    // Theorem 1: the over-capacity claim is refuted (a certificate is
    // found, nothing embeds exhaustively) while the tight family survives.
    export_summary(
        "e2",
        e2.len(),
        check(
            "e2",
            e2.iter()
                .all(|r| !r.tight_refuted && r.exhaustive_embeddable == 0),
        ),
    );
    println!("E3a — tight-del completeness");
    let e3a = stp_bench::e3::run_completeness(4, 3);
    println!("{}", stp_bench::e3::render_completeness(&e3a));
    println!("E3b — bounded recovery profile");
    let e3b = stp_bench::e3::run_recovery(8);
    println!("{}", stp_bench::e3::render_recovery(&e3b));
    export_summary(
        "e3",
        e3a.len() + e3b.len(),
        check("e3", e3a.iter().all(|r| r.complete == r.runs)),
    );
    println!("E4 — Theorem 2 impossibility");
    let e4 = stp_bench::e4::run(&[2, 4, 6, 8]);
    println!("{}", stp_bench::e4::render(&e4));
    export_summary("e4", e4.len(), check("e4", e4.iter().all(|r| r.refuted)));
    println!("E5 — weak boundedness (recovery vs |X|)");
    let e5 = stp_bench::e5::run(&[4, 8, 16, 32, 64]);
    println!("{}", stp_bench::e5::render(&e5));
    export_summary(
        "e5",
        e5.len(),
        check("e5", e5.iter().all(|r| r.recovery_steps > 0)),
    );
    println!("E6 — the alpha function");
    let e6 = stp_bench::e6::run(25, 7);
    println!("{}", stp_bench::e6::render(&e6));
    export_summary(
        "e6",
        e6.len(),
        check(
            "e6",
            e6.iter().all(|r| r.enumerated.is_none_or(|n| n == r.alpha)),
        ),
    );
    println!("E7 — protocol cost grid");
    let e7 = stp_bench::e7::run(42);
    println!("{}", stp_bench::e7::render(&e7));
    let e7_ok = e7
        .iter()
        .filter(|r| !(r.protocol == "abp" && r.channel == "reorder+dup"))
        .all(|r| r.safe);
    export_summary("e7", e7.len(), check("e7", e7_ok));
    println!("E8 — knowledge analysis (exact universe, m = 2)");
    let (rows, classes) = stp_bench::e8::run(2, 6);
    println!("{}", stp_bench::e8::render(&rows));
    println!(
        "indistinguishability classes per step: {:?}",
        classes.classes_per_step
    );
    println!();
    // Knowledge is reachable in every universe cell; full learning on the
    // truncated horizon is not expected for the longer inputs.
    export_summary(
        "e8",
        rows.len(),
        check("e8", rows.iter().all(|r| r.fully_learnt > 0)),
    );
    println!("E9 — probabilistic codebooks beyond alpha(m)");
    let e9 = stp_bench::e9::run(2, 3, &[4, 5, 6, 7], 8);
    println!("{}", stp_bench::e9::render(&e9));
    // Random codebooks trade capacity for failure probability: the rate
    // must become rare once the code space dwarfs the claimed family.
    export_summary(
        "e9",
        e9.len(),
        check("e9", e9.last().is_some_and(|r| r.measured_failure < 0.05)),
    );
    println!("E10 — boundedness probe (Definition 2)");
    let e10 = stp_bench::e10::run(&[8, 16, 24], 6);
    println!("{}", stp_bench::e10::render(&e10));
    let e10_ok = e10.iter().any(|r| r.bounded_points == r.points)
        && e10.iter().any(|r| r.bounded_points < r.points);
    export_summary("e10", e10.len(), check("e10", e10_ok));
    println!("E11a — recovery envelopes (OnWrite-triggered silence)");
    let e11a = stp_bench::e11::run_envelopes(&[4, 8, 16, 32], 0);
    println!("{}", stp_bench::e11::render_envelopes(&e11a));
    println!("E11b — composite campaign survival");
    let e11b = stp_bench::e11::run_composite(8);
    println!("{}", stp_bench::e11::render_composite(&e11b));
    println!("E11c — shrunk safety-violation witness");
    let e11c = stp_bench::e11::run_shrink_demo();
    println!("{}", stp_bench::e11::render_shrink(&e11c));
    let e11_ok = e11a.iter().all(|r| r.recovery.is_some())
        && e11b.completed
        && e11b.safe
        && e11c.one_minimal
        && e11c.replay_identical;
    export_summary("e11", e11a.len() + 2, check("e11", e11_ok));
    println!("E12a — classical protocols under transient state corruption");
    let e12a = stp_bench::e12::run_fragility(4);
    println!("{}", stp_bench::e12::render_fragility(&e12a));
    println!("E12b — certified stabilization bounds");
    let e12b = stp_bench::e12::run_stabilization_grid();
    println!("{}", stp_bench::e12::render_stabilization(&e12b));
    let records = stp_bench::e12::stabilization_records(&e12b);
    let lines = records.into_iter().map(TelemetryLine::Stabilization);
    stp_bench::telemetry::export("e12", lines);
    let e12_ok = e12a.iter().any(|r| !r.reconverged) && e12b.iter().all(|r| r.cert_ok);
    export_summary("e12", e12a.len() + e12b.len(), check("e12", e12_ok));
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("run_all: failing experiments: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
