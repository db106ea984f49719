//! E12 — transient state corruption: classical-protocol fragility and
//! certified stabilization bounds for the self-stabilizing variant.

use stp_sim::TelemetryLine;

fn main() {
    let fragility = stp_bench::e12::run_fragility(4);
    println!("E12a — classical protocols under a single transient state corruption");
    println!("{}", stp_bench::e12::render_fragility(&fragility));
    let grid = stp_bench::e12::run_stabilization_grid();
    println!("E12b — certified stabilization bounds (d × corruption kind × channel)");
    println!("{}", stp_bench::e12::render_stabilization(&grid));
    let records = stp_bench::e12::stabilization_records(&grid);
    let lines = records.into_iter().map(TelemetryLine::Stabilization);
    stp_bench::telemetry::export("e12", lines);
    let diverged = fragility.iter().any(|r| !r.reconverged);
    let all_certified = grid.iter().all(|r| r.cert_ok);
    let ok = diverged && all_certified;
    stp_bench::telemetry::export_summary("e12", fragility.len() + grid.len(), ok);
}
