//! E11 — fault campaigns: recovery envelopes, composite-campaign
//! survival, and a shrunk replayable witness.
fn main() {
    let envelopes = stp_bench::e11::run_envelopes(&[4, 8, 16, 32], 0);
    println!("E11a — recovery envelopes (silence window fired by OnWrite after item 0)");
    println!("{}", stp_bench::e11::render_envelopes(&envelopes));
    let composite = stp_bench::e11::run_composite(8);
    println!("E11b — composite campaign survival (tight-del, DelChannel)");
    println!("{}", stp_bench::e11::render_composite(&composite));
    let shrink = stp_bench::e11::run_shrink_demo();
    println!("E11c — shrunk safety-violation witness (naive over-capacity, DupChannel)");
    println!("{}", stp_bench::e11::render_shrink(&shrink));
    let ok = envelopes.iter().all(|r| r.recovery.is_some())
        && composite.completed
        && composite.safe
        && shrink.one_minimal
        && shrink.replay_identical;
    stp_bench::telemetry::export_summary("e11", envelopes.len() + 2, ok);
}
