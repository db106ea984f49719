//! Golden output of `run_all`: every experiment table E1–E12, printed in
//! one run, must match the committed `results/run_all.txt` byte for byte.
//! Every table is seeded, so a difference means a verdict, a statistic or
//! a table layout changed.
//!
//! `STP_BLESS=1 cargo test -p stp-bench --test run_all_golden` writes this
//! run's output over `results/run_all.txt` instead, so a deliberate
//! change shows up as a diff of the committed file.

use std::path::Path;
use std::process::Command;

#[test]
fn run_all_matches_committed_results() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .output()
        .expect("run_all starts");
    assert!(
        out.status.success(),
        "run_all exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/run_all.txt");
    if std::env::var("STP_BLESS").as_deref() == Ok("1") {
        std::fs::write(&golden, &out.stdout).expect("bless results/run_all.txt");
        return;
    }
    let want = std::fs::read(&golden).expect("results/run_all.txt");
    if out.stdout != want {
        let got = String::from_utf8_lossy(&out.stdout);
        let want = String::from_utf8_lossy(&want);
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "run_all output differs from results/run_all.txt at line {} \
             ({} bytes printed, {} committed)",
            first + 1,
            got.len(),
            want.len()
        );
    }
}
