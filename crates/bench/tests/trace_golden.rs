//! Golden output of `trace_query record`: the span JSONL and the
//! Perfetto export of the seed-7 traced cell must match the committed
//! files byte for byte. Everything in the recorded run is seeded, so a
//! difference means spans, frontier points, statistics or a wire form
//! changed.
//!
//! `STP_BLESS=1 cargo test -p stp-bench --test trace_golden` writes the
//! recorded files over `tests/data/trace_seed7/` instead, so a deliberate
//! change shows up as a diff of the committed files.

use std::path::{Path, PathBuf};
use std::process::Command;

const FILES: [&str; 2] = ["spans.jsonl", "trace.perfetto.json"];

#[test]
fn record_seed7_matches_golden_files() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace_golden_seed7");
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_trace_query"))
        .arg("record")
        .arg(&out)
        .arg("7")
        .status()
        .expect("trace_query starts");
    assert!(status.success(), "trace_query record exited with {status}");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/trace_seed7");
    let bless = std::env::var("STP_BLESS").as_deref() == Ok("1");
    for file in FILES {
        let got = std::fs::read(out.join(file)).expect("recorded file");
        if bless {
            std::fs::write(golden.join(file), &got).expect("bless golden file");
            continue;
        }
        let want = std::fs::read(golden.join(file)).expect("golden file");
        assert!(
            got == want,
            "{file} differs from tests/data/trace_seed7/{file} \
             ({} bytes recorded, {} golden)",
            got.len(),
            want.len()
        );
    }
}
