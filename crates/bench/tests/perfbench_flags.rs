//! `perfbench` rejects a bad command line before any bench runs: exit
//! status 2 with the usage text, never a silent fallback to a default.

use std::process::Command;

/// Run perfbench with `args`; return its exit code and stderr.
fn perfbench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("spawn perfbench");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_rejected(args: &[&str]) {
    let (code, stderr) = perfbench(args);
    assert_eq!(code, Some(2), "{args:?} must exit 2; stderr:\n{stderr}");
    assert!(stderr.contains("Usage:"), "{args:?} must print usage; stderr:\n{stderr}");
}

#[test]
fn removed_thread_flags_are_rejected() {
    assert_rejected(&["--threads", "2"]);
    assert_rejected(&["--serial"]);
}

#[test]
fn scale_is_case_sensitive() {
    assert_rejected(&["--scale", "Small"]);
}

#[test]
fn malformed_values_are_rejected() {
    assert_rejected(&["--shards", "3"]);
    assert_rejected(&["--shards", "many"]);
    assert_rejected(&["--max-regression", "fast"]);
    assert_rejected(&["--max-regression", "0"]);
    assert_rejected(&["--label"]);
    assert_rejected(&["--compare", "no/such/baseline.json"]);
    assert_rejected(&["--telemetry-out", "t.json", "--scale", "small"]);
    assert_rejected(&["small"]);
}
