//! Usage errors of the `verify` and `verifyd` front-ends: a zero node
//! limit would trip every scheme's budget on its first node, and a zero
//! worker count would silently run one worker, so both reject 0.

use std::process::{Command, Stdio};

/// Runs a front-end with `args` and returns its exit code and stderr.
fn run(binary: &str, args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("front-end runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_usage_error(binary: &str, flag: &str) {
    let (code, stderr) = run(binary, &[flag, "0"]);
    assert_eq!(
        code,
        Some(2),
        "{binary} {flag} 0 must be a usage error: {stderr}"
    );
    assert!(
        stderr.contains(&format!("{flag} must be a positive integer")),
        "{binary} {flag} 0 must say why: {stderr}"
    );
}

#[test]
fn verify_rejects_a_zero_node_limit() {
    assert_usage_error(env!("CARGO_BIN_EXE_verify"), "--node-limit");
}

#[test]
fn verify_rejects_zero_workers() {
    assert_usage_error(env!("CARGO_BIN_EXE_verify"), "--workers");
}

#[test]
fn verifyd_rejects_a_zero_node_limit() {
    assert_usage_error(env!("CARGO_BIN_EXE_verifyd"), "--node-limit");
}

#[test]
fn verifyd_rejects_zero_workers() {
    assert_usage_error(env!("CARGO_BIN_EXE_verifyd"), "--workers");
}

#[test]
fn positive_values_are_accepted() {
    // The same flags with 1 get past argument parsing: `verify` then fails
    // on the missing directory (exit 2, but not a flag error) and `verifyd`
    // on stdio serves an immediately closed stdin and exits cleanly.
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_verify"),
        &[
            "--node-limit",
            "1",
            "--workers",
            "1",
            "--dir",
            "/nonexistent",
        ],
    );
    assert_eq!(code, Some(2));
    assert!(!stderr.contains("positive integer"), "{stderr}");
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_verifyd"),
        &["--node-limit", "1", "--workers", "1"],
    );
    assert_eq!(code, Some(0), "{stderr}");
}
