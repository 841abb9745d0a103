//! Usage errors of the `verify` and `verifyd` front-ends: a zero node
//! limit would trip every scheme's budget on its first node, a zero leaf
//! limit would stop every distribution extraction at its first leaf, a zero
//! deadline would expire before the race starts, and a zero worker count
//! would silently run one worker, so all of them reject 0. The retired
//! `--policy` flag is an unknown argument: the launch plan follows from
//! `--stats-file` alone.

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

/// Asserts that `binary flag value` exits 2 and that stderr contains `why`.
fn assert_rejected(binary: &str, flag: &str, value: &str, why: &str) {
    let (code, stderr) = run(binary, &[flag, value]);
    assert_eq!(
        code,
        Some(2),
        "{binary} {flag} {value} must be a usage error: {stderr}"
    );
    assert!(
        stderr.contains(why),
        "{binary} {flag} {value} must say why: {stderr}"
    );
}

fn assert_usage_error(binary: &str, flag: &str) {
    assert_rejected(
        binary,
        flag,
        "0",
        &format!("{flag} must be a positive integer"),
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
fn verify_rejects_a_zero_leaf_limit() {
    assert_usage_error(env!("CARGO_BIN_EXE_verify"), "--leaf-limit");
}

#[test]
fn both_front_ends_reject_a_zero_or_overflowing_deadline() {
    // 1e300 seconds does not fit a `Duration`; converting it would panic.
    for binary in [env!("CARGO_BIN_EXE_verify"), env!("CARGO_BIN_EXE_verifyd")] {
        for seconds in ["0", "1e300"] {
            assert_rejected(
                binary,
                "--deadline",
                seconds,
                "--deadline must be a positive number of seconds",
            );
        }
    }
}

#[test]
fn both_front_ends_reject_an_unknown_policy() {
    for binary in [env!("CARGO_BIN_EXE_verify"), env!("CARGO_BIN_EXE_verifyd")] {
        for policy in ["race", "predicted"] {
            let (code, stderr) = run(binary, &["--policy", policy]);
            assert_eq!(code, Some(2), "{binary} --policy {policy}: {stderr}");
            assert!(stderr.contains("`--policy`"), "{stderr}");
            assert!(stderr.contains("usage:"), "{stderr}");
            assert!(stderr.contains("--stats-file"), "{stderr}");
        }
    }
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
            "--leaf-limit",
            "1",
            "--deadline",
            "0.5",
            "--dir",
            "/nonexistent",
        ],
    );
    assert_eq!(code, Some(2));
    assert!(!stderr.contains("must be"), "{stderr}");
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_verifyd"),
        &["--node-limit", "1", "--workers", "1", "--deadline", "0.5"],
    );
    assert_eq!(code, Some(0), "{stderr}");
}
