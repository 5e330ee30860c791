//! End-to-end tests of the `calibrate` binary's command line: a scale
//! that is not a number in (0, 1] fails with an `error:` line and exit
//! status 1, never a panic or a silent default, and a reader that
//! closes the pipe early ends the command with status 0.

use std::process::{Command, Output, Stdio};

fn calibrate(arg: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_calibrate"))
        .arg(arg)
        .output()
        .expect("calibrate runs")
}

/// Asserts a usage failure: exit status 1, an `error:` line naming the
/// bad argument, nothing on stdout.
fn assert_rejected(out: &Output, arg: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(stderr.contains(arg), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "stdout: {:?}", out.stdout);
}

#[test]
fn scale_above_one_is_rejected() {
    assert_rejected(&calibrate("5"), "5");
}

#[test]
fn non_numeric_scale_is_rejected() {
    assert_rejected(&calibrate("abc"), "abc");
}

#[test]
fn closed_stdout_is_not_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_calibrate"))
        .arg("0.002")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("calibrate runs");
    // The reader hangs up before calibrate writes a byte.
    drop(child.stdout.take());
    let out = child
        .wait_with_output()
        .expect("calibrate output is readable");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
