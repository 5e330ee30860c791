//! End-to-end tests of the `vrsim` binary: streamed trace-file replay
//! matches the in-process replay of the decoded trace, and bad input
//! fails with a message and a non-zero exit, never a panic or partial
//! output.

use std::path::PathBuf;
use std::process::{Command, Output};

use vrcache::config::HierarchyConfig;
use vrcache_mem::access::CpuId;
use vrcache_sim::system::{HierarchyKind, System};
use vrcache_trace::codec;
use vrcache_trace::presets::TracePreset;

fn vrsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vrsim"))
        .args(args)
        .output()
        .expect("vrsim runs")
}

/// Writes `bytes` to a file of the temporary directory cargo gives integration tests.
fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, bytes).expect("the test temp directory is writable");
    path
}

/// Asserts a clean failure: non-zero exit, `needle` on stderr, nothing
/// on stdout, no panic.
fn assert_clean_failure(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit status {}", out.status);
    assert!(out.stdout.is_empty(), "stdout: {:?}", out.stdout);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

#[test]
fn streamed_replay_matches_in_process_replay() {
    let bytes = codec::encode(&TracePreset::Pops.generate_scaled(0.003));
    let path = temp_file("stream.vrt", &bytes);
    let trace = codec::decode(&bytes).unwrap();
    let cfg = HierarchyConfig::direct_mapped(16 * 1024, 256 * 1024, 16).unwrap();
    for (flag, kind) in [
        ("vr", HierarchyKind::Vr),
        ("rr", HierarchyKind::RrInclusive),
        ("rr-noincl", HierarchyKind::RrNonInclusive),
        ("goodman", HierarchyKind::GoodmanSingleLevel),
    ] {
        let mut sys = System::new(kind, trace.cpus(), &cfg);
        let run = sys.run_trace(&trace).unwrap();
        let mut expected = format!(
            "trace: {}\norganization: {kind}, L1 {} / L2 {}\nh1 = {:.4}   h2(local) = {:.4}\n{}\n",
            trace.summary(),
            cfg.l1,
            cfg.l2,
            run.h1,
            run.h2_local,
            run.bus
        );
        for c in 0..trace.cpus() {
            expected.push_str(&format!("cpu{c}: {}\n", sys.events(CpuId::new(c))));
        }
        let out = vrsim(&[
            "run",
            "--trace-file",
            path.to_str().unwrap(),
            "--kind",
            flag,
        ]);
        assert!(out.status.success(), "{flag}: {}", out.status);
        assert_eq!(String::from_utf8(out.stdout).unwrap(), expected, "{flag}");
    }
}

#[test]
fn zero_cpu_trace_file_fails_cleanly() {
    let mut bytes = codec::encode(&TracePreset::Thor.generate_scaled(0.001)).to_vec();
    // The header's cpu count follows the magic and the version.
    bytes[6..8].copy_from_slice(&0u16.to_le_bytes());
    let path = temp_file("zero-cpu.vrt", &bytes);
    let out = vrsim(&["run", "--trace-file", path.to_str().unwrap()]);
    assert_clean_failure(&out, "cpu count");
}

#[test]
fn truncated_trace_file_fails_cleanly() {
    let bytes = codec::encode(&TracePreset::Thor.generate_scaled(0.001));
    // Cut inside the event stream, past the header's count check.
    let path = temp_file("truncated.vrt", &bytes[..bytes.len() - 2]);
    let out = vrsim(&["run", "--trace-file", path.to_str().unwrap()]);
    assert_clean_failure(&out, "ended early");
}

#[test]
fn layout_rejects_unparsable_sizes() {
    for flag in ["--l1", "--l2", "--block", "--block2"] {
        let out = vrsim(&["layout", flag, "abc"]);
        assert_clean_failure(&out, &format!("bad {flag}: abc"));
    }
    assert!(vrsim(&["layout", "--l1", "8192"]).status.success());
}
