//! End-to-end tests of the `vrsim` binary: streamed trace-file replay
//! matches the in-process replay of the decoded trace, and bad input
//! fails with a message and a non-zero exit, never a panic, a hang or
//! partial output — also when the failure lies chunks deep into the
//! stream, where the decoding thread has long run ahead of the
//! simulator. A reader that closes the pipe early ends the command
//! quietly.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use vrcache::config::HierarchyConfig;
use vrcache_mem::access::CpuId;
use vrcache_sim::system::{HierarchyKind, System};
use vrcache_trace::codec;
use vrcache_trace::presets::TracePreset;
use vrcache_trace::record::TraceEvent;
use vrcache_trace::trace::Trace;

/// How long one `vrsim` run may take before the test calls it hung.
const DEADLINE: Duration = Duration::from_secs(120);

fn vrsim(args: &[&str]) -> Output {
    finish(spawn(args), args)
}

fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_vrsim"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("vrsim runs")
}

/// Waits for `child` at most [`DEADLINE`] and collects what it wrote.
fn finish(child: Child, args: &[&str]) -> Output {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(child.wait_with_output()));
    rx.recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("vrsim {args:?} still running after {DEADLINE:?}"))
        .expect("vrsim output is readable")
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
fn directory_trace_file_fails_cleanly() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("a-directory.vrt");
    std::fs::create_dir_all(&dir).expect("the test temp directory is writable");
    let dir = dir.to_str().unwrap();
    for cmd in ["run", "inspect"] {
        let out = vrsim(&[cmd, "--trace-file", dir]);
        assert_clean_failure(&out, dir);
    }
}

/// A pops trace long enough to span several of the decoder's chunks.
fn long_trace() -> Trace {
    TracePreset::Pops.generate_scaled(0.01)
}

/// Byte offset of event `n` in `encode(t)`: the encoding of the first
/// `n` events is a prefix of the whole, header length included.
fn event_offset(t: &Trace, n: usize) -> usize {
    let prefix = Trace::new(t.name(), t.cpus(), t.page_size(), t.events()[..n].to_vec());
    codec::encode(&prefix).len()
}

/// The index of the first access at or after three quarters of `t`.
fn late_access(t: &Trace) -> usize {
    let start = t.len() * 3 / 4;
    start
        + t.events()[start..]
            .iter()
            .position(|e| !e.is_context_switch())
            .expect("pops ends in accesses")
}

/// The long trace's cpu 0 and 1 events under a two-cpu header, plus
/// one access of another cpu, first or last.
fn stray_cpu_trace(first: bool) -> Trace {
    let t = long_trace();
    let (mut events, rest): (Vec<TraceEvent>, Vec<TraceEvent>) =
        t.events().iter().partition(|e| e.cpu().index() < 2);
    let stray = rest.into_iter().find(|e| !e.is_context_switch()).unwrap();
    events.insert(if first { 0 } else { events.len() }, stray);
    Trace::new(t.name(), 2, t.page_size(), events)
}

#[test]
fn trailing_bytes_fail_cleanly() {
    // A count corrupted downward used to replay a silent prefix and
    // exit 0.
    let t = long_trace();
    let mut bytes = codec::encode(&t).to_vec();
    let count_at = event_offset(&t, 0) - 8;
    let short = (t.len() as u64 - 1000).to_le_bytes();
    bytes[count_at..count_at + 8].copy_from_slice(&short);
    let path = temp_file("short-count.vrt", &bytes);
    let out = vrsim(&["run", "--trace-file", path.to_str().unwrap()]);
    assert_clean_failure(&out, "trailing bytes");
}

#[test]
fn late_truncation_fails_cleanly() {
    let t = long_trace();
    let bytes = codec::encode(&t);
    let cut = event_offset(&t, late_access(&t)) + 1;
    assert!(
        codec::Decoder::new(&bytes[..cut]).is_ok(),
        "the cut must pass the header's count check and surface mid-stream"
    );
    let path = temp_file("late-truncated.vrt", &bytes[..cut]);
    for kind in ["vr", "goodman"] {
        let out = vrsim(&[
            "run",
            "--trace-file",
            path.to_str().unwrap(),
            "--kind",
            kind,
        ]);
        assert_clean_failure(&out, "trace buffer ended early");
    }
}

#[test]
fn late_corrupt_head_fails_cleanly() {
    let t = long_trace();
    let mut bytes = codec::encode(&t).to_vec();
    // Access kind 3 does not exist.
    bytes[event_offset(&t, late_access(&t))] |= 0b110;
    let path = temp_file("late-corrupt.vrt", &bytes);
    let out = vrsim(&["run", "--trace-file", path.to_str().unwrap()]);
    assert_clean_failure(&out, "corrupt trace field: access kind");
}

#[test]
fn late_unknown_cpu_fails_cleanly() {
    let bad = stray_cpu_trace(false);
    assert!(bad.len() > 10_000, "the stray access lies chunks deep");
    let path = temp_file("late-unknown-cpu.vrt", &codec::encode(&bad));
    let out = vrsim(&["run", "--trace-file", path.to_str().unwrap()]);
    assert_clean_failure(&out, "simulation failed: trace references unknown cpu");
}

#[test]
fn early_failure_stops_the_decoder() {
    // The very first access fails while the decoding thread still has
    // ten copies of the trace ahead of it, far more than it may decode
    // ahead, so it blocks on the full channel: the run must end with
    // the simulator's error, not wait on the decoder.
    let t = stray_cpu_trace(true);
    let mut events = t.events().to_vec();
    for _ in 0..9 {
        events.extend_from_slice(&t.events()[1..]);
    }
    let long = Trace::new(t.name(), t.cpus(), t.page_size(), events);
    let path = temp_file("early-unknown-cpu.vrt", &codec::encode(&long));
    let out = vrsim(&["run", "--trace-file", path.to_str().unwrap()]);
    assert_clean_failure(&out, "simulation failed: trace references unknown cpu");
}

#[test]
fn layout_rejects_unparsable_sizes() {
    for flag in ["--l1", "--l2", "--block", "--block2"] {
        let out = vrsim(&["layout", flag, "abc"]);
        assert_clean_failure(&out, &format!("bad {flag}: abc"));
    }
    assert!(vrsim(&["layout", "--l1", "8192"]).status.success());
}

#[test]
fn closed_stdout_is_not_a_panic() {
    let path = temp_file(
        "closed-stdout.vrt",
        &codec::encode(&TracePreset::Pops.generate_scaled(0.001)),
    );
    let args = ["inspect", "--trace-file", path.to_str().unwrap()];
    let mut child = spawn(&args);
    // The reader hangs up before vrsim writes a byte.
    drop(child.stdout.take());
    let out = finish(child, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
