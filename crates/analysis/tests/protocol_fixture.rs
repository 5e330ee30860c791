//! End-to-end fixture test for the `protocol-spec` gate: builds a
//! throwaway workspace with a small V-R snoop on disk, runs the real
//! `lint` binary against it, and drives the full fail → pin → clean →
//! stale cycle, plus the coverage cross-check and the read-only report.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A V-R hierarchy handling every bus op, with one helper and one
/// originating `BusRequest::` site — enough surface for snoop rows in
/// all three states, an issue row, and no dead ops.
const FIXTURE_VR: &str = "\
pub struct VrHierarchy;
impl VrHierarchy {
    pub fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
        match txn.op {
            BusOp::ReadMiss => self.snoop_read(txn.block),
            BusOp::Invalidate => {
                let Some(line) = self.l2.cache.invalidate(p2) else {
                    return SnoopReply::default();
                };
                self.events.inval_v += 1;
                let _ = line;
                SnoopReply { has_copy: true, ..SnoopReply::default() }
            }
            BusOp::ReadModifiedWrite => self.snoop_read(txn.block),
            BusOp::WriteBack => SnoopReply::default(),
            BusOp::Update => self.snoop_read(txn.block),
        }
    }
    fn snoop_read(&mut self, block: BlockId) -> SnoopReply {
        let Some(line) = self.l2.cache.peek_mut(p2) else {
            return SnoopReply::default();
        };
        line.meta.state = CohState::Shared;
        self.events.flush_v += 1;
        SnoopReply { has_copy: true, ..SnoopReply::default() }
    }
    fn miss(&mut self) {
        self.bus.issue(BusRequest::ReadMiss { block });
    }
}
";

/// Creates the fixture workspace under a unique temp dir and returns its
/// root. Uniqueness comes from the process id plus a caller tag — no
/// wall-clock reads, so repeated runs within one process must pass
/// distinct tags.
fn make_fixture(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vrcache-protocol-fixture-{}-{tag}",
        std::process::id()
    ));
    if root.exists() {
        fs::remove_dir_all(&root).expect("stale fixture dir is removable");
    }
    fs::create_dir_all(root.join("crates/core/src")).expect("fixture tree");
    fs::create_dir_all(root.join("crates/analysis")).expect("fixture tree");
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("fixture manifest");
    fs::write(root.join("crates/core/src/vr.rs"), FIXTURE_VR).expect("fixture source");
    root
}

/// Runs the compiled `lint` binary in `root` with `args`, returning
/// (exit code, stdout). `CARGO_MANIFEST_DIR` is stripped so root
/// discovery starts from the fixture cwd, not this crate.
fn run_lint(root: &Path, args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(args)
        .current_dir(root)
        .env_remove("CARGO_MANIFEST_DIR")
        .output()
        .expect("lint binary runs");
    let code = out.status.code().expect("lint exits with a code");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn fail_pin_clean_stale_cycle() {
    let root = make_fixture("cycle");
    let spec_path = root.join("crates/analysis/protocol_spec.txt");

    // 1. No pinned spec: the gate fails demanding a pin.
    let (code, stdout) = run_lint(&root, &["--only", "protocol-spec"]);
    assert_ne!(code, 0, "unpinned spec must fail: {stdout}");
    assert!(stdout.contains("missing protocol spec"), "{stdout}");

    // 2. Pin today's surface; the write is byte-deterministic.
    let (code, stdout) = run_lint(&root, &["--write", "protocol"]);
    assert_eq!(code, 0, "pinning must succeed: {stdout}");
    let pinned = fs::read_to_string(&spec_path).expect("spec written");
    assert!(
        pinned.contains("vr shared read-miss -> shared copy flush-v"),
        "{pinned}"
    );
    assert!(
        pinned.contains("vr shared invalidate -> absent copy inval-v"),
        "{pinned}"
    );
    assert!(
        pinned.contains("vr issue read-miss -> - - miss"),
        "{pinned}"
    );
    let (code, _) = run_lint(&root, &["--write", "protocol"]);
    assert_eq!(code, 0);
    let repinned = fs::read_to_string(&spec_path).expect("spec written");
    assert_eq!(pinned, repinned, "re-pin must be byte-identical");

    // 3. With the pin in place the same workspace is clean.
    let (code, stdout) = run_lint(&root, &["--only", "protocol-spec"]);
    assert_eq!(code, 0, "pinned workspace must pass: {stdout}");

    // 4. Editing a pinned row is drift.
    let edited = pinned.replace(
        "vr shared invalidate -> absent copy inval-v",
        "vr shared invalidate -> shared copy inval-v",
    );
    assert_ne!(edited, pinned, "the replaced row must exist");
    fs::write(&spec_path, &edited).expect("spec edited");
    let (code, stdout) = run_lint(&root, &["--only", "protocol-spec"]);
    assert_ne!(code, 0, "edited spec row must fail: {stdout}");
    assert!(stdout.contains("transition drift"), "{stdout}");

    // 5. Changing the snoop logic under the original pin is also drift
    //    (the swapped-arm case is covered end-to-end by
    //    tests/protocol_sensitivity.rs against the real vr.rs).
    fs::write(&spec_path, &pinned).expect("spec restored");
    let swapped = FIXTURE_VR.replace(
        "BusOp::WriteBack => SnoopReply::default(),",
        "BusOp::WriteBack => self.snoop_read(txn.block),",
    );
    fs::write(root.join("crates/core/src/vr.rs"), swapped).expect("fixture source");
    let (code, stdout) = run_lint(&root, &["--only", "protocol-spec"]);
    assert_ne!(code, 0, "changed snoop logic must fail: {stdout}");
    assert!(stdout.contains("write-back"), "{stdout}");

    fs::remove_dir_all(&root).expect("fixture dir is removable");
}

#[test]
fn coverage_row_without_spec_row_fails() {
    let root = make_fixture("coverage");
    let (code, _) = run_lint(&root, &["--write", "protocol"]);
    assert_eq!(code, 0);
    fs::create_dir_all(root.join("crates/model")).expect("fixture tree");
    // `nonesuch` is no op the fixture snoop handles: an exercised
    // transition with no spec row.
    fs::write(
        root.join("crates/model/coverage.txt"),
        "vr shared nonesuch\n",
    )
    .expect("coverage written");
    let (code, stdout) = run_lint(&root, &["--only", "protocol-spec"]);
    assert_ne!(code, 0, "coverage row without spec row must fail: {stdout}");
    assert!(stdout.contains("has no spec row"), "{stdout}");
    fs::remove_dir_all(&root).expect("fixture dir is removable");
}

#[test]
fn protocol_report_is_read_only() {
    let root = make_fixture("report");
    let (code, stdout) = run_lint(&root, &["--report", "protocol"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("== vr =="), "{stdout}");
    assert!(stdout.contains("vr shared read-miss"), "{stdout}");
    assert!(
        !root.join("crates/analysis/protocol_spec.txt").exists(),
        "report must not write the spec"
    );
    fs::remove_dir_all(&root).expect("fixture dir is removable");
}

#[test]
fn list_names_the_tenth_lint() {
    let root = make_fixture("list");
    let (code, stdout) = run_lint(&root, &["--list"]);
    assert_eq!(code, 0);
    assert!(
        stdout.lines().any(|l| l == "protocol-spec"),
        "protocol-spec must be registered: {stdout}"
    );
    fs::remove_dir_all(&root).expect("fixture dir is removable");
}
