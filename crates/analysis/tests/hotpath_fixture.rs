//! End-to-end fixture test for the `hot-path-hygiene` ratchet: builds a
//! throwaway workspace on disk whose `VrHierarchy::access` allocates,
//! runs the real `lint` binary against it, and asserts the gate fails
//! without a baseline, that `--write hotpath` pins the sites,
//! and that the pinned workspace then passes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A minimal workspace with one hot file: both vr.rs roots resolve, and
/// `access` carries a `Vec::new` + unreserved-`push` allocation pair.
const FIXTURE_VR: &str = "pub struct VrHierarchy;\n\
    impl VrHierarchy {\n\
    \x20   pub fn access(&mut self) {\n\
    \x20       let mut scratch = Vec::new();\n\
    \x20       scratch.push(1u8);\n\
    \x20       let _ = scratch;\n\
    \x20   }\n\
    \x20   pub fn snoop(&mut self) {}\n\
    }\n";

/// Creates the fixture workspace under a unique temp dir and returns its
/// root. Uniqueness comes from the process id plus a caller tag — no
/// wall-clock reads, so repeated runs within one process must pass
/// distinct tags.
fn make_fixture(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vrcache-hotpath-fixture-{}-{tag}",
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
fn seeded_allocation_fails_then_pin_then_clean() {
    let root = make_fixture("ratchet");

    // 1. No baseline pinned at all: the gate fails demanding a pin.
    let (code, stdout) = run_lint(&root, &["--only", "hot-path-hygiene"]);
    assert_ne!(code, 0, "unpinned hot allocation must fail: {stdout}");
    assert!(stdout.contains("missing hot-path baseline"), "{stdout}");

    // 2. An empty pin makes the seeded allocation a *new* site, named
    //    by function and kind.
    let baseline = root.join("crates/analysis/hotpath_baseline.txt");
    fs::write(&baseline, "# empty pin\n").expect("baseline written");
    let (code, stdout) = run_lint(&root, &["--only", "hot-path-hygiene"]);
    assert_ne!(code, 0, "new hot allocation must fail: {stdout}");
    assert!(stdout.contains("hot-path-hygiene"), "{stdout}");
    assert!(stdout.contains("VrHierarchy::access"), "{stdout}");

    // 3. Pin today's sites.
    let (code, stdout) = run_lint(&root, &["--write", "hotpath"]);
    assert_eq!(code, 0, "pinning must succeed: {stdout}");
    let pinned = fs::read_to_string(&baseline).expect("baseline written");
    assert!(pinned.contains("VrHierarchy::access vec-new 1"), "{pinned}");
    assert!(
        pinned.contains("VrHierarchy::access push-unreserved 1"),
        "{pinned}"
    );

    // 4. With the pin in place the same workspace is clean.
    let (code, stdout) = run_lint(&root, &["--only", "hot-path-hygiene"]);
    assert_eq!(code, 0, "pinned workspace must pass: {stdout}");

    // 5. Fixing the allocation makes the pin stale: the ratchet demands
    //    a shrunken re-pin rather than silently accepting the headroom.
    let fixed = FIXTURE_VR.replace("Vec::new()", "Vec::with_capacity(4)");
    fs::write(root.join("crates/core/src/vr.rs"), fixed).expect("fixture source");
    let (code, stdout) = run_lint(&root, &["--only", "hot-path-hygiene"]);
    assert_ne!(code, 0, "stale pin must fail until re-pinned: {stdout}");

    fs::remove_dir_all(&root).expect("fixture dir is removable");
}

#[test]
fn json_mode_reports_hotpath_rows() {
    let root = make_fixture("json");
    let (code, stdout) = run_lint(&root, &["--json", "--only", "hot-path-hygiene"]);
    assert_ne!(code, 0, "unpinned fixture must fail in json mode too");
    assert!(stdout.contains("\"violations\""), "{stdout}");
    assert!(
        stdout.contains("\"lint\": \"hot-path-hygiene\""),
        "{stdout}"
    );
    fs::remove_dir_all(&root).expect("fixture dir is removable");
}

#[test]
fn list_and_only_flags() {
    let root = make_fixture("flags");
    let (code, stdout) = run_lint(&root, &["--list"]);
    assert_eq!(code, 0);
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(names.len(), 10, "ten lints listed: {stdout}");
    assert!(names.contains(&"hot-path-hygiene"), "{stdout}");
    assert!(names.contains(&"determinism"), "{stdout}");

    let (code, _) = run_lint(&root, &["--only", "no-such-lint"]);
    assert_eq!(code, 2, "unknown lint name is a usage error");
    fs::remove_dir_all(&root).expect("fixture dir is removable");
}
