//! End-to-end fixture test for the `address-domain` lint: builds a
//! throwaway workspace on disk whose `VrHierarchy::confuse` smuggles a
//! virtual address into a physical constructor, runs the real `lint`
//! binary against it, and asserts the gate fails with one diagnostic
//! naming the flow's kind and line, then passes once the flow is fixed.
//! Also the lint binary's flag wiring: `--list`, `--only` and the names
//! `--write` and `--report` accept.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A minimal workspace with one domain-seeded file: the `VirtAddr`
/// parameter activates the analysis and `PhysAddr::new(va.raw())` is a
/// raw cross-domain re-entry.
const FIXTURE_VR: &str = "pub struct VrHierarchy;\n\
    impl VrHierarchy {\n\
    \x20   pub fn confuse(&self, va: VirtAddr) -> PhysAddr {\n\
    \x20       PhysAddr::new(va.raw())\n\
    \x20   }\n\
    \x20   pub fn snoop(&mut self) {}\n\
    }\n";

/// The same hierarchy with the flow fixed: a same-domain round trip is
/// legal, so the analysis flags nothing.
const FIXED_VR: &str = "pub struct VrHierarchy;\n\
    impl VrHierarchy {\n\
    \x20   pub fn confuse(&self, pa: PhysAddr) -> PhysAddr {\n\
    \x20       PhysAddr::new(pa.raw())\n\
    \x20   }\n\
    \x20   pub fn snoop(&mut self) {}\n\
    }\n";

/// Creates the fixture workspace under a unique temp dir and returns its
/// root. Uniqueness comes from the process id plus a caller tag — no
/// wall-clock reads, so repeated runs within one process must pass
/// distinct tags.
fn make_fixture(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vrcache-domain-fixture-{}-{tag}",
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
    let (code, stdout, _) = run_lint_full(root, args);
    (code, stdout)
}

/// [`run_lint`], with stderr too.
fn run_lint_full(root: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(args)
        .current_dir(root)
        .env_remove("CARGO_MANIFEST_DIR")
        .output()
        .expect("lint binary runs");
    let code = out.status.code().expect("lint exits with a code");
    (
        code,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn seeded_flow_fails_then_fix_is_clean() {
    let root = make_fixture("seeded");

    // 1. The seeded flow fails the gate: one diagnostic, at the flow's
    //    line, naming its function and kind.
    let (code, stdout) = run_lint(&root, &["--only", "address-domain"]);
    assert_eq!(code, 1, "a cross-domain flow must fail: {stdout}");
    let diags: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("[address-domain]"))
        .collect();
    assert_eq!(diags.len(), 1, "one diagnostic per site: {stdout}");
    assert!(
        diags[0].starts_with("crates/core/src/vr.rs:4: "),
        "{stdout}"
    );
    assert!(diags[0].contains("raw-virtual-to-physical"), "{stdout}");
    assert!(diags[0].contains("VrHierarchy::confuse"), "{stdout}");

    // 2. Fixing the flow makes the workspace clean.
    fs::write(root.join("crates/core/src/vr.rs"), FIXED_VR).expect("fixture source");
    let (code, stdout) = run_lint(&root, &["--only", "address-domain"]);
    assert_eq!(code, 0, "the fixed workspace must pass: {stdout}");

    fs::remove_dir_all(&root).expect("fixture dir is removable");
}

#[test]
fn json_mode_reports_domain_rows() {
    let root = make_fixture("json");
    let (code, stdout) = run_lint(&root, &["--json", "--only", "address-domain"]);
    assert_ne!(code, 0, "the seeded fixture must fail in json mode too");
    assert!(stdout.contains("\"violations\""), "{stdout}");
    assert!(stdout.contains("\"lint\": \"address-domain\""), "{stdout}");
    fs::remove_dir_all(&root).expect("fixture dir is removable");
}

#[test]
fn report_mode_names_flows_and_inferred_params() {
    let root = make_fixture("report");
    let (code, stdout) = run_lint(&root, &["--report", "domain"]);
    assert_eq!(code, 0, "report mode is informational: {stdout}");
    assert!(stdout.contains("address-domain report:"), "{stdout}");
    assert!(stdout.contains("raw-virtual-to-physical"), "{stdout}");
    assert!(stdout.contains("functions analyzed"), "{stdout}");
    fs::remove_dir_all(&root).expect("fixture dir is removable");
}

#[test]
fn domain_free_workspace_refuses_to_pin() {
    let root = make_fixture("inactive");
    fs::write(
        root.join("crates/core/src/vr.rs"),
        "pub fn plain(x: u64) -> u64 { x }\n",
    )
    .expect("fixture source");
    for args in [["--write", "domain"], ["--report", "domain"]] {
        let (code, _) = run_lint(&root, &args);
        assert_eq!(
            code, 2,
            "{args:?}: nothing to pin or analyze is a usage error"
        );
    }
    // And the lint itself is inactive: clean.
    let (code, stdout) = run_lint(&root, &["--only", "address-domain"]);
    assert_eq!(code, 0, "domain-free workspace is out of scope: {stdout}");
    fs::remove_dir_all(&root).expect("fixture dir is removable");
}

#[test]
fn list_and_only_flags() {
    let root = make_fixture("flags");
    let (code, stdout) = run_lint(&root, &["--list"]);
    assert_eq!(code, 0);
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(names.len(), 9, "nine lints listed: {stdout}");
    assert!(!names.contains(&"hot-path-hygiene"), "{stdout}");
    assert!(names.contains(&"determinism"), "{stdout}");
    assert!(names.contains(&"address-domain"), "{stdout}");

    let (code, _) = run_lint(&root, &["--only", "no-such-lint"]);
    assert_eq!(code, 2, "unknown lint name is a usage error");

    let (code, _, stderr) = run_lint_full(&root, &["--report", "hotpath"]);
    assert_eq!(code, 2, "--report of an unknown name is a usage error");
    assert!(
        stderr.contains("protocol") && stderr.contains("domain"),
        "the error names the reports there are: {stderr}"
    );
    for name in ["hotpath", "domain"] {
        let (code, _, stderr) = run_lint_full(&root, &["--write", name]);
        assert_eq!(code, 2, "--write {name} is a usage error");
        assert!(
            stderr.contains("--write protocol"),
            "--write {name}: the error names the one pinned spec: {stderr}"
        );
    }
    fs::remove_dir_all(&root).expect("fixture dir is removable");
}
