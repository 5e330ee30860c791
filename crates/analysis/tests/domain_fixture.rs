//! End-to-end fixture test for the `address-domain` ratchet: builds a
//! throwaway workspace on disk whose `VrHierarchy::confuse` smuggles a
//! virtual address into a physical constructor, runs the real `lint`
//! binary against it, and asserts the gate fails without a baseline,
//! that `--write domain` pins the flow, and that the pinned
//! workspace then passes — until the flow is fixed, when the stale pin
//! demands a re-pin. Also the lint binary's flag wiring: `--list`,
//! `--only` and the baseline names `--write` accepts.

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
/// legal, so the analysis flags nothing and any pinned row goes stale.
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
fn seeded_flow_fails_then_pin_then_clean_then_stale() {
    let root = make_fixture("ratchet");

    // 1. No baseline pinned at all: the gate fails demanding a pin.
    let (code, stdout) = run_lint(&root, &["--only", "address-domain"]);
    assert_ne!(code, 0, "unpinned cross-domain flow must fail: {stdout}");
    assert!(
        stdout.contains("missing address-domain baseline"),
        "{stdout}"
    );

    // 2. An empty pin makes the seeded flow a *new* site, named by
    //    function and kind.
    let baseline = root.join("crates/analysis/domain_baseline.txt");
    fs::write(&baseline, "# empty pin\n").expect("baseline written");
    let (code, stdout) = run_lint(&root, &["--only", "address-domain"]);
    assert_ne!(code, 0, "new cross-domain flow must fail: {stdout}");
    assert!(stdout.contains("new cross-domain flow"), "{stdout}");
    assert!(stdout.contains("raw-virtual-to-physical"), "{stdout}");
    assert!(stdout.contains("VrHierarchy::confuse"), "{stdout}");

    // 3. Pin today's flows.
    let (code, stdout) = run_lint(&root, &["--write", "domain"]);
    assert_eq!(code, 0, "pinning must succeed: {stdout}");
    let pinned = fs::read_to_string(&baseline).expect("baseline written");
    assert!(
        pinned.contains("VrHierarchy::confuse raw-virtual-to-physical 1"),
        "{pinned}"
    );

    // 4. With the pin in place the same workspace is clean.
    let (code, stdout) = run_lint(&root, &["--only", "address-domain"]);
    assert_eq!(code, 0, "pinned workspace must pass: {stdout}");

    // 5. Fixing the flow makes the pin stale: the ratchet demands a
    //    shrunken re-pin rather than silently accepting the headroom.
    fs::write(root.join("crates/core/src/vr.rs"), FIXED_VR).expect("fixture source");
    let (code, stdout) = run_lint(&root, &["--only", "address-domain"]);
    assert_ne!(code, 0, "stale pin must fail until re-pinned: {stdout}");
    assert!(stdout.contains("stale row"), "{stdout}");

    // 6. Re-pinning shrinks the baseline to zero rows and passes.
    let (code, stdout) = run_lint(&root, &["--write", "domain"]);
    assert_eq!(code, 0, "re-pinning must succeed: {stdout}");
    let repinned = fs::read_to_string(&baseline).expect("baseline written");
    assert!(!repinned.contains("VrHierarchy::confuse"), "{repinned}");
    let (code, stdout) = run_lint(&root, &["--only", "address-domain"]);
    assert_eq!(code, 0, "re-pinned workspace must pass: {stdout}");

    fs::remove_dir_all(&root).expect("fixture dir is removable");
}

#[test]
fn json_mode_reports_domain_rows() {
    let root = make_fixture("json");
    let (code, stdout) = run_lint(&root, &["--json", "--only", "address-domain"]);
    assert_ne!(code, 0, "unpinned fixture must fail in json mode too");
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
    let (code, _) = run_lint(&root, &["--write", "domain"]);
    assert_eq!(code, 2, "nothing to analyze is a usage error");
    // And the lint itself is inactive: no baseline, yet clean.
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

    for flag in ["--write", "--report"] {
        let (code, _, stderr) = run_lint_full(&root, &[flag, "hotpath"]);
        assert_eq!(code, 2, "{flag} of an unknown baseline is a usage error");
        assert!(
            stderr.contains("protocol") && stderr.contains("domain"),
            "{flag}: the error names the baselines there are: {stderr}"
        );
    }
    fs::remove_dir_all(&root).expect("fixture dir is removable");
}
