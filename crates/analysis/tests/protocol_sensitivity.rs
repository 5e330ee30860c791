//! Sensitivity check for the protocol extractor: applying a coherent
//! arm-swap mutant from the `vrcache-mutate` operator set to a scratch
//! copy of `vr.rs` must change the extracted transition surface — so
//! the `protocol-spec` lint would catch the mutation as drift.

use vrcache_analysis::lints::protocol as protocol_lint;
use vrcache_analysis::{protocol, walk, SourceFile, Workspace};
use vrcache_mutate::{generate, Operator};

fn real_workspace() -> Workspace {
    let root =
        walk::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    walk::load(&root).expect("load workspace")
}

/// The same workspace with `vr.rs` replaced by `mutated`.
fn with_vr(ws: &Workspace, mutated: String) -> Workspace {
    with_file(ws, "crates/core/src/vr.rs", mutated)
}

/// The same workspace with the file at `path` replaced by `mutated`.
fn with_file(ws: &Workspace, path: &str, mutated: String) -> Workspace {
    Workspace {
        sources: ws
            .sources
            .iter()
            .map(|f| {
                if f.rel_path == path {
                    SourceFile::new(f.rel_path.clone(), mutated.clone())
                } else {
                    f.clone()
                }
            })
            .collect(),
        design_md: ws.design_md.clone(),
        model_coverage: ws.model_coverage.clone(),
        protocol_spec: ws.protocol_spec.clone(),
        ..Workspace::default()
    }
}

#[test]
fn arm_swap_mutant_changes_the_extracted_spec() {
    let ws = real_workspace();
    let vr = ws
        .file("crates/core/src/vr.rs")
        .expect("vr.rs is tracked")
        .text
        .clone();

    // The coherent-arm-swap operator targets adjacent one-line
    // `BusOp::`/`CohState::` match arms; in vr.rs the snoop dispatch
    // provides the ReadMiss/Invalidate pair. Swapping their bodies
    // re-routes read-miss snoops into the invalidate handler.
    let mutants = generate(&[("crates/core/src/vr.rs", vr.as_str())]);
    let swap = mutants
        .iter()
        .find(|m| {
            m.op == Operator::ArmSwap
                && m.description
                    .contains("`BusOp::ReadMiss` and `BusOp::Invalidate`")
        })
        .expect("vr.rs snoop dispatch yields the ReadMiss/Invalidate arm swap");
    let mutated = swap.apply(&vr).expect("mutant applies cleanly");
    assert_ne!(mutated, vr);

    let original_spec = protocol::render(&protocol::extract(&ws));
    let mutated_ws = with_vr(&ws, mutated);
    let mutated_spec = protocol::render(&protocol::extract(&mutated_ws));
    assert_ne!(
        original_spec, mutated_spec,
        "the arm swap must change the extracted transition surface"
    );

    // And the pinned gate catches it: the mutated workspace (still
    // carrying the real pinned spec) fails the protocol-spec lint.
    let diags = protocol_lint::check(&mutated_ws);
    assert!(
        diags.iter().any(|d| d.lint == "protocol-spec"),
        "the lint must flag the mutated snoop: {diags:#?}"
    );
}

#[test]
fn mutant_catalogue_has_coherent_arm_swaps() {
    let ws = real_workspace();
    let vr = ws
        .file("crates/core/src/vr.rs")
        .expect("vr.rs is tracked")
        .text
        .clone();
    let mutants = generate(&[("crates/core/src/vr.rs", vr.as_str())]);
    assert!(
        mutants.iter().any(|m| m.op == Operator::ArmSwap),
        "vr.rs must keep yielding arm-swap mutants for this check to bite"
    );
}

/// The shared second level's snoop-invalidate helper is read for both
/// organizations that delegate to it: dropping its `inval_v` count must
/// change the `vr` and the `rr` rows alike (an extractor that silently
/// saw no shared helper would change neither).
#[test]
fn shared_helper_edit_changes_both_delegating_hierarchies() {
    let ws = real_workspace();
    let rcache = &ws
        .file("crates/core/src/rcache.rs")
        .expect("rcache.rs is tracked")
        .text;
    let needle = "events.inval_v += 1;";
    assert_eq!(rcache.matches(needle).count(), 1, "one shared inval-v site");
    let mutated_ws = with_file(&ws, "crates/core/src/rcache.rs", rcache.replace(needle, ""));
    let rows = |ws: &Workspace, hier: &str| -> Vec<String> {
        protocol::extract(ws)
            .rows
            .into_iter()
            .filter(|r| r.starts_with(&format!("{hier} ")))
            .collect()
    };
    for hier in ["vr", "rr"] {
        let (before, after) = (rows(&ws, hier), rows(&mutated_ws, hier));
        assert_ne!(before, after, "{hier} rows must see the shared helper");
        let invalidate = format!("{hier} private invalidate -> ");
        let row = |rows: &[String]| {
            rows.iter()
                .find(|r| r.starts_with(&invalidate))
                .cloned()
                .expect("a private invalidate row")
        };
        assert!(row(&before).contains("inval-v?"), "{}", row(&before));
        assert!(!row(&after).contains("inval-v"), "{}", row(&after));
    }
    // Goodman does not delegate: its rows are untouched.
    assert_eq!(rows(&ws, "goodman"), rows(&mutated_ws, "goodman"));
}
