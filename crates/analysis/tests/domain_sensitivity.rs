//! Sensitivity check for the address-domain analysis: seeding a
//! virtual/physical argument swap into a scratch copy of `vr.rs` must
//! produce a cross-domain flag — so the `address-domain` lint would
//! catch the classic "wrong address into the translation seam" bug the
//! typed newtypes exist to prevent.

use vrcache_analysis::lints::domain as domain_lint;
use vrcache_analysis::{domain, walk, SourceFile, Workspace};

fn real_workspace() -> Workspace {
    let root =
        walk::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    walk::load(&root).expect("load workspace")
}

/// The same workspace with `vr.rs` replaced by `mutated`.
fn with_vr(ws: &Workspace, mutated: String) -> Workspace {
    Workspace {
        sources: ws
            .sources
            .iter()
            .map(|f| {
                if f.rel_path == "crates/core/src/vr.rs" {
                    SourceFile::new(f.rel_path.clone(), mutated.clone())
                } else {
                    f.clone()
                }
            })
            .collect(),
        ..Workspace::default()
    }
}

#[test]
fn vaddr_for_paddr_swap_is_caught() {
    let ws = real_workspace();
    let vr = ws
        .file("crates/core/src/vr.rs")
        .expect("vr.rs is tracked")
        .text
        .clone();

    // The probe miss path derives the physical block from the access's
    // physical address. Handing it the *virtual* address instead is
    // exactly the bug class the typed entry points exist to prevent —
    // and the one an untyped `block_of(u64)` call would never surface.
    let needle = "self.granule_geo.pblock_of(access.paddr)";
    assert!(vr.contains(needle), "vr.rs must keep the typed probe entry");
    let mutated = vr.replace(needle, "self.granule_geo.pblock_of(access.vaddr)");
    assert_ne!(mutated, vr);

    // The analysis sees the swap as a virtual witness reaching the
    // sanctioned translation's PhysAddr parameter.
    let analysis = domain::analyze(&with_vr(&ws, mutated.clone()));
    assert!(
        analysis
            .flags
            .keys()
            .any(|(file, _, kind)| file == "crates/core/src/vr.rs"
                && kind.contains("virtual-to-physical")),
        "the swap must flag a virtual-to-physical flow: {:?}",
        analysis.flags.keys().collect::<Vec<_>>()
    );

    // And the gate catches it: the mutated workspace fails the
    // address-domain lint.
    let diags = domain_lint::check(&with_vr(&ws, mutated));
    assert!(
        diags.iter().any(|d| d.lint == "address-domain"),
        "the lint must flag the swapped argument: {diags:#?}"
    );
}

#[test]
fn unmutated_workspace_stays_clean() {
    let ws = real_workspace();
    let diags = domain_lint::check(&ws);
    assert!(
        diags.is_empty(),
        "the real workspace must be clean for the sensitivity delta to mean \
         anything: {diags:#?}"
    );
}
