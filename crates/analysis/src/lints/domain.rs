//! Address-domain lint: cross-domain flows found by the
//! interprocedural [`domain`](crate::domain) analysis are pinned in a
//! ratchet baseline that only shrinks.
//!
//! The analysis seeds abstract domains from the `vrcache_mem::addr`
//! newtypes, propagates them across call edges to a fixpoint, and flags
//! every flow where one domain's value reaches another domain's
//! constructor, field or parameter position outside the sanctioned
//! translation seams (see [`domain::SANCTIONED`](crate::domain) and the
//! `crates/mem` blanket). Flags aggregate to
//! `(file, function, kind) → count` rows pinned in
//! `crates/analysis/domain_baseline.txt` and compared by the
//! [`ratchet`](crate::ratchet): an unpinned site or a grown count fails
//! the gate, and shrinkage (or a stale row) demands a smaller re-pin
//! (`--write domain`, gated by `REPIN=domain scripts/check.sh`).
//!
//! The lint is inactive while no source names an address newtype
//! (minimized test workspaces).

use std::collections::BTreeMap;

use crate::domain::{self, Analysis};
use crate::ratchet::{crate_of, Ratchet};
use crate::{Diagnostic, Workspace};

/// The address-domain baseline's ratchet.
pub const RATCHET: Ratchet = Ratchet {
    lint: "address-domain",
    repin: "domain",
    path: "crates/analysis/domain_baseline.txt",
    about: "cross-domain address flows the\n\
            # interprocedural dataflow analysis (src/domain.rs) cannot prove safe.\n\
            # Kinds: [may-][raw-]<from>-to-<to> (a value witnessing <from>\n\
            # reaches a <to> sink), mixed-raw-param (a bare-integer parameter\n\
            # inferred to carry both virtual- and physical-family values).\n",
    noun: "cross-domain flow",
    fix: "route it through a sanctioned translation or a typed newtype",
};

/// Renders the human-readable report: flagged sites with their lines,
/// then the inferred domains of every bare-integer parameter, then
/// per-crate totals.
pub fn report(a: &Analysis) -> String {
    let mut out = String::from("address-domain report:\n");
    if a.flags.is_empty() {
        out.push_str("  no cross-domain flows flagged\n");
    }
    for ((file, qual, kind), lines) in &a.flags {
        let ls: Vec<String> = lines.iter().map(usize::to_string).collect();
        out.push_str(&format!(
            "  {file} `{qual}` {kind} ({} at line(s) {})\n",
            lines.len(),
            ls.join(", ")
        ));
    }
    out.push_str("inferred raw-integer parameter domains:\n");
    let mut any = false;
    for ((qual, name), val) in &a.raw_params {
        if val.doms.is_empty() {
            continue;
        }
        any = true;
        out.push_str(&format!("  {qual}({name}): {}\n", val.render()));
    }
    if !any {
        out.push_str("  none carried a typed witness\n");
    }
    let mut per_crate: BTreeMap<&str, usize> = BTreeMap::new();
    for ((file, _, _), lines) in &a.flags {
        *per_crate.entry(crate_of(file)).or_default() += lines.len();
    }
    out.push_str(&format!(
        "totals: {} functions analyzed, {} flagged site(s)",
        a.fn_count,
        a.flags.values().map(|l| l.len()).sum::<usize>()
    ));
    for (krate, n) in &per_crate {
        out.push_str(&format!(", {krate}: {n}"));
    }
    out.push('\n');
    out
}

/// Runs the address-domain lint.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let a = domain::analyze(ws);
    if !a.active {
        return Vec::new();
    }
    RATCHET.check(ws.domain_baseline.as_deref(), &a.flags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    /// A core fn that smuggles a virtual address into a physical
    /// constructor through `.raw()` — one flagged site.
    const CONFUSED: &str =
        "fn confuse(va: VirtAddr) -> PhysAddr {\n    PhysAddr::new(va.raw())\n}\n";

    fn ws(src: &str, baseline: Option<&str>) -> Workspace {
        Workspace {
            sources: vec![SourceFile::new("crates/core/src/vr.rs", src)],
            domain_baseline: baseline.map(str::to_string),
            ..Workspace::default()
        }
    }

    const CLEAN_BASELINE: &str =
        "# pinned\ncrates/core/src/vr.rs confuse raw-virtual-to-physical 1\n";

    #[test]
    fn inactive_without_any_domain_seed() {
        let diags = check(&ws("fn plain(x: u64) -> u64 { x }\n", None));
        assert!(diags.is_empty(), "no seeds, no lint: {diags:#?}");
    }

    #[test]
    fn missing_baseline_is_flagged_when_active() {
        let diags = check(&ws(CONFUSED, None));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(
            diags[0].message.contains("missing address-domain baseline"),
            "{diags:#?}"
        );
    }

    #[test]
    fn pinned_sites_are_clean_and_new_sites_fail() {
        let clean = check(&ws(CONFUSED, Some(CLEAN_BASELINE)));
        assert!(clean.is_empty(), "{clean:#?}");

        let grown =
            format!("{CONFUSED}fn worse(pa: PhysAddr) -> Vpn {{\n    Vpn::new(pa.raw())\n}}\n");
        let diags = check(&ws(&grown, Some(CLEAN_BASELINE)));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(
            diags[0]
                .message
                .contains("new cross-domain flow `raw-physical-to-vpn`"),
            "{diags:#?}"
        );
        assert_eq!(diags[0].file, "crates/core/src/vr.rs");
    }

    #[test]
    fn count_growth_fails_and_equality_passes() {
        let grown = "fn confuse(va: VirtAddr) -> PhysAddr {\n    let a = \
                     PhysAddr::new(va.raw());\n    let _ = a;\n    PhysAddr::new(va.raw())\n}\n";
        let diags = check(&ws(grown, Some(CLEAN_BASELINE)));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("grew 1 → 2"), "{diags:#?}");
    }

    #[test]
    fn improvement_demands_a_smaller_pin() {
        let over = "# pinned\ncrates/core/src/vr.rs confuse raw-virtual-to-physical 2\n";
        let diags = check(&ws(CONFUSED, Some(over)));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("shrank 2 → 1"), "{diags:#?}");
        assert_eq!(diags[0].file, RATCHET.path);
    }

    #[test]
    fn stale_rows_and_malformed_rows_fail() {
        let stale =
            format!("{CLEAN_BASELINE}crates/core/src/vr.rs gone raw-virtual-to-physical 3\n");
        let diags = check(&ws(CONFUSED, Some(&stale)));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("stale row"), "{diags:#?}");

        let malformed = format!("{CLEAN_BASELINE}not a valid row\n");
        let diags = check(&ws(CONFUSED, Some(&malformed)));
        assert!(diags[0].message.contains("malformed"), "{diags:#?}");
    }

    #[test]
    fn baseline_rendering_is_deterministic_and_sorted() {
        let a1 = domain::analyze(&ws(CONFUSED, None));
        let a2 = domain::analyze(&ws(CONFUSED, None));
        let b1 = RATCHET.render(&a1.flags);
        assert_eq!(b1, RATCHET.render(&a2.flags), "byte-identical");
        let rows: Vec<&str> = b1.lines().filter(|l| !l.starts_with('#')).collect();
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted, "rows are sorted");
        assert!(b1.contains("confuse raw-virtual-to-physical 1"), "{b1}");
    }

    #[test]
    fn report_names_sites_and_inferred_params() {
        let src = format!(
            "{CONFUSED}fn seed(va: VirtAddr) {{\n    sink(va.raw());\n}}\n\
             fn sink(x: u64) {{\n    let _ = x;\n}}\n"
        );
        let text = report(&domain::analyze(&ws(&src, None)));
        assert!(text.contains("raw-virtual-to-physical"), "{text}");
        assert!(text.contains("sink(x): exactly(virtual)"), "{text}");
        assert!(text.contains("flagged site(s)"), "{text}");
    }

    #[test]
    fn real_workspace_is_clean() {
        let root = crate::walk::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let ws = crate::walk::load(&root).expect("load workspace");
        let diags = check(&ws);
        assert!(diags.is_empty(), "{diags:#?}");
    }
}
