//! Address-domain lint: every cross-domain flow the interprocedural
//! [`domain`](crate::domain) analysis finds fails the gate.
//!
//! The analysis seeds abstract domains from the `vrcache_mem::addr`
//! newtypes, propagates them across call edges to a fixpoint, and flags
//! every flow where one domain's value reaches another domain's
//! constructor, field or parameter position outside the sanctioned
//! translation seams (see [`domain::SANCTIONED`](crate::domain) and the
//! `crates/mem` blanket). Each flagged `(file, function, kind)` site is
//! one diagnostic at its first line. There is no baseline: a flow the
//! analysis cannot prove safe is either routed through a sanctioned
//! translation or a typed newtype, or its seam is reviewed into
//! `SANCTIONED`.
//!
//! The lint is inactive while no source names an address newtype
//! (minimized test workspaces).

use std::collections::BTreeMap;

use crate::domain::{self, crate_of, Analysis};
use crate::{Diagnostic, Workspace};

/// `N at line(s) a, b, …`.
fn at_lines(lines: &[usize]) -> String {
    let ls: Vec<String> = lines.iter().map(usize::to_string).collect();
    format!("{} at line(s) {}", lines.len(), ls.join(", "))
}

/// Renders the human-readable report: flagged sites with their lines,
/// then the inferred domains of every bare-integer parameter, then
/// per-crate totals.
pub fn report(a: &Analysis) -> String {
    let mut out = String::from("address-domain report:\n");
    if a.flags.is_empty() {
        out.push_str("  no cross-domain flows flagged\n");
    }
    for ((file, qual, kind), lines) in &a.flags {
        out.push_str(&format!("  {file} `{qual}` {kind} ({})\n", at_lines(lines)));
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
    domain::analyze(ws)
        .flags
        .iter()
        .map(|((file, qual, kind), lines)| Diagnostic {
            file: file.clone(),
            line: lines.first().copied().unwrap_or(0),
            lint: "address-domain",
            message: format!(
                "cross-domain flow `{kind}` in `{qual}` ({}) — route it through a \
                 sanctioned translation or a typed newtype",
                at_lines(lines)
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    /// A core fn that smuggles a virtual address into a physical
    /// constructor through `.raw()` — one flagged site.
    const CONFUSED: &str =
        "fn confuse(va: VirtAddr) -> PhysAddr {\n    PhysAddr::new(va.raw())\n}\n";

    fn ws(src: &str) -> Workspace {
        Workspace {
            sources: vec![SourceFile::new("crates/core/src/vr.rs", src)],
            ..Workspace::default()
        }
    }

    #[test]
    fn inactive_without_any_domain_seed() {
        let diags = check(&ws("fn plain(x: u64) -> u64 { x }\n"));
        assert!(diags.is_empty(), "no seeds, no lint: {diags:#?}");
    }

    #[test]
    fn flagged_flow_is_one_diagnostic_at_its_line_and_clean_passes() {
        // Two occurrences of one site: one diagnostic, at the first.
        let twice = "fn confuse(va: VirtAddr) -> PhysAddr {\n    let a = \
                     PhysAddr::new(va.raw());\n    let _ = a;\n    PhysAddr::new(va.raw())\n}\n";
        let diags = check(&ws(twice));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        let d = &diags[0];
        assert_eq!((d.file.as_str(), d.line), ("crates/core/src/vr.rs", 2));
        assert_eq!(d.lint, "address-domain");
        assert!(
            d.message.starts_with(
                "cross-domain flow `raw-virtual-to-physical` in `confuse` (2 at line(s) 2, 4)"
            ),
            "{diags:#?}"
        );
        assert!(
            d.message
                .ends_with("route it through a sanctioned translation or a typed newtype"),
            "{diags:#?}"
        );

        // The same function with the flow fixed is clean.
        let fixed = "fn confuse(pa: PhysAddr) -> PhysAddr {\n    PhysAddr::new(pa.raw())\n}\n";
        let diags = check(&ws(fixed));
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn report_names_sites_and_inferred_params() {
        let src = format!(
            "{CONFUSED}fn seed(va: VirtAddr) {{\n    sink(va.raw());\n}}\n\
             fn sink(x: u64) {{\n    let _ = x;\n}}\n"
        );
        let text = report(&domain::analyze(&ws(&src)));
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
