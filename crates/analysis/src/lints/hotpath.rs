//! Hot-path-hygiene lint: allocation and slow-structure sites reachable
//! from the simulator's per-access hot roots are pinned in a ratchet
//! baseline that only shrinks.
//!
//! The [`callgraph`](crate::callgraph) module computes the transitive
//! hot set from [`HOT_ROOTS`](crate::callgraph::HOT_ROOTS) (every
//! organization's `access`/`snoop`, the streaming `Decoder::next`). Over
//! that set this lint flags, per function:
//!
//! * heap allocation: `Vec::new(`, `vec!`, `Box::new(`, `format!`,
//!   `String::new(`, `.to_string(`, `.to_owned(`, `.to_vec(`,
//!   `.collect`;
//! * `.clone(` — a syntactic heuristic: without types we cannot prove
//!   the receiver is non-`Copy`, but the workspace style uses implicit
//!   copies for `Copy` data, so an explicit `.clone()` on the hot path
//!   is either an allocation or noise worth removing;
//! * slow structures: `BTreeMap`/`BTreeSet` mentions, `.entry(`, and
//!   `.insert(` (tree rebalance or element shift on every access);
//! * `.push(` in a function whose body never calls `with_capacity`
//!   (growth reallocation debt).
//!
//! Sites aggregate to `(file, function, kind) → count` rows pinned in
//! `crates/analysis/hotpath_baseline.txt` and compared by the shared
//! [`ratchet`](crate::ratchet): a new site or a grown count fails the
//! gate, and a shrunken count or stale row demands a smaller re-pin
//! (`--write hotpath`, gated by `REPIN=hotpath scripts/check.sh`).
//!
//! The lint is inactive while no configured hot root resolves (seed
//! trees, minimized test workspaces).

use std::collections::BTreeMap;

use crate::callgraph::{self, HotRoot};
use crate::ratchet::{crate_of, Ratchet, Sites};
use crate::{contains_word, Diagnostic, Workspace};

/// The hot-path baseline's ratchet.
pub const RATCHET: Ratchet = Ratchet {
    lint: "hot-path-hygiene",
    repin: "hotpath",
    path: "crates/analysis/hotpath_baseline.txt",
    about: "allocation and slow-structure sites\n\
            # reachable from the configured hot roots (src/callgraph.rs HOT_ROOTS).\n",
    noun: "hot-path site",
    fix: "remove the allocation",
};

const NEEDLES: &[(&str, &str)] = &[
    ("Vec::new(", "vec-new"),
    ("vec!", "vec-macro"),
    ("Box::new(", "box-new"),
    ("format!", "format"),
    ("String::new(", "string-new"),
    (".to_string(", "to-string"),
    (".to_owned(", "to-owned"),
    (".to_vec(", "to-vec"),
    (".collect", "collect"),
    (".clone(", "clone"),
    (".entry(", "map-entry"),
    (".insert(", "insert"),
];
const BTREE_WORDS: &[&str] = &["BTreeMap", "BTreeSet"];
const PUSH_NEEDLE: &str = ".push(";
const RESERVE_NEEDLE: &str = "with_capacity";

/// One hot function: `(file, qualified name, declaration line)`.
pub type HotFn = (String, String, usize);

/// The result of scanning the hot set for allocation debt.
#[derive(Debug, Default)]
pub struct HotScan {
    /// Flagged sites: key → 1-based lines (one entry per occurrence,
    /// sorted; the row count is the vector's length).
    pub sites: Sites,
    /// Every function in the hot set, sorted by (file, name, line).
    pub hot_fns: Vec<HotFn>,
    /// Configured roots that did not resolve to any parsed function.
    pub missing_roots: Vec<&'static HotRoot>,
    /// False when *no* root resolved (the lint stays inactive).
    pub active: bool,
}

/// Builds the call graph, resolves the hot roots, and scans every hot
/// function for allocation/slow-structure sites.
pub fn scan(ws: &Workspace) -> HotScan {
    let graph = callgraph::build(ws);
    let (roots, missing_roots) = callgraph::resolve_roots(&graph);
    let active = !roots.is_empty();
    let mut out = HotScan {
        missing_roots,
        active,
        ..HotScan::default()
    };
    if !active {
        return out;
    }
    for idx in graph.reachable(&roots) {
        let node = &graph.nodes[idx];
        out.hot_fns
            .push((node.file.clone(), node.qual_name(), node.line));
        let reserves = node.body.iter().any(|(_, c)| c.contains(RESERVE_NEEDLE));
        for (line, code) in &node.body {
            let mut record = |kind: &str, occurrences: usize| {
                let key = (node.file.clone(), node.qual_name(), kind.to_string());
                out.sites
                    .entry(key)
                    .or_default()
                    .extend(std::iter::repeat(*line).take(occurrences));
            };
            for (needle, kind) in NEEDLES {
                let n = code.matches(needle).count();
                if n > 0 {
                    record(kind, n);
                }
            }
            for word in BTREE_WORDS {
                if contains_word(code, word) {
                    record("btree", 1);
                }
            }
            let pushes = code.matches(PUSH_NEEDLE).count();
            if pushes > 0 && !reserves {
                record("push-unreserved", pushes);
            }
        }
    }
    out.hot_fns.sort();
    out
}

/// Renders the per-crate attribution report: hot-function and pinned
/// site counts per crate, then totals.
pub fn attribution(scan: &HotScan) -> String {
    let mut fns: BTreeMap<&str, usize> = BTreeMap::new();
    let mut sites: BTreeMap<&str, usize> = BTreeMap::new();
    for (file, _, _) in &scan.hot_fns {
        *fns.entry(crate_of(file)).or_default() += 1;
    }
    for ((file, _, _), lines) in &scan.sites {
        *sites.entry(crate_of(file)).or_default() += lines.len();
    }
    let mut out = String::from("hot-path attribution (per crate):\n");
    for (krate, n) in &fns {
        out.push_str(&format!(
            "  {krate}: {n} hot fns, {} flagged sites\n",
            sites.get(krate).copied().unwrap_or(0)
        ));
    }
    out.push_str(&format!(
        "  total: {} hot fns, {} flagged sites\n",
        scan.hot_fns.len(),
        scan.sites.values().map(Vec::len).sum::<usize>()
    ));
    out
}

/// Runs the hot-path-hygiene lint.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let scan = scan(ws);
    if !scan.active {
        return Vec::new();
    }
    // Only a root whose home file exists is drift; a fixture workspace
    // without that subsystem is simply smaller.
    let mut out: Vec<Diagnostic> = scan
        .missing_roots
        .iter()
        .filter(|root| ws.file(root.home_file).is_some())
        .map(|root| Diagnostic {
            file: root.home_file.to_string(),
            line: 0,
            lint: RATCHET.lint,
            message: format!(
                "hot root `{}::{}` not found — the HOT_ROOTS table in \
                 src/callgraph.rs must follow renames",
                root.self_ty, root.name
            ),
        })
        .collect();
    out.extend(RATCHET.check(ws.hotpath_baseline.as_deref(), &scan.sites));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    /// A minimal hot root whose body allocates twice and pushes without
    /// reserving.
    fn hot_src(extra: &str) -> String {
        format!(
            "impl VrHierarchy {{\n    fn access(&mut self) {{\n        let mut scratch = \
             Vec::new();\n        scratch.push(1);\n        {extra}\n    }}\n    fn \
             snoop(&mut self) {{}}\n}}\n"
        )
    }

    fn ws(src: String, baseline: Option<&str>) -> Workspace {
        Workspace {
            sources: vec![SourceFile::new("crates/core/src/vr.rs", src)],
            hotpath_baseline: baseline.map(str::to_string),
            ..Workspace::default()
        }
    }

    const CLEAN_BASELINE: &str = "# pinned\n\
        crates/core/src/vr.rs VrHierarchy::access push-unreserved 1\n\
        crates/core/src/vr.rs VrHierarchy::access vec-new 1\n";

    #[test]
    fn inactive_without_any_hot_root() {
        let ws = ws("fn plain() { let v = Vec::new(); }".to_string(), None);
        assert!(check(&ws).is_empty(), "no root, no lint");
    }

    #[test]
    fn missing_baseline_is_flagged_when_active() {
        let diags = check(&ws(hot_src(""), None));
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("missing hot-path baseline")),
            "{diags:?}"
        );
    }

    #[test]
    fn pinned_sites_are_clean_and_new_sites_fail() {
        let clean = check(&ws(hot_src(""), Some(CLEAN_BASELINE)));
        assert!(clean.is_empty(), "{clean:#?}");

        let diags = check(&ws(hot_src("let b = Box::new(2);"), Some(CLEAN_BASELINE)));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("new hot-path site `box-new`"));
        assert_eq!(diags[0].file, "crates/core/src/vr.rs");
    }

    #[test]
    fn count_growth_fails_and_equality_passes() {
        let grown = check(&ws(
            hot_src("let extra = Vec::new();"),
            Some(CLEAN_BASELINE),
        ));
        assert_eq!(grown.len(), 1, "{grown:#?}");
        assert!(grown[0].message.contains("grew 1 → 2"), "{grown:#?}");
    }

    #[test]
    fn improvement_demands_a_smaller_pin() {
        let over_pinned = "crates/core/src/vr.rs VrHierarchy::access push-unreserved 1\n\
                           crates/core/src/vr.rs VrHierarchy::access vec-new 2\n";
        let diags = check(&ws(hot_src(""), Some(over_pinned)));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("shrank 2 → 1"), "{diags:#?}");
        assert_eq!(diags[0].file, RATCHET.path);
    }

    #[test]
    fn stale_rows_and_malformed_rows_fail() {
        let stale = format!("{CLEAN_BASELINE}crates/core/src/vr.rs VrHierarchy::gone clone 3\n");
        let diags = check(&ws(hot_src(""), Some(&stale)));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("stale row"), "{diags:#?}");

        let malformed = format!("{CLEAN_BASELINE}not a valid row\n");
        let diags = check(&ws(hot_src(""), Some(&malformed)));
        assert!(diags[0].message.contains("malformed"), "{diags:#?}");
    }

    #[test]
    fn cold_functions_are_not_scanned() {
        let src = format!(
            "{}fn cold_helper() {{ let v = Vec::new(); v.len(); }}\n",
            hot_src("")
        );
        let diags = check(&ws(src, Some(CLEAN_BASELINE)));
        assert!(diags.is_empty(), "cold allocations are fine: {diags:#?}");
    }

    #[test]
    fn with_capacity_suppresses_push_flagging() {
        let src = "impl VrHierarchy {\n    fn access(&mut self) {\n        let mut v = \
                   Vec::with_capacity(8);\n        v.push(1);\n    }\n}\n";
        let scan = scan(&ws(src.to_string(), None));
        assert!(
            !scan.sites.keys().any(|(_, _, k)| k == "push-unreserved"),
            "{:?}",
            scan.sites
        );
        // with_capacity itself is not an allocation *kind* we ratchet.
        assert!(scan.sites.is_empty(), "{:?}", scan.sites);
    }

    #[test]
    fn moved_root_with_home_file_present_is_drift() {
        let src = "fn unrelated() {}\n".to_string();
        // Another file provides a different root so the lint is active.
        let ws = Workspace {
            sources: vec![
                SourceFile::new("crates/core/src/vr.rs", src),
                SourceFile::new(
                    "crates/trace/src/codec.rs",
                    "impl Iterator for Decoder<'_> {\n    fn next(&mut self) {}\n}\n",
                ),
            ],
            hotpath_baseline: Some("# empty\n".to_string()),
            ..Workspace::default()
        };
        let diags = check(&ws);
        let drift: Vec<_> = diags
            .iter()
            .filter(|d| d.message.contains("hot root"))
            .collect();
        assert_eq!(drift.len(), 2, "access and snoop both moved: {diags:#?}");
    }

    #[test]
    fn baseline_rendering_is_deterministic_and_sorted() {
        let scan1 = scan(&ws(hot_src("let c = x.clone();"), None));
        let scan2 = scan(&ws(hot_src("let c = x.clone();"), None));
        let b1 = RATCHET.render(&scan1.sites);
        assert_eq!(b1, RATCHET.render(&scan2.sites), "byte-identical");
        let rows: Vec<&str> = b1.lines().filter(|l| !l.starts_with('#')).collect();
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted, "rows are sorted");
        assert!(b1.contains("VrHierarchy::access clone 1"), "{b1}");
    }

    #[test]
    fn attribution_counts_per_crate() {
        let report = attribution(&scan(&ws(hot_src(""), None)));
        assert!(
            report.contains("core: 2 hot fns, 2 flagged sites"),
            "{report}"
        );
        assert!(
            report.contains("total: 2 hot fns, 2 flagged sites"),
            "{report}"
        );
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
