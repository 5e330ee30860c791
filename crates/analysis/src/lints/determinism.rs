//! Determinism lint: simulation output must be a pure function of the
//! seed.
//!
//! Two rules:
//!
//! 1. Wall-clock and entropy sources are forbidden in every workspace
//!    source: `Instant::now`, `SystemTime`, `thread_rng`, `from_entropy`.
//!    (The criterion shim in `vendor/` is the sanctioned home for timing;
//!    the walker never descends into `vendor/`.)
//! 2. Hash-ordered collections are forbidden in statistics / report /
//!    analysis code, where iteration order leaks into rendered tables:
//!    use `BTreeMap` / `BTreeSet` or a sorted `Vec` there.

use crate::walk::scan_source;
use crate::{Diagnostic, Workspace};

const GLOBAL_NEEDLES: &[(&str, &str)] = &[
    (
        "Instant::now",
        "wall-clock reads make runs irreproducible; timing belongs to the vendored bench harness only",
    ),
    (
        "SystemTime",
        "wall-clock reads make runs irreproducible",
    ),
    (
        "thread_rng",
        "OS-entropy RNG breaks seeded reproducibility; use a seeded StdRng",
    ),
    (
        "from_entropy",
        "OS-entropy seeding breaks reproducibility; use seed_from_u64",
    ),
];

const HASH_NEEDLES: &[(&str, &str)] = &[
    (
        "HashMap",
        "hash iteration order is nondeterministic in stats/report code; use BTreeMap or a sorted Vec",
    ),
    (
        "HashSet",
        "hash iteration order is nondeterministic in stats/report code; use BTreeSet or a sorted Vec",
    ),
];

/// Path fragments that mark a file as statistics/report code. The model
/// checker is included wholesale: its state canonicalization, coverage
/// table, and scope reports are all rendered or compared, so any
/// hash-ordered iteration there breaks run-to-run stability. The exec
/// substrate is included too: every batch report in the workspace is
/// reduced through it, so hash-ordered iteration there would leak into
/// all of them.
const STATS_PATHS: &[&str] = &[
    "/stats.rs",
    "/report.rs",
    "/experiments/",
    "/src/analysis/",
    "crates/model/src/",
    "crates/exec/src/",
];

/// True when `rel_path` is in the stats/report set where hash-ordered
/// iteration is forbidden.
pub fn is_stats_path(rel_path: &str) -> bool {
    STATS_PATHS.iter().any(|p| rel_path.contains(p))
}

/// Runs the determinism lint over every source in `ws`, test code
/// included.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.sources {
        let hash: &[_] = if is_stats_path(&file.rel_path) {
            HASH_NEEDLES
        } else {
            &[]
        };
        for line in scan_source(&file.text) {
            for (needle, why) in GLOBAL_NEEDLES.iter().chain(hash) {
                if line.code.contains(needle) {
                    out.push(Diagnostic {
                        file: file.rel_path.clone(),
                        line: line.line,
                        lint: "determinism",
                        message: format!("`{needle}`: {why}"),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn ws(path: &str, text: &str) -> Workspace {
        Workspace {
            sources: vec![SourceFile::new(path, text)],
            ..Workspace::default()
        }
    }

    #[test]
    fn flags_wall_clock_and_entropy_everywhere() {
        let text = "fn t() {\n    let a = Instant::now();\n    let r = rand::thread_rng();\n}\n";
        let diags = check(&ws("crates/core/src/vr.rs", text));
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[1].line, 3);
    }

    #[test]
    fn comments_do_not_trip() {
        let text = "// mention of SystemTime in prose\n";
        assert!(check(&ws("crates/core/src/vr.rs", text)).is_empty());
    }

    #[test]
    fn hash_collections_flagged_only_in_stats_paths() {
        let text = "use std::collections::HashMap;\n";
        assert!(check(&ws("crates/core/src/vr.rs", text)).is_empty());
        let diags = check(&ws("crates/sim/src/experiments/mod.rs", text));
        assert_eq!(diags.len(), 1);
        let diags = check(&ws("crates/cache/src/stats.rs", text));
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn stats_path_predicate() {
        assert!(is_stats_path("crates/trace/src/analysis/calls.rs"));
        assert!(is_stats_path("crates/sim/src/report.rs"));
        assert!(
            is_stats_path("crates/model/src/world.rs"),
            "the model checker's canonical state encoding must stay ordered"
        );
        assert!(is_stats_path("crates/model/src/bin/main.rs"));
        assert!(
            is_stats_path("crates/exec/src/lib.rs"),
            "every batch report reduces through the exec substrate"
        );
        assert!(
            !is_stats_path("crates/analysis/src/lib.rs"),
            "this crate is not trace analysis"
        );
        assert!(!is_stats_path("crates/core/src/vr.rs"));
    }
}
