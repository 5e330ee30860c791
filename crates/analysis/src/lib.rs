//! Static analysis for the vrcache workspace.
//!
//! Nine lints, run by `cargo run -p vrcache-analysis --bin lint`
//! (`--list` names them, `--only <lint>` runs one in isolation). Every
//! lint that reads Rust source reads it through one front end: the
//! literal-blanked, test-marked lines of [`walk::scan_source`], or the
//! function bodies the fn-item parser [`callgraph::parse_nodes`] lifts
//! from them. A needle inside a string literal or a comment is
//! invisible to all of them.
//!
//! * **determinism** — simulation results must be a pure function of the
//!   seed. Wall-clock and entropy sources are forbidden everywhere, and
//!   hash-ordered collections are forbidden in statistics/report code,
//!   where iteration order leaks into rendered output.
//! * **address-hygiene** — `as u64` / `as usize` casts may not appear on
//!   lines handling the address newtypes (`VirtAddr`, `PhysAddr`, `Vpn`,
//!   `Ppn`) outside `crates/mem`, which owns the raw representation.
//! * **doc-drift** — DESIGN.md's experiment index must agree with the
//!   experiment modules and the `repro` binary's subcommands.
//! * **panic-hygiene** — `unsafe` is forbidden everywhere; `.unwrap()` /
//!   `.expect(` are forbidden in the library code of the strict crates
//!   (`#[cfg(test)]` items excepted), where broken invariants must
//!   surface as typed violations, not ad-hoc panics.
//! * **fault-coverage** — every `FaultKind` variant must be handled, or
//!   declined with an explicit `=> None` arm, by every `impl FaultPort`
//!   site's `inject_fault`; wildcard arms are forbidden there, so a new
//!   fault kind cannot be silently reported as not-applicable everywhere.
//! * **mutation-baseline** — the surviving-mutant allowlist
//!   (`crates/mutate/baseline.txt`) must stay in lockstep with the
//!   mutants `vrcache-mutate` derives from today's sources: every entry
//!   must name a real mutant with a justification, and a mutation run's
//!   report (`target/mutation-report.txt`) may contain no survivor the
//!   baseline doesn't allowlist and no allowlisted mutant that was in
//!   fact killed.
//! * **injection-baseline** — the pinned silent-data-corruption routes
//!   (`crates/inject/baseline.txt`) must each carry a justification and
//!   be parity-off; a fault-injection campaign's report
//!   (`target/injection-report.txt`) may contain no `sdc` row the
//!   baseline doesn't pin, and no parity-on `sdc` row at all.
//! * **protocol-spec** — the coherence transition surface the [`flow`]
//!   scanner extracts from the `snoop` handlers (state-before × bus-op →
//!   state-after, reply, actions; see the [`protocol`] module) must
//!   match the pinned `crates/analysis/protocol_spec.txt` byte for byte,
//!   agree bidirectionally with the model checker's exercised
//!   transitions in `crates/model/coverage.txt` (every exercised
//!   transition has a spec row, every spec row is exercised or
//!   allowlisted, every coherence state is reached as a snoop context,
//!   every coverage row parses), and leave no undocumented hole in the
//!   state×op matrix (dead combinations are allowlisted with a reason).
//!   Re-pin with `--write protocol` after a clean tier-1 run; `--report
//!   protocol` prints the tables.
//! * **address-domain** — the interprocedural dataflow analysis in the
//!   [`domain`] module assigns every parameter, return value, and local
//!   binding in the simulator crates an abstract address domain seeded
//!   from the `vrcache_mem::addr` newtypes and propagated across call
//!   edges to a fixpoint. Flows where one domain's value reaches
//!   another domain's constructor, field, or parameter position outside
//!   the sanctioned translation seams — and raw integers inferred to
//!   carry both virtual- and physical-family values — fail the gate,
//!   one diagnostic per `(file, function, kind)` site. There is no
//!   baseline: the reviewed [`domain::SANCTIONED`] seams are the only
//!   allowlist. `--report domain` prints flagged sites and inferred
//!   parameter domains.
//!
//! Every lint is a pure function over an in-memory [`Workspace`], so the
//! crate's tests seed violations directly without touching the
//! filesystem. All collections used here are ordered (`BTreeMap`/sorted
//! `Vec`), so diagnostic output is deterministic — this crate holds
//! itself to the rules it enforces.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod domain;
pub mod flow;
pub mod lints;
pub mod protocol;
pub mod walk;

use std::fmt;

/// One workspace source file, path relative to the workspace root.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Full file contents.
    pub text: String,
}

impl SourceFile {
    /// Convenience constructor (used heavily by tests).
    pub fn new(rel_path: impl Into<String>, text: impl Into<String>) -> Self {
        SourceFile {
            rel_path: rel_path.into(),
            text: text.into(),
        }
    }
}

/// The linted tree: every tracked `.rs` file plus the documents the
/// doc-drift lint cross-checks.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All Rust sources (excluding `vendor/` and `target/`).
    pub sources: Vec<SourceFile>,
    /// Contents of `DESIGN.md`, if present.
    pub design_md: Option<String>,
    /// Contents of `crates/model/coverage.txt` (the transition table the
    /// model checker exercised), if present.
    pub model_coverage: Option<String>,
    /// Contents of `crates/mutate/baseline.txt` (the surviving-mutant
    /// allowlist), if present.
    pub mutation_baseline: Option<String>,
    /// Contents of `target/mutation-report.txt` (the latest mutation
    /// run), if present.
    pub mutation_report: Option<String>,
    /// Contents of `crates/inject/baseline.txt` (the pinned parity-off
    /// silent-data-corruption routes), if present.
    pub injection_baseline: Option<String>,
    /// Contents of `target/injection-report.txt` (the latest
    /// fault-injection campaign), if present.
    pub injection_report: Option<String>,
    /// Contents of `crates/analysis/protocol_spec.txt` (the pinned
    /// coherence transition surface), if present.
    pub protocol_spec: Option<String>,
}

impl Workspace {
    /// Looks up a source file by exact relative path.
    pub fn file(&self, rel_path: &str) -> Option<&SourceFile> {
        self.sources.iter().find(|f| f.rel_path == rel_path)
    }

    /// True if any tracked file lives at `rel_path` or below it.
    pub fn has_path_prefix(&self, prefix: &str) -> bool {
        self.sources
            .iter()
            .any(|f| f.rel_path == prefix || f.rel_path.starts_with(&format!("{prefix}/")))
    }
}

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// File the finding is in, relative to the workspace root.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Short stable lint identifier, e.g. `determinism`.
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A lint pass: a pure function from workspace to findings.
pub type LintFn = fn(&Workspace) -> Vec<Diagnostic>;

/// Name → pass table for all nine lints, in execution order. The names
/// are the stable identifiers the binary's `--only` / `--list` flags
/// accept and the `Diagnostic::lint` field carries.
pub const LINTS: &[(&str, LintFn)] = &[
    ("determinism", lints::determinism::check),
    ("address-hygiene", lints::address::check),
    ("panic-hygiene", lints::panic_hygiene::check),
    ("doc-drift", lints::doc_drift::check),
    ("fault-coverage", lints::faults::check),
    ("mutation-baseline", lints::mutation::check),
    ("injection-baseline", lints::injection::check),
    ("protocol-spec", lints::protocol::check),
    ("address-domain", lints::domain::check),
];

/// Runs every lint over the workspace, returning findings sorted by file
/// and line.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (_, check) in LINTS {
        diags.extend(check(ws));
    }
    diags.sort();
    diags
}

/// Runs the single lint named `name`, or `None` if no lint has that
/// name. Findings are sorted like [`run_all`]'s.
pub fn run_named(ws: &Workspace, name: &str) -> Option<Vec<Diagnostic>> {
    let (_, check) = LINTS.iter().find(|(n, _)| *n == name)?;
    let mut diags = check(ws);
    diags.sort();
    Some(diags)
}

/// The position of the first occurrence of `word` in `haystack` that is
/// delimited by non-identifier characters — `unsafe` must not match
/// inside `unsafe_code`, nor `Vpn` inside `VpnLike`.
pub fn find_word(haystack: &str, word: &str) -> Option<usize> {
    let bytes = haystack.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    haystack.match_indices(word).map(|(at, _)| at).find(|&at| {
        let end = at + word.len();
        (at == 0 || !is_ident(bytes[at - 1])) && (end >= bytes.len() || !is_ident(bytes[end]))
    })
}

/// True when `word` occurs in `haystack` as a whole word (see
/// [`find_word`]).
pub fn contains_word(haystack: &str, word: &str) -> bool {
    find_word(haystack, word).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundaries() {
        assert!(contains_word("let p: Ppn = q;", "Ppn"));
        assert!(!contains_word("let p: PpnLike = q;", "Ppn"));
        assert!(!contains_word("let p = my_ppn;", "Ppn"));
        assert!(!contains_word("#![forbid(unsafe_code)]", "unsafe"));
        assert!(contains_word("unsafe fn f()", "unsafe"));
    }

    /// The three needle lints, each run alone over one source file of a
    /// strict, stats-path crate (so every needle they own is live there).
    fn line_lint_findings(text: &str) -> Vec<(&'static str, usize)> {
        let ws = Workspace {
            sources: vec![SourceFile::new("crates/model/src/report.rs", text)],
            ..Workspace::default()
        };
        ["determinism", "address-hygiene", "panic-hygiene"]
            .iter()
            .flat_map(|name| run_named(&ws, name).expect("registered lint"))
            .map(|d| (d.lint, d.line))
            .collect()
    }

    #[test]
    fn needles_in_literals_and_comments_are_invisible_to_line_lints() {
        let hidden = "fn f() {\n    \
            let a = \"Instant::now() HashMap VirtAddr::new(x as u64) y.unwrap() unsafe\";\n    \
            let b = r#\"Instant::now() HashMap VirtAddr::new(x as u64) y.unwrap() unsafe\"#;\n    \
            /* Instant::now() HashMap\n       VirtAddr::new(x as u64) y.unwrap() unsafe */\n}\n";
        assert_eq!(line_lint_findings(hidden), []);
    }

    #[test]
    fn needles_in_code_after_a_gated_item_are_visible() {
        let visible = "#[cfg(test)]\nfn helper() {}\nfn g() {\n    \
            let t = Instant::now();\n    let m: HashMap<u8, u8>;\n    \
            let v = VirtAddr::new(x as u64);\n    let y = z.unwrap();\n    unsafe {}\n}\n";
        let found = line_lint_findings(visible);
        assert_eq!(
            found,
            [
                ("determinism", 4),
                ("determinism", 5),
                ("address-hygiene", 6),
                ("panic-hygiene", 7),
                ("panic-hygiene", 8)
            ]
        );
    }

    #[test]
    fn diagnostics_render_clickable() {
        let d = Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            lint: "determinism",
            message: "boom".into(),
        };
        assert_eq!(d.to_string(), "crates/x/src/lib.rs:7: [determinism] boom");
    }
}
