//! Panic-hygiene lint: no `unsafe` anywhere; no `.unwrap()` / `.expect(`
//! in the library code of `crates/core`, `crates/model`, `crates/cache`,
//! `crates/bus`, or `crates/exec`.
//!
//! The core crate implements the paper's algorithm; when one of its
//! internal invariants breaks, the simulator must report a structured
//! violation (`InvariantViolation`, `SimError::Invariant`) or take the
//! `let .. else { unreachable!(..) }` form that names the invariant —
//! not die inside a combinator chain. The model checker's library code is
//! held to the same bar: a counterexample must surface as a typed
//! `Violation`, never as a panic mid-search. The cache and bus crates
//! sit under core on every simulated access, so their library code is
//! strict too. Items gated by `#[cfg(test)]` (test modules and
//! test-only helpers alike, wherever they sit in the file) and `src/bin/`
//! entry points are exempt, as are the other crates, whose binaries and
//! experiment harnesses may legitimately fail fast.

use crate::walk::scan_source;
use crate::{contains_word, Diagnostic, Workspace};

const PANIC_NEEDLES: &[&str] = &[".unwrap()", ".expect("];

/// Crates whose library code (everything under `src/` except `src/bin/`)
/// must surface broken invariants as typed violations, not panics. The
/// exec substrate is strict because it is the one place a stray panic
/// would take down every batch driver at once — worker failures must
/// surface as typed `CellFailure`s.
const STRICT_CRATES: &[&str] = &[
    "crates/bus",
    "crates/cache",
    "crates/core",
    "crates/exec",
    "crates/model",
];

/// True when `rel_path` is library code of a strict crate.
fn strict_lib(rel_path: &str) -> bool {
    STRICT_CRATES.iter().any(|c| {
        rel_path.starts_with(&format!("{c}/src/"))
            && !rel_path.starts_with(&format!("{c}/src/bin/"))
    })
}

/// Runs the panic-hygiene lint.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.sources {
        let strict = strict_lib(&file.rel_path);
        for line in scan_source(&file.text) {
            let mut flag = |message: String| {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: line.line,
                    lint: "panic-hygiene",
                    message,
                })
            };
            if contains_word(&line.code, "unsafe") {
                flag(
                    "`unsafe` is forbidden across the workspace \
                     (every crate carries #![forbid(unsafe_code)])"
                        .into(),
                );
            }
            if strict && !line.in_test {
                for needle in PANIC_NEEDLES.iter().filter(|n| line.code.contains(*n)) {
                    flag(format!(
                        "`{needle}..` in strict-crate library code: surface a typed \
                         invariant violation or use `let .. else` with a \
                         named unreachable!()"
                    ));
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

    const UNWRAP_LINE: &str = "    let x = y.unwrap();\n";

    #[test]
    fn flags_unwrap_in_core_lib() {
        let diags = check(&ws("crates/core/src/vr.rs", UNWRAP_LINE));
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn other_crates_may_unwrap() {
        assert!(check(&ws("crates/sim/src/system.rs", UNWRAP_LINE)).is_empty());
    }

    #[test]
    fn core_test_modules_may_unwrap() {
        let text = format!("#[cfg(test)]\nmod tests {{\n{UNWRAP_LINE}\n}}\n");
        assert!(check(&ws("crates/core/src/vr.rs", &text)).is_empty());
    }

    #[test]
    fn library_code_after_a_gated_helper_is_still_strict() {
        // A test-only helper near the top of the file used to exempt
        // everything below it; only the gated item itself is exempt.
        let text = format!(
            "#[cfg(test)]\nfn corrupt_parts() {{\n{UNWRAP_LINE}}}\n\
             fn access() {{\n{UNWRAP_LINE}}}\n"
        );
        let diags = check(&ws("crates/core/src/vr.rs", &text));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn model_lib_is_strict_but_its_bin_is_not() {
        let diags = check(&ws("crates/model/src/world.rs", UNWRAP_LINE));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(check(&ws("crates/model/src/bin/main.rs", UNWRAP_LINE)).is_empty());
    }

    #[test]
    fn cache_bus_and_exec_libs_are_strict() {
        for path in [
            "crates/cache/src/array.rs",
            "crates/bus/src/txn.rs",
            "crates/exec/src/lib.rs",
        ] {
            let diags = check(&ws(path, UNWRAP_LINE));
            assert_eq!(diags.len(), 1, "{path}: {diags:?}");
        }
    }

    #[test]
    fn expect_flagged_in_core_lib() {
        let diags = check(&ws(
            "crates/core/src/rcache.rs",
            "let x = y.expect(\"msg\");\n",
        ));
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn unsafe_flagged_everywhere() {
        let diags = check(&ws("crates/trace/src/codec.rs", "unsafe fn f() {}\n"));
        assert_eq!(diags.len(), 1);
        // ... even in test modules.
        let text = "#[cfg(test)]\nmod tests { unsafe fn f() {} }\n";
        assert_eq!(check(&ws("crates/core/src/vr.rs", text)).len(), 1);
    }
}
