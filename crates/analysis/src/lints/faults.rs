//! Fault-site coverage lint: every [`FaultKind`] must be handled — or
//! explicitly declined — by every `FaultPort` implementation.
//!
//! The fault-injection campaign sweeps `FaultKind::ALL` over every
//! hierarchy organization, relying on each `inject_fault` to either
//! corrupt a live target or return `None` (not-applicable). Rust's
//! exhaustiveness checking keeps a `match` total, but a wildcard arm
//! (`_ => None`) would silently swallow a newly added kind: the
//! campaign would report it as not-applicable everywhere and the sweep
//! would quietly stop meaning anything. This lint cross-checks the
//! `FaultKind` enum in `crates/core/src/fault.rs` against the
//! `fn inject_fault` body of every `impl FaultPort for` site (as the
//! [`callgraph`](crate::callgraph) fn-item parser lifts it, so
//! comments, string literals and test modules never count):
//!
//! 1. **Unwired kind** — every enum variant must be textually mentioned
//!    as `FaultKind::Variant` inside each implementation, whether it is
//!    handled or declined with an explicit `=> None` arm.
//! 2. **Wildcard arm** — `_ =>` is forbidden inside `fn inject_fault`:
//!    a decline must name the kinds it declines.
//! 3. **Unknown kind** — a `FaultKind::Variant` mention with no matching
//!    enum variant (a rename that left a stale arm behind) is flagged.
//!
//! The same dead-knob argument applies to the protection axis: a
//! `DataProtection` variant that no campaign enumerates is a scheme
//! whose containment claims are never tested. Every variant of the
//! `DataProtection` enum in `crates/core/src/config.rs` must be
//! mentioned somewhere under `crates/inject/` (the campaign
//! enumeration), and every `DataProtection::Variant` mention there must
//! name a real variant.

use std::collections::BTreeSet;

use crate::callgraph::parse_nodes;
use crate::walk::{enum_variants, path_idents, scan_source};
use crate::{Diagnostic, Workspace};

/// Where the fault model (the `FaultKind` enum) lives.
pub const FAULT_PATH: &str = "crates/core/src/fault.rs";
/// Where the protection knob (the `DataProtection` enum) lives.
pub const CONFIG_PATH: &str = "crates/core/src/config.rs";
/// The crate whose sources must exercise every protection scheme.
const INJECT_PREFIX: &str = "crates/inject/";
const LINT: &str = "fault-coverage";

fn diag(file: &str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        lint: LINT,
        message,
    }
}

/// Every `<marker>Variant` path mentioned in the literal-blanked `code`
/// lines.
fn mentions<'a>(code: impl IntoIterator<Item = &'a str>, marker: &str) -> BTreeSet<String> {
    code.into_iter()
        .flat_map(|line| path_idents(line, marker))
        .collect()
}

/// True when the body `code` contains a wildcard match arm (`_ =>`).
fn has_wildcard_arm<'a>(mut code: impl Iterator<Item = &'a str>) -> bool {
    code.any(|line| {
        let trimmed = line.trim_start();
        trimmed.starts_with("_ =>") || trimmed.starts_with("_ | ") || line.contains(" | _ =>")
    })
}

/// Cross-checks the `DataProtection` enum against the campaign crate:
/// every protection scheme must be enumerated under `crates/inject/`
/// (a variant no campaign sweeps is a dead knob whose containment
/// claims are never tested), and no campaign source may name a scheme
/// the enum no longer has.
fn check_protection_exercise(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let Some(config) = ws.file(CONFIG_PATH) else {
        return;
    };
    let (variants, enum_line) = enum_variants(&config.text, "DataProtection");
    if variants.is_empty() {
        return;
    }
    let mut exercised = BTreeSet::new();
    for file in &ws.sources {
        if !file.rel_path.starts_with(INJECT_PREFIX) {
            continue;
        }
        let lines = scan_source(&file.text);
        for ident in mentions(lines.iter().map(|l| l.code.as_str()), "DataProtection::") {
            // Associated consts (`DataProtection::ALL`) are
            // SCREAMING_CASE; only CamelCase paths are variant mentions.
            if ident.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
                continue;
            }
            if !variants.contains(&ident) {
                out.push(diag(
                    &file.rel_path,
                    0,
                    format!(
                        "unknown protection scheme: `DataProtection::{ident}` is mentioned \
                         under {INJECT_PREFIX} but the enum has no such variant"
                    ),
                ));
            }
            exercised.insert(ident);
        }
    }
    for variant in variants.iter().filter(|v| !exercised.contains(*v)) {
        out.push(diag(
            CONFIG_PATH,
            enum_line,
            format!(
                "unexercised protection scheme: `DataProtection::{variant}` never appears \
                 under {INJECT_PREFIX} — every data-protection variant must be swept \
                 by a campaign's protection axis"
            ),
        ));
    }
}

/// Runs the fault-site coverage lint.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_protection_exercise(ws, &mut out);
    let kinds: BTreeSet<String> = ws
        .file(FAULT_PATH)
        .map(|f| enum_variants(&f.text, "FaultKind").0.into_iter().collect())
        .unwrap_or_default();
    if kinds.is_empty() {
        // No fault model in this tree (or the enum moved): nothing to
        // cross-check — but if the file exists and we failed to parse it,
        // that is itself a finding.
        if ws.file(FAULT_PATH).is_some() {
            out.push(diag(
                FAULT_PATH,
                0,
                "cannot parse the `FaultKind` enum; the fault-site coverage \
                 lint needs its variant list"
                    .into(),
            ));
        }
        return out;
    }

    let mut impl_count = 0;
    for file in &ws.sources {
        let sites = parse_nodes(&file.rel_path, &file.text)
            .into_iter()
            .filter(|n| n.trait_name.as_deref() == Some("FaultPort") && n.name == "inject_fault");
        for site in sites {
            impl_count += 1;
            let ty = site.self_ty.as_deref().unwrap_or_default();
            let code = || site.body.iter().map(|(_, c)| c.as_str());
            let mentioned = mentions(code(), "FaultKind::");
            for kind in kinds.difference(&mentioned) {
                out.push(diag(
                    &file.rel_path,
                    site.line,
                    format!(
                        "unwired fault kind: `FaultKind::{kind}` is never mentioned in \
                         {ty}'s `inject_fault` — handle it or decline it with an explicit \
                         `=> None` arm"
                    ),
                ));
            }
            for kind in mentioned.difference(&kinds) {
                out.push(diag(
                    &file.rel_path,
                    site.line,
                    format!(
                        "unknown fault kind: {ty}'s `inject_fault` mentions \
                         `FaultKind::{kind}` but the enum has no such variant"
                    ),
                ));
            }
            if has_wildcard_arm(code()) {
                out.push(diag(
                    &file.rel_path,
                    site.line,
                    format!(
                        "wildcard arm in {ty}'s `inject_fault`: declines must name the kinds \
                         they decline so a new `FaultKind` cannot be swallowed silently"
                    ),
                ));
            }
        }
    }

    if impl_count == 0 {
        out.push(diag(
            FAULT_PATH,
            0,
            "`FaultKind` exists but no `impl FaultPort for` site was found; \
             the fault model is dead code"
                .into(),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn fault_enum() -> SourceFile {
        SourceFile::new(
            FAULT_PATH,
            "pub enum FaultKind {\n    /// doc\n    VTagFlip,\n    TlbEntryFlip,\n    \
                 BusDropTxn,\n}\n",
        )
    }

    fn impl_with(body: &str) -> String {
        format!(
            "impl FaultPort for VrHierarchy {{\n    fn inject_fault(&mut self, kind: FaultKind, \
             seed: u64) -> Option<FaultRecord> {{\n        match kind {{\n{body}        }}\n    \
             }}\n}}\n"
        )
    }

    fn ws_with(body: &str) -> Workspace {
        Workspace {
            sources: vec![
                fault_enum(),
                SourceFile::new("crates/core/src/vr.rs", impl_with(body)),
            ],
            ..Workspace::default()
        }
    }

    #[test]
    fn complete_match_is_clean() {
        let ws = ws_with(
            "            FaultKind::VTagFlip => self.flip(seed),\n            \
             FaultKind::TlbEntryFlip => None,\n            \
             FaultKind::BusDropTxn => None,\n",
        );
        assert_eq!(check(&ws), vec![]);
    }

    #[test]
    fn missing_kind_is_unwired() {
        let ws = ws_with(
            "            FaultKind::VTagFlip => self.flip(seed),\n            \
             FaultKind::BusDropTxn => None,\n",
        );
        let diags = check(&ws);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("unwired fault kind")
                    && d.message.contains("TlbEntryFlip")
                    && d.file == "crates/core/src/vr.rs"),
            "{diags:?}"
        );
    }

    #[test]
    fn wildcard_arm_is_flagged() {
        let ws = ws_with(
            "            FaultKind::VTagFlip => self.flip(seed),\n            \
             FaultKind::TlbEntryFlip => None,\n            \
             FaultKind::BusDropTxn => None,\n            _ => None,\n",
        );
        let diags = check(&ws);
        assert!(
            diags.iter().any(|d| d.message.contains("wildcard arm")),
            "{diags:?}"
        );
    }

    #[test]
    fn stale_variant_mention_is_unknown() {
        let ws = ws_with(
            "            FaultKind::VTagFlip => self.flip(seed),\n            \
             FaultKind::TlbEntryFlip => None,\n            \
             FaultKind::BusDropTxn => None,\n            \
             FaultKind::Retired => None,\n",
        );
        let diags = check(&ws);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("unknown fault kind") && d.message.contains("Retired")),
            "{diags:?}"
        );
    }

    #[test]
    fn enum_without_impls_is_dead_code() {
        let ws = Workspace {
            sources: vec![fault_enum()],
            ..Workspace::default()
        };
        let diags = check(&ws);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no `impl FaultPort for`"));
    }

    #[test]
    fn absent_fault_model_is_silent() {
        assert_eq!(check(&Workspace::default()), vec![]);
    }

    #[test]
    fn comments_do_not_count_as_mentions() {
        let ws = ws_with(
            "            FaultKind::VTagFlip => self.flip(seed), // not FaultKind::Retired\n            \
             FaultKind::TlbEntryFlip => None,\n            \
             FaultKind::BusDropTxn => None,\n",
        );
        assert_eq!(check(&ws), vec![]);
    }

    fn protection_enum() -> SourceFile {
        SourceFile::new(
            CONFIG_PATH,
            "pub enum DataProtection {\n    /// doc\n    None,\n    Parity,\n    Secded,\n}\n",
        )
    }

    #[test]
    fn exercised_protection_axis_is_clean() {
        let ws = Workspace {
            sources: vec![
                protection_enum(),
                SourceFile::new(
                    "crates/inject/src/campaign.rs",
                    "fn axis() {\n    let _ = (DataProtection::None, DataProtection::Parity, \
                         DataProtection::Secded);\n}\n",
                ),
            ],
            ..Workspace::default()
        };
        assert_eq!(check(&ws), vec![]);
    }

    #[test]
    fn unswept_protection_variant_is_flagged() {
        let ws = Workspace {
            sources: vec![
                protection_enum(),
                SourceFile::new(
                    "crates/inject/src/campaign.rs",
                    "fn axis() {\n    let _ = (DataProtection::None, DataProtection::Parity);\n}\n",
                ),
            ],
            ..Workspace::default()
        };
        let diags = check(&ws);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("unexercised protection scheme")
                    && d.message.contains("Secded")
                    && d.file == CONFIG_PATH),
            "{diags:?}"
        );
    }

    #[test]
    fn mentions_outside_the_inject_crate_do_not_count() {
        let ws = Workspace {
            sources: vec![
                protection_enum(),
                SourceFile::new(
                    "crates/core/src/vr.rs",
                    "fn scrub() {\n    let _ = DataProtection::Secded;\n}\n",
                ),
                SourceFile::new(
                    "crates/inject/src/campaign.rs",
                    "fn axis() {\n    let _ = (DataProtection::None, DataProtection::Parity);\n}\n",
                ),
            ],
            ..Workspace::default()
        };
        let diags = check(&ws);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("unexercised") && d.message.contains("Secded")),
            "{diags:?}"
        );
    }

    #[test]
    fn stale_protection_mention_is_unknown() {
        let ws = Workspace {
            sources: vec![
                protection_enum(),
                SourceFile::new(
                    "crates/inject/src/campaign.rs",
                    "fn axis() {\n    let _ = DataProtection::ALL;\n    let _ = \
                         (DataProtection::None, DataProtection::Parity, DataProtection::Secded, \
                         DataProtection::Chipkill);\n}\n",
                ),
            ],
            ..Workspace::default()
        };
        let diags = check(&ws);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("unknown protection scheme")
                    && d.message.contains("Chipkill")),
            "{diags:?}"
        );
        assert!(
            !diags.iter().any(|d| d.message.contains("ALL")),
            "associated consts are not variant mentions: {diags:?}"
        );
    }

    #[test]
    fn real_workspace_is_clean() {
        use crate::walk;
        use std::path::Path;
        let root = walk::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let ws = walk::load(&root).expect("load");
        assert!(
            ws.file(FAULT_PATH).is_some(),
            "the fault model must be tracked"
        );
        assert_eq!(check(&ws), vec![]);
    }
}
