//! Protocol-spec lint: the coherence transition surface extracted from
//! the `snoop` handlers must match the pinned
//! `crates/analysis/protocol_spec.txt`, agree with the model checker's
//! exercised transitions, and leave no undocumented hole in the
//! state×op matrix.
//!
//! Three failure classes:
//!
//! 1. **Drift** — the extracted table (see [`protocol`](crate::protocol))
//!    differs from the pinned spec: a new row, a stale row, or a row
//!    whose transition changed. Any edit to the snoop logic shows up
//!    here and demands a deliberate re-pin.
//! 2. **Coverage inconsistency** — bidirectional cross-check against
//!    `crates/model/coverage.txt`: every transition the model checker
//!    exercised must have a spec row, and every specified transition
//!    must be exercised by some scope (or be allowlisted with a reason).
//! 3. **Matrix holes** — a `(state, op)` combination with no spec row is
//!    a rejected path; rejection is fine only when documented in
//!    [`DEAD_BY_DESIGN`] with a reason.
//!
//! Re-pinning goes through `--write-protocol-spec`, which
//! `scripts/check.sh` gates behind a clean tier-1 run
//! (`REPIN=protocol`); `--protocol-report` prints the tables
//! read-only.

use std::collections::{BTreeMap, BTreeSet};

use crate::protocol::{self, ProtocolSurface};
use crate::{Diagnostic, Workspace};

const LINT: &str = "protocol-spec";
const SPEC_PATH: &str = "crates/analysis/protocol_spec.txt";
const REPIN: &str =
    "re-pin with `cargo run -p vrcache-analysis --bin lint -- --write-protocol-spec` \
     after a clean tier-1 run (`REPIN=protocol scripts/check.sh`)";

/// `(hierarchy, op)` pairs the snoop rejects in *every* coherence state,
/// with the design reason. An undocumented dead op fails the gate.
const DEAD_BY_DESIGN: &[(&str, &str, &str)] = &[
    (
        "goodman",
        "update",
        "Goodman is an invalidation-only protocol; update is a V-R-only \
         configuration and the arm exists purely to reject it loudly",
    ),
    (
        "rr",
        "update",
        "the R-R baseline runs write-invalidate only; update is a V-R-only \
         configuration and the arm exists purely to reject it loudly",
    ),
];

/// Specified transitions no model scope exercises, with the design
/// reason. Single-writer exclusion makes these combinations impossible
/// to drive from a peer cache: a block private (or dirty) in one cache
/// has no copy elsewhere, so no second cache can originate the op.
const UNEXERCISED_BY_DESIGN: &[(&str, &str, &str, &str)] = &[
    (
        "vr",
        "private",
        "invalidate",
        "invalidate is issued by a sharer upgrading to write; a line \
         private here has no other copy, so no peer can issue it",
    ),
    (
        "vr",
        "private",
        "update",
        "update is broadcast by a writer with sharers; a line private \
         here has no other copy, so no peer can broadcast it",
    ),
    (
        "vr",
        "private",
        "write-back",
        "a write-back implies the line was dirty in the issuer; \
         single-writer means no second cache holds it private",
    ),
    (
        "goodman",
        "private",
        "invalidate",
        "invalidate is issued by a sharer upgrading to write; a granule \
         private here has no other copy, so no peer can issue it",
    ),
    (
        "goodman",
        "shared",
        "write-back",
        "a write-back implies the granule was dirty in the issuer; the \
         scopes never leave a stale shared copy behind a dirty peer",
    ),
    (
        "goodman",
        "private",
        "write-back",
        "a write-back implies the granule was dirty in the issuer; \
         single-writer means no second cache holds it private",
    ),
];

/// Parses the pinned spec into key (first three fields) → full row.
fn parse_spec(
    text: &str,
) -> (
    BTreeMap<(String, String, String), (usize, String)>,
    Vec<Diagnostic>,
) {
    let mut rows = BTreeMap::new();
    let mut diags = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 6 || fields[3] != "->" {
            diags.push(Diagnostic {
                file: SPEC_PATH.to_string(),
                line: idx + 1,
                lint: LINT,
                message: format!(
                    "malformed row `{line}` (want `<hierarchy> <state> <op> -> \
                     <state-after> <reply> <actions>`)"
                ),
            });
            continue;
        }
        let key = (
            fields[0].to_string(),
            fields[1].to_string(),
            fields[2].to_string(),
        );
        if rows
            .insert(key.clone(), (idx + 1, line.to_string()))
            .is_some()
        {
            diags.push(Diagnostic {
                file: SPEC_PATH.to_string(),
                line: idx + 1,
                lint: LINT,
                message: format!("duplicate row for `{} {} {}`", key.0, key.1, key.2),
            });
        }
    }
    (rows, diags)
}

/// The extracted row set keyed like the pinned file.
fn extracted_rows(surface: &ProtocolSurface) -> BTreeMap<(String, String, String), String> {
    let mut out = BTreeMap::new();
    for row in &surface.rows {
        let fields: Vec<&str> = row.split_whitespace().collect();
        if fields.len() >= 3 {
            out.insert(
                (
                    fields[0].to_string(),
                    fields[1].to_string(),
                    fields[2].to_string(),
                ),
                row.clone(),
            );
        }
    }
    out
}

/// Runs the protocol-spec lint.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let surface = protocol::extract(ws);
    let mut out = Vec::new();
    for hier in &surface.missing_snoop {
        let home = protocol::HIERARCHIES
            .iter()
            .find(|h| h.label == hier.as_str())
            .map(|h| h.home_file)
            .unwrap_or(SPEC_PATH);
        out.push(Diagnostic {
            file: home.to_string(),
            line: 0,
            lint: LINT,
            message: format!(
                "no `fn snoop` found for the {hier} hierarchy — the extractor \
                 cannot lift its transition surface"
            ),
        });
    }
    if surface.hiers.is_empty() {
        // Seed trees and minimized fixtures without any hierarchy: the
        // lint stays inactive.
        return out;
    }

    // 1. Drift against the pinned spec.
    let Some(spec_text) = &ws.protocol_spec else {
        out.push(Diagnostic {
            file: SPEC_PATH.to_string(),
            line: 0,
            lint: LINT,
            message: format!("missing protocol spec — {REPIN}"),
        });
        return out;
    };
    let (pinned, issues) = parse_spec(spec_text);
    out.extend(issues);
    let extracted = extracted_rows(&surface);
    for (key, row) in &extracted {
        match pinned.get(key) {
            None => out.push(Diagnostic {
                file: SPEC_PATH.to_string(),
                line: 0,
                lint: LINT,
                message: format!(
                    "extracted transition `{row}` has no pinned row — the snoop \
                     logic changed; review the transition and {REPIN}"
                ),
            }),
            Some((line, pinned_row)) if pinned_row != row => out.push(Diagnostic {
                file: SPEC_PATH.to_string(),
                line: *line,
                lint: LINT,
                message: format!(
                    "transition drift: pinned `{pinned_row}` but the snoop logic \
                     now yields `{row}` — review the change and {REPIN}"
                ),
            }),
            Some(_) => {}
        }
    }
    for (key, (line, row)) in &pinned {
        if !extracted.contains_key(key) {
            out.push(Diagnostic {
                file: SPEC_PATH.to_string(),
                line: *line,
                lint: LINT,
                message: format!(
                    "stale row `{row}` — the snoop logic no longer yields this \
                     transition; {REPIN}"
                ),
            });
        }
    }

    // 2. Matrix holes: every dead (state, op) combination must trace to
    //    a documented dead op.
    for (hier, state, op) in &surface.dead_states {
        let allowed = DEAD_BY_DESIGN.iter().any(|(h, o, _)| h == hier && o == op);
        if !allowed {
            out.push(Diagnostic {
                file: SPEC_PATH.to_string(),
                line: 0,
                lint: LINT,
                message: format!(
                    "undocumented hole: the {hier} snoop rejects `{op}` in state \
                     `{state}` but (`{hier}`, `{op}`) is not allowlisted as dead \
                     by design"
                ),
            });
        }
    }
    for (hier, op, _) in DEAD_BY_DESIGN {
        if surface.hiers.contains(*hier)
            && !surface.dead.contains(&(hier.to_string(), op.to_string()))
        {
            out.push(Diagnostic {
                file: SPEC_PATH.to_string(),
                line: 0,
                lint: LINT,
                message: format!(
                    "stale dead-by-design entry (`{hier}`, `{op}`): the snoop now \
                     handles this op in some state — drop the allowlist entry"
                ),
            });
        }
    }

    // 3. Bidirectional coverage cross-check.
    let Some(coverage) = &ws.model_coverage else {
        return out;
    };
    let mut exercised_snoops: BTreeSet<(String, String, String)> = BTreeSet::new();
    let mut exercised_issues: BTreeSet<(String, String)> = BTreeSet::new();
    for (idx, raw) in coverage.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [hier, context, op] = fields[..] else {
            // Malformed rows are the transition-coverage lint's finding.
            continue;
        };
        if !surface.hiers.contains(hier) {
            continue;
        }
        if context == "issue" {
            exercised_issues.insert((hier.to_string(), op.to_string()));
            if !surface
                .issue_keys
                .contains(&(hier.to_string(), op.to_string()))
            {
                out.push(Diagnostic {
                    file: crate::lints::transitions::COVERAGE_PATH.to_string(),
                    line: idx + 1,
                    lint: LINT,
                    message: format!(
                        "the model checker observed the {hier} hierarchy issuing \
                         `{op}` but the extractor finds no originating \
                         `BusRequest::` site — no spec row backs this transition"
                    ),
                });
            }
        } else {
            exercised_snoops.insert((hier.to_string(), context.to_string(), op.to_string()));
            if !surface.snoop_keys.contains(&(
                hier.to_string(),
                context.to_string(),
                op.to_string(),
            )) {
                out.push(Diagnostic {
                    file: crate::lints::transitions::COVERAGE_PATH.to_string(),
                    line: idx + 1,
                    lint: LINT,
                    message: format!(
                        "exercised transition `{hier} {context} {op}` has no spec \
                         row — the snoop rejects a combination the model checker \
                         actually drove"
                    ),
                });
            }
        }
    }
    let covered_hiers: BTreeSet<&str> = exercised_snoops
        .iter()
        .map(|(h, _, _)| h.as_str())
        .chain(exercised_issues.iter().map(|(h, _)| h.as_str()))
        .collect();
    for (hier, state, op) in &surface.snoop_keys {
        if !covered_hiers.contains(hier.as_str()) {
            continue;
        }
        if exercised_snoops.contains(&(hier.clone(), state.clone(), op.clone())) {
            continue;
        }
        let allowed = UNEXERCISED_BY_DESIGN
            .iter()
            .any(|(h, s, o, _)| h == hier && s == state && o == op);
        if !allowed {
            out.push(Diagnostic {
                file: crate::lints::transitions::COVERAGE_PATH.to_string(),
                line: 0,
                lint: LINT,
                message: format!(
                    "specified transition `{hier} {state} {op}` is never exercised \
                     by a model scope — extend a scope or allowlist it with a reason"
                ),
            });
        }
    }
    for (hier, op) in &surface.issue_keys {
        if !covered_hiers.contains(hier.as_str()) {
            continue;
        }
        if !exercised_issues.contains(&(hier.clone(), op.clone())) {
            out.push(Diagnostic {
                file: crate::lints::transitions::COVERAGE_PATH.to_string(),
                line: 0,
                lint: LINT,
                message: format!(
                    "the {hier} hierarchy can issue `{op}` (spec row present) but \
                     no model scope ever observes that issue"
                ),
            });
        }
    }
    for (hier, state, op, _) in UNEXERCISED_BY_DESIGN {
        if !covered_hiers.contains(hier) {
            continue;
        }
        let key = (hier.to_string(), state.to_string(), op.to_string());
        if exercised_snoops.contains(&key) {
            out.push(Diagnostic {
                file: crate::lints::transitions::COVERAGE_PATH.to_string(),
                line: 0,
                lint: LINT,
                message: format!(
                    "stale unexercised-by-design entry `{hier} {state} {op}`: a \
                     model scope now exercises it — drop the allowlist entry"
                ),
            });
        } else if !surface.snoop_keys.contains(&key) {
            out.push(Diagnostic {
                file: crate::lints::transitions::COVERAGE_PATH.to_string(),
                line: 0,
                lint: LINT,
                message: format!(
                    "stale unexercised-by-design entry `{hier} {state} {op}`: no \
                     such spec row exists — drop the allowlist entry"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    /// A V-R snoop handling all five ops in every state, with a helper.
    const FULL_VR: &str = "\
impl VrHierarchy {
    fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
        match txn.op {
            BusOp::ReadMiss => self.snoop_read(txn.block),
            BusOp::Invalidate => {
                let Some(line) = self.l2.invalidate(p2) else {
                    return SnoopReply::default();
                };
                self.events.inval_v += 1;
                let _ = line;
                SnoopReply { has_copy: true, ..SnoopReply::default() }
            }
            BusOp::ReadModifiedWrite => self.snoop_read(txn.block),
            BusOp::WriteBack => SnoopReply::default(),
            BusOp::Update => self.snoop_read(txn.block),
        }
    }
    fn snoop_read(&mut self, block: BlockId) -> SnoopReply {
        let Some(line) = self.l2.peek_mut(p2) else {
            return SnoopReply::default();
        };
        line.meta.state = CohState::Shared;
        self.events.flush_v += 1;
        SnoopReply { has_copy: true, ..SnoopReply::default() }
    }
    fn miss(&mut self) {
        self.bus.issue(BusRequest::ReadMiss { block });
    }
}
";

    fn ws(spec: Option<String>, coverage: Option<&str>) -> Workspace {
        Workspace {
            sources: vec![SourceFile::new("crates/core/src/vr.rs", FULL_VR)],
            protocol_spec: spec,
            model_coverage: coverage.map(str::to_string),
            ..Workspace::default()
        }
    }

    fn pinned_render(w: &Workspace) -> String {
        protocol::render(&protocol::extract(w))
    }

    #[test]
    fn pinned_spec_is_clean() {
        let base = ws(None, None);
        let spec = pinned_render(&base);
        let diags = check(&ws(Some(spec), None));
        assert_eq!(diags, vec![], "pinned fixture must be clean");
    }

    #[test]
    fn missing_spec_demands_a_pin() {
        let diags = check(&ws(None, None));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("missing protocol spec"));
    }

    #[test]
    fn edited_row_is_drift() {
        let base = ws(None, None);
        let spec = pinned_render(&base).replace(
            "vr shared invalidate -> absent copy inval-v",
            "vr shared invalidate -> shared copy inval-v",
        );
        let diags = check(&ws(Some(spec), None));
        assert!(
            diags.iter().any(|d| d.message.contains("transition drift")),
            "{diags:#?}"
        );
    }

    #[test]
    fn extra_pinned_row_is_stale() {
        let base = ws(None, None);
        let spec = format!(
            "{}vr shared nonesuch -> absent nocopy -\n",
            pinned_render(&base)
        );
        let diags = check(&ws(Some(spec), None));
        assert!(
            diags.iter().any(|d| d.message.contains("stale row")),
            "{diags:#?}"
        );
    }

    #[test]
    fn undocumented_dead_op_is_a_hole() {
        // Reject Update loudly without an allowlist entry for vr.
        let src = FULL_VR.replace(
            "BusOp::Update => self.snoop_read(txn.block),",
            "BusOp::Update => {
                debug_assert!(false, \"no update here\");
                SnoopReply::default()
            }",
        );
        let mut w = ws(None, None);
        w.sources = vec![SourceFile::new("crates/core/src/vr.rs", src)];
        let spec = pinned_render(&w);
        w.protocol_spec = Some(spec);
        let diags = check(&w);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("undocumented hole") && d.message.contains("`update`")),
            "{diags:#?}"
        );
    }

    #[test]
    fn coverage_row_without_spec_row_fails() {
        let base = ws(None, None);
        let spec = pinned_render(&base);
        // `nonesuch` is not an op the snoop handles.
        let diags = check(&ws(Some(spec), Some("vr shared nonesuch\n")));
        assert!(
            diags.iter().any(|d| d.message.contains("has no spec row")),
            "{diags:#?}"
        );
    }

    #[test]
    fn unexercised_spec_row_fails() {
        let base = ws(None, None);
        let spec = pinned_render(&base);
        // One exercised transition; everything else specified but never
        // driven (and not allowlisted) must be flagged.
        let diags = check(&ws(Some(spec), Some("vr shared read-miss\n")));
        assert!(
            diags.iter().any(|d| d.message.contains("never exercised")
                && d.message.contains("`vr absent read-miss`")),
            "{diags:#?}"
        );
    }

    #[test]
    fn malformed_pinned_rows_are_reported() {
        let base = ws(None, None);
        let spec = format!("{}not a row\n", pinned_render(&base));
        let diags = check(&ws(Some(spec), None));
        assert!(
            diags.iter().any(|d| d.message.contains("malformed row")),
            "{diags:#?}"
        );
    }

    #[test]
    fn inactive_without_any_hierarchy() {
        let w = Workspace {
            sources: vec![SourceFile::new("crates/sim/src/lib.rs", "fn f() {}")],
            ..Workspace::default()
        };
        assert_eq!(check(&w), vec![]);
    }

    #[test]
    fn real_workspace_is_clean() {
        let root = crate::walk::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let ws = crate::walk::load(&root).expect("load workspace");
        assert!(
            ws.protocol_spec.is_some(),
            "crates/analysis/protocol_spec.txt must be checked in"
        );
        let diags = check(&ws);
        assert!(diags.is_empty(), "{diags:#?}");
    }
}
