//! Protocol-spec lint: the coherence transition surface extracted from
//! the `snoop` handlers must match the pinned
//! `crates/analysis/protocol_spec.txt`, agree with the model checker's
//! exercised transitions in `crates/model/coverage.txt`, and leave no
//! undocumented hole in the state×op matrix.
//!
//! Four failure classes:
//!
//! 1. **Drift** — the extracted table (see [`protocol`](crate::protocol))
//!    differs from the pinned spec: a new row, a stale row, or a row
//!    whose transition changed. Any edit to the snoop logic shows up
//!    here and demands a deliberate re-pin.
//! 2. **Matrix holes** — a `(state, op)` combination with no spec row is
//!    a rejected path; rejection is fine only when documented in
//!    [`DEAD_BY_DESIGN`] with a reason.
//! 3. **Coverage inconsistency** — bidirectional cross-check against
//!    the coverage table the model checker exercised: every transition a
//!    scope drove through the real snoop code must have a spec row (an
//!    exercised op with no arm, say), and every specified transition must
//!    be exercised by some scope (a dead arm) or be allowlisted with a
//!    reason in [`UNEXERCISED_BY_DESIGN`].
//! 4. **Coverage table health** — the table must exist once
//!    `crates/model` does, every row must parse as
//!    `<hierarchy> <context> <op>`, and every `CohState` variant plus
//!    `absent` must occur as a pre-snoop context of the V-R hierarchy,
//!    so each row of the coherence state × bus event table is known to
//!    be reached.
//!
//! Re-pinning goes through `--write protocol`, which `scripts/check.sh`
//! gates behind a clean tier-1 run (`REPIN=protocol`); `--report
//! protocol` prints the tables read-only. The coverage table is
//! regenerated with `cargo run --release -p vrcache-model -- --scope all
//! --write-coverage crates/model/coverage.txt`; a stale table also fails
//! the model crate's own golden test.

use std::collections::{BTreeMap, BTreeSet};

use crate::protocol::{self, kebab_case, ProtocolSurface, SPEC_PATH};
use crate::walk::enum_variants;
use crate::{Diagnostic, Workspace};

const LINT: &str = "protocol-spec";

/// The re-pin instruction every spec drift diagnostic ends with.
const REPIN_HINT: &str = "re-pin with `cargo run -p vrcache-analysis --bin lint -- --write \
                          protocol` after a clean tier-1 run (`REPIN=protocol scripts/check.sh`)";

/// Where the model checker's exercised-transition table lives.
const COVERAGE_PATH: &str = "crates/model/coverage.txt";

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

fn diag(file: &str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        lint: LINT,
        message,
    }
}

/// A `(hierarchy, state, op)` key of a spec or coverage row.
type Key = (String, String, String);

fn key(hier: &str, state: &str, op: &str) -> Key {
    (hier.to_string(), state.to_string(), op.to_string())
}

/// Parses the pinned spec into key (first three fields) → full row.
fn parse_spec(text: &str, out: &mut Vec<Diagnostic>) -> BTreeMap<Key, (usize, String)> {
    let mut rows = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 6 || fields[3] != "->" {
            out.push(diag(
                SPEC_PATH,
                idx + 1,
                format!(
                    "malformed row `{line}` (want `<hierarchy> <state> <op> -> \
                     <state-after> <reply> <actions>`)"
                ),
            ));
            continue;
        }
        let k = key(fields[0], fields[1], fields[2]);
        let message = format!("duplicate row for `{} {} {}`", k.0, k.1, k.2);
        if rows.insert(k, (idx + 1, line.to_string())).is_some() {
            out.push(diag(SPEC_PATH, idx + 1, message));
        }
    }
    rows
}

/// The coverage table's rows as `(1-based line, [hierarchy, context,
/// op])`, flagging malformed rows — or `None`, flagging the table's
/// absence once the model crate exists.
fn coverage_rows<'a>(
    ws: &'a Workspace,
    out: &mut Vec<Diagnostic>,
) -> Option<Vec<(usize, [&'a str; 3])>> {
    let Some(coverage) = &ws.model_coverage else {
        if ws.has_path_prefix("crates/model") {
            out.push(diag(
                COVERAGE_PATH,
                0,
                "missing transition table; regenerate with `cargo run --release \
                 -p vrcache-model -- --scope all --write-coverage \
                 crates/model/coverage.txt`"
                    .into(),
            ));
        }
        return None;
    };
    let mut rows = Vec::new();
    for (idx, raw) in coverage.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            [hier, context, op] => rows.push((idx + 1, [hier, context, op])),
            _ => out.push(diag(
                COVERAGE_PATH,
                idx + 1,
                format!("malformed row `{line}` (want `<hierarchy> <context> <op>`)"),
            )),
        }
    }
    Some(rows)
}

/// Runs the protocol-spec lint.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let surface = protocol::extract(ws);
    let mut out = Vec::new();
    let coverage = coverage_rows(ws, &mut out);
    for hier in &surface.missing_snoop {
        let home = protocol::HIERARCHIES
            .iter()
            .find(|h| h.label == hier.as_str())
            .map_or(SPEC_PATH, |h| h.home_file);
        out.push(diag(
            home,
            0,
            format!(
                "no `fn snoop` found for the {hier} hierarchy — the extractor \
                 cannot lift its transition surface"
            ),
        ));
    }
    if surface.hiers.is_empty() {
        // Seed trees and minimized fixtures without any hierarchy: the
        // lint stays inactive.
        return out;
    }
    let repin = REPIN_HINT;

    // 1. Drift against the pinned spec.
    let Some(spec_text) = &ws.protocol_spec else {
        out.push(diag(
            SPEC_PATH,
            0,
            format!("missing protocol spec — {repin}"),
        ));
        return out;
    };
    let pinned = parse_spec(spec_text, &mut out);
    let extracted: BTreeMap<Key, &String> = surface
        .rows
        .iter()
        .filter_map(|row| match row.split_whitespace().collect::<Vec<_>>()[..] {
            [hier, state, op, ..] => Some((key(hier, state, op), row)),
            _ => None,
        })
        .collect();
    for (k, row) in &extracted {
        match pinned.get(k) {
            None => out.push(diag(
                SPEC_PATH,
                0,
                format!(
                    "extracted transition `{row}` has no pinned row — the snoop \
                     logic changed; review the transition and {repin}"
                ),
            )),
            Some((line, pinned_row)) if pinned_row != *row => out.push(diag(
                SPEC_PATH,
                *line,
                format!(
                    "transition drift: pinned `{pinned_row}` but the snoop logic \
                     now yields `{row}` — review the change and {repin}"
                ),
            )),
            Some(_) => {}
        }
    }
    for (k, (line, row)) in &pinned {
        if !extracted.contains_key(k) {
            out.push(diag(
                SPEC_PATH,
                *line,
                format!(
                    "stale row `{row}` — the snoop logic no longer yields this \
                     transition; {repin}"
                ),
            ));
        }
    }

    // 2. Matrix holes: every dead (state, op) combination must trace to
    //    a documented dead op.
    for (hier, state, op) in &surface.dead_states {
        if !DEAD_BY_DESIGN.iter().any(|(h, o, _)| h == hier && o == op) {
            out.push(diag(
                SPEC_PATH,
                0,
                format!(
                    "undocumented hole: the {hier} snoop rejects `{op}` in state \
                     `{state}` but (`{hier}`, `{op}`) is not allowlisted as dead \
                     by design"
                ),
            ));
        }
    }
    for (hier, op, _) in DEAD_BY_DESIGN {
        if surface.hiers.contains(*hier)
            && !surface.dead.contains(&(hier.to_string(), op.to_string()))
        {
            out.push(diag(
                SPEC_PATH,
                0,
                format!(
                    "stale dead-by-design entry (`{hier}`, `{op}`): the snoop now \
                     handles this op in some state — drop the allowlist entry"
                ),
            ));
        }
    }

    if let Some(rows) = coverage {
        check_coverage(ws, &surface, &rows, &mut out);
    }
    out
}

/// 3 and 4: the bidirectional cross-check against the coverage table's
/// `rows`, plus V-R context completeness.
fn check_coverage(
    ws: &Workspace,
    surface: &ProtocolSurface,
    rows: &[(usize, [&str; 3])],
    out: &mut Vec<Diagnostic>,
) {
    let mut exercised_snoops: BTreeSet<Key> = BTreeSet::new();
    let mut exercised_issues: BTreeSet<(String, String)> = BTreeSet::new();
    for &(line, [hier, context, op]) in rows {
        if !surface.hiers.contains(hier) {
            continue;
        }
        if context == "issue" {
            let k = (hier.to_string(), op.to_string());
            if !surface.issue_keys.contains(&k) {
                out.push(diag(
                    COVERAGE_PATH,
                    line,
                    format!(
                        "the model checker observed the {hier} hierarchy issuing \
                         `{op}` but the extractor finds no originating \
                         `BusRequest::` site — no spec row backs this transition"
                    ),
                ));
            }
            exercised_issues.insert(k);
        } else {
            let k = key(hier, context, op);
            if !surface.snoop_keys.contains(&k) {
                out.push(diag(
                    COVERAGE_PATH,
                    line,
                    format!(
                        "exercised transition `{hier} {context} {op}` has no spec \
                         row — the snoop rejects a combination the model checker \
                         actually drove"
                    ),
                ));
            }
            exercised_snoops.insert(k);
        }
    }
    let covered_hiers: BTreeSet<&str> = exercised_snoops
        .iter()
        .map(|(h, _, _)| h.as_str())
        .chain(exercised_issues.iter().map(|(h, _)| h.as_str()))
        .collect();
    for k @ (hier, state, op) in &surface.snoop_keys {
        let allowed = UNEXERCISED_BY_DESIGN
            .iter()
            .any(|(h, s, o, _)| h == hier && s == state && o == op);
        if covered_hiers.contains(hier.as_str()) && !exercised_snoops.contains(k) && !allowed {
            out.push(diag(
                COVERAGE_PATH,
                0,
                format!(
                    "specified transition `{hier} {state} {op}` is never exercised \
                     by a model scope — extend a scope or allowlist it with a reason"
                ),
            ));
        }
    }
    for k @ (hier, op) in &surface.issue_keys {
        if covered_hiers.contains(hier.as_str()) && !exercised_issues.contains(k) {
            out.push(diag(
                COVERAGE_PATH,
                0,
                format!(
                    "the {hier} hierarchy can issue `{op}` (spec row present) but \
                     no model scope ever observes that issue"
                ),
            ));
        }
    }
    for (hier, state, op, _) in UNEXERCISED_BY_DESIGN {
        let k = key(hier, state, op);
        let why = if exercised_snoops.contains(&k) {
            "a model scope now exercises it"
        } else if !surface.snoop_keys.contains(&k) {
            "no such spec row exists"
        } else {
            continue;
        };
        if covered_hiers.contains(hier) {
            out.push(diag(
                COVERAGE_PATH,
                0,
                format!(
                    "stale unexercised-by-design entry `{hier} {state} {op}`: {why} — \
                     drop the allowlist entry"
                ),
            ));
        }
    }

    // Every coherence state, plus absence, must be reached as a V-R
    // pre-snoop context.
    if surface.hiers.contains("vr") {
        let (states, _) = ws
            .file("crates/core/src/rcache.rs")
            .map(|f| enum_variants(&f.text, "CohState"))
            .unwrap_or_default();
        let reached: BTreeSet<&str> = rows
            .iter()
            .filter(|(_, [hier, _, _])| *hier == "vr")
            .map(|(_, [_, context, _])| *context)
            .collect();
        let wanted = states
            .iter()
            .map(|s| kebab_case(s))
            .chain(["absent".into()]);
        for state in wanted.collect::<BTreeSet<_>>() {
            if !reached.contains(state.as_str()) {
                out.push(diag(
                    COVERAGE_PATH,
                    0,
                    format!(
                        "no scope snoops the vr hierarchy in coherence context `{state}`; \
                         the transition table row for that state is unverified"
                    ),
                ));
            }
        }
    }
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
                let Some(line) = self.l2.cache.invalidate(p2) else {
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
        let Some(line) = self.l2.cache.peek_mut(p2) else {
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

    /// A workspace around `vr`, with the `CohState` enum, the model
    /// crate, `coverage`, and the spec pinned to today's extraction.
    fn covered(vr: &str, coverage: &str) -> Workspace {
        let mut w = Workspace {
            sources: vec![
                SourceFile::new("crates/core/src/vr.rs", vr),
                SourceFile::new(
                    "crates/core/src/rcache.rs",
                    "pub enum CohState {\n    Shared,\n    Private,\n}\n",
                ),
                SourceFile::new("crates/model/src/lib.rs", ""),
            ],
            model_coverage: Some(coverage.to_string()),
            ..Workspace::default()
        };
        w.protocol_spec = Some(pinned_render(&w));
        w
    }

    /// The coverage table a model run exercising exactly the specified,
    /// non-allowlisted transitions of `w` would write.
    fn exercised(w: &Workspace) -> String {
        let s = protocol::extract(w);
        let snoops = s.snoop_keys.iter().filter(|(h, st, o)| {
            !UNEXERCISED_BY_DESIGN
                .iter()
                .any(|(uh, us, uo, _)| uh == h && us == st && uo == o)
        });
        let issues = s.issue_keys.iter().map(|(h, o)| (h, "issue", o));
        snoops
            .map(|(h, st, o)| format!("{h} {st} {o}\n"))
            .chain(issues.map(|(h, st, o)| format!("{h} {st} {o}\n")))
            .collect()
    }

    fn without(coverage: &str, word: &str) -> String {
        coverage
            .lines()
            .filter(|l| !l.contains(word))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn coverage_agreeing_with_the_spec_is_clean() {
        let full = exercised(&covered(FULL_VR, ""));
        assert!(full.contains("vr private read-miss\n"), "{full}");
        assert!(full.contains("vr issue read-miss\n"), "{full}");
        assert_eq!(check(&covered(FULL_VR, &full)), vec![]);
    }

    #[test]
    fn removed_match_arm_leaves_exercised_rows_unspecified() {
        // Drop the Invalidate arm: the checker exercised `invalidate`
        // snoops, so those coverage rows lose their spec rows.
        let full = exercised(&covered(FULL_VR, ""));
        let arm = FULL_VR
            .find("            BusOp::Invalidate => {")
            .expect("arm");
        let end = FULL_VR
            .find("            BusOp::ReadModifiedWrite")
            .expect("next arm");
        let src = format!("{}{}", &FULL_VR[..arm], &FULL_VR[end..]);
        let diags = check(&covered(&src, &full));
        assert!(
            diags.iter().any(|d| d
                .message
                .contains("exercised transition `vr shared invalidate` has no spec row")
                && d.file == COVERAGE_PATH),
            "{diags:#?}"
        );
    }

    #[test]
    fn unexercised_arm_is_flagged() {
        // Coverage missing every `update` row: the Update arm is dead.
        let cov = without(&exercised(&covered(FULL_VR, "")), "update");
        let diags = check(&covered(FULL_VR, &cov));
        assert!(
            diags.iter().any(|d| d
                .message
                .contains("specified transition `vr shared update` is never exercised")),
            "{diags:#?}"
        );
    }

    #[test]
    fn goodman_update_arm_is_allowlisted() {
        // The snoop rejects Update behind a `debug_assert!(false …)`, so
        // the extractor derives (goodman, update) as dead — documented
        // in DEAD_BY_DESIGN, so neither the hole nor the missing
        // coverage rows are findings.
        let mut w = Workspace {
            sources: vec![SourceFile::new(
                "crates/core/src/goodman.rs",
                "impl CacheHierarchy for GoodmanHierarchy {\n    \
                 fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {\n        \
                 if txn.op == BusOp::Update {\n            \
                 debug_assert!(false, \"update is a V-R-only configuration\");\n            \
                 return SnoopReply::default();\n        }\n        \
                 match txn.op {\n            BusOp::ReadMiss => self.r(),\n            \
                 BusOp::Invalidate | BusOp::ReadModifiedWrite => self.i(),\n            \
                 BusOp::WriteBack => SnoopReply::default(),\n            \
                 BusOp::Update => unreachable!(\"rejected above\"),\n        }\n    }\n}\n",
            )],
            ..Workspace::default()
        };
        assert!(protocol::extract(&w)
            .dead
            .contains(&("goodman".into(), "update".into())));
        w.protocol_spec = Some(pinned_render(&w));
        w.model_coverage = Some(exercised(&w));
        assert_eq!(check(&w), vec![], "update must be dead by design");
    }

    #[test]
    fn missing_vr_context_is_flagged() {
        // No row ever snoops vr while `private`.
        let cov = without(&exercised(&covered(FULL_VR, "")), "private");
        let diags = check(&covered(FULL_VR, &cov));
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("context `private`")),
            "{diags:#?}"
        );
        assert!(
            !diags.iter().any(|d| d.message.contains("context `shared`")),
            "{diags:#?}"
        );
    }

    #[test]
    fn missing_table_is_flagged_only_when_model_crate_exists() {
        let with_model = Workspace {
            sources: vec![SourceFile::new("crates/model/src/lib.rs", "")],
            ..Workspace::default()
        };
        let diags = check(&with_model);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("missing transition table"));
        assert_eq!(check(&Workspace::default()), vec![]);
    }

    #[test]
    fn malformed_coverage_rows_are_reported() {
        let w = Workspace {
            model_coverage: Some("# ok\nvr shared\n".to_string()),
            ..Workspace::default()
        };
        let diags = check(&w);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("malformed row"));
        assert_eq!((diags[0].file.as_str(), diags[0].line), (COVERAGE_PATH, 2));
    }

    #[test]
    fn hierarchy_without_snoop_is_flagged() {
        let w = Workspace {
            sources: vec![SourceFile::new(
                "crates/core/src/vr.rs",
                "impl VrHierarchy {\n    fn access(&mut self) {}\n}\n",
            )],
            ..Workspace::default()
        };
        let diags = check(&w);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0]
            .message
            .contains("no `fn snoop` found for the vr hierarchy"));
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
