//! Injection-baseline lint: the pinned silent-data-corruption set must
//! be explained, parity-off only, and cover every SDC the last campaign
//! found.
//!
//! `vrcache-inject` sweeps the fault table over the hierarchy
//! organizations and pins the parity-**off** silent-data-corruption
//! routes in `crates/inject/baseline.txt` — the demonstration that the
//! faults are dangerous and the parity model is load-bearing. This lint
//! keeps that pin honest without running a campaign:
//!
//! * the baseline must exist and parse, every entry carrying a
//!   non-empty justification;
//! * no entry may carry `par=on`: a parity-on SDC is a bug in the
//!   detection/recovery model, never a fact to allowlist;
//! * if a campaign report is present (`target/injection-report.txt`),
//!   every parity-off `sdc` row must be allowlisted, and a parity-on
//!   `sdc` row is a violation no baseline can excuse.
//!
//! Baseline entries the report did not reach are *not* flagged: the SDC
//! set differs between debug and release builds (debug assertions turn
//! several silent routes into loud ones) and between the smoke and full
//! campaigns; the baseline pins their union.
//!
//! The lint is inactive while the workspace has no `crates/inject`
//! (seed trees, minimized test workspaces).

use vrcache_inject::baseline::Baseline;

use crate::{Diagnostic, Workspace};

const LINT: &str = "injection-baseline";
const BASELINE_PATH: &str = "crates/inject/baseline.txt";
const REPORT_PATH: &str = "target/injection-report.txt";

/// One parsed report row: `<id> <outcome> — <detail>`.
struct ReportRow<'a> {
    id: &'a str,
    outcome: &'a str,
}

fn parse_report(text: &str) -> Vec<ReportRow<'_>> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (id, rest) = l.split_once(' ')?;
            let outcome = rest.split(' ').next()?;
            Some(ReportRow { id, outcome })
        })
        .collect()
}

/// Runs the injection-baseline lint.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    if !ws.has_path_prefix("crates/inject") {
        return Vec::new();
    }
    let mut out = Vec::new();

    let Some(baseline_text) = &ws.injection_baseline else {
        out.push(Diagnostic {
            file: BASELINE_PATH.to_string(),
            line: 0,
            lint: LINT,
            message: "missing silent-data-corruption baseline — run \
                      `cargo run --release -p vrcache-inject -- --campaign smoke \
                      --write-baseline` and explain every pinned route"
                .to_string(),
        });
        return out;
    };
    let baseline = match Baseline::parse(baseline_text) {
        Ok(b) => b,
        Err(e) => {
            out.push(Diagnostic {
                file: BASELINE_PATH.to_string(),
                line: 0,
                lint: LINT,
                message: format!("unparseable baseline: {e}"),
            });
            return out;
        }
    };
    for id in baseline.parity_on_ids() {
        out.push(Diagnostic {
            file: BASELINE_PATH.to_string(),
            line: 0,
            lint: LINT,
            message: format!(
                "entry {id} allowlists a parity-on SDC — with parity enabled nothing \
                 may be silent; fix the recovery model instead of pinning it"
            ),
        });
    }

    if let Some(report_text) = &ws.injection_report {
        for row in parse_report(report_text) {
            if row.outcome != "sdc" {
                continue;
            }
            if row.id.contains("par=on") {
                out.push(Diagnostic {
                    file: REPORT_PATH.to_string(),
                    line: 0,
                    lint: LINT,
                    message: format!(
                        "silent data corruption with parity ON: {} — the detection or \
                         recovery path failed; this is never allowlistable",
                        row.id
                    ),
                });
            } else if !baseline.contains(row.id) {
                out.push(Diagnostic {
                    file: REPORT_PATH.to_string(),
                    line: 0,
                    lint: LINT,
                    message: format!(
                        "unreviewed SDC route {} — pin it in {BASELINE_PATH} with a \
                         justification (or fix the detection gap)",
                        row.id
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn ws(baseline: Option<&str>, report: Option<&str>) -> Workspace {
        Workspace {
            sources: vec![SourceFile::new("crates/inject/src/lib.rs", "")],
            injection_baseline: baseline.map(str::to_string),
            injection_report: report.map(str::to_string),
            ..Workspace::default()
        }
    }

    #[test]
    fn inactive_without_an_inject_crate() {
        let ws = Workspace {
            sources: vec![SourceFile::new("crates/core/src/vr.rs", "")],
            ..Workspace::default()
        };
        assert!(check(&ws).is_empty());
    }

    #[test]
    fn missing_baseline_is_flagged() {
        let diags = check(&ws(None, None));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("missing"));
    }

    #[test]
    fn unexplained_entry_is_flagged() {
        let diags = check(&ws(Some("vr/coh-state-flip/pt0/s1/par=off\n"), None));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("unparseable"), "{diags:?}");
    }

    #[test]
    fn parity_on_baseline_entry_is_flagged() {
        let diags = check(&ws(Some("vr/v-tag-flip/pt0/s1/par=on — oops\n"), None));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("parity-on"), "{diags:?}");
    }

    #[test]
    fn unpinned_sdc_row_is_flagged() {
        let report = "# header\nvr/coh-state-flip/pt0/s1/par=off sdc — stale read\n";
        let diags = check(&ws(Some("# empty\n"), Some(report)));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("unreviewed"), "{diags:?}");

        // Pinning the id makes the same report clean.
        let baseline = "vr/coh-state-flip/pt0/s1/par=off — bogus exclusivity\n";
        assert!(check(&ws(Some(baseline), Some(report))).is_empty());
    }

    #[test]
    fn parity_on_sdc_row_fails_even_when_pinned() {
        let id = "vr/coh-state-flip/pt0/s1/par=on";
        let report = format!("{id} sdc — stale read\n");
        let baseline = format!("{id} — trying to excuse it\n");
        let diags = check(&ws(Some(&baseline), Some(&report)));
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(
            diags.iter().all(|d| d.message.contains("parity")),
            "{diags:?}"
        );
    }

    #[test]
    fn non_sdc_rows_and_stale_entries_are_ignored() {
        let report = "vr/v-tag-flip/pt0/s1/par=on detected-recovered — 1 detections\n";
        let baseline = "vr/bus-drop-txn/pt9/s9/par=off — stale but pinned\n";
        assert!(check(&ws(Some(baseline), Some(report))).is_empty());
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
