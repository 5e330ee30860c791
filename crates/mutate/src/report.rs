//! The deterministic mutation report.
//!
//! Written to `target/mutation-report.txt` by the `vrcache-mutate`
//! binary and consumed by the `mutation-baseline` lint. Contains no
//! timestamps, durations, or machine-dependent data: two runs of the
//! same suite over the same source produce byte-identical reports.
//!
//! This module keeps every collection ordered (`BTreeMap`); the root
//! `clippy.toml` disallows hash-ordered collections workspace-wide.

use std::collections::BTreeMap;
use std::fmt;

use crate::{Mutant, MutantId, Operator};

/// The fate of one executed mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// `cargo check` rejected the mutated source: the mutant is invalid
    /// and excluded from the score.
    BuildError,
    /// The fast unit-test stage failed.
    KilledTest,
    /// The model-checker smoke stage failed.
    KilledModel,
    /// A stage ran past the per-stage timeout (non-termination counts
    /// as detection).
    KilledTimeout,
    /// Every stage passed: the test stack did not notice the fault.
    Survived,
}

impl Status {
    /// Every status, in label order.
    pub const ALL: &'static [Status] = &[
        Status::BuildError,
        Status::KilledTest,
        Status::KilledModel,
        Status::KilledTimeout,
        Status::Survived,
    ];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            Status::BuildError => "build-error",
            Status::KilledTest => "killed:test",
            Status::KilledModel => "killed:model",
            Status::KilledTimeout => "killed:timeout",
            Status::Survived => "survived",
        }
    }

    /// Parses a label produced by [`Status::label`].
    pub fn parse(s: &str) -> Option<Status> {
        Status::ALL.iter().copied().find(|st| st.label() == s)
    }

    /// Whether some pipeline stage detected the mutant.
    pub fn is_killed(self) -> bool {
        matches!(
            self,
            Status::KilledTest | Status::KilledModel | Status::KilledTimeout
        )
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One report row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportRow {
    /// Stable mutant identity.
    pub id: MutantId,
    /// Target file.
    pub file: String,
    /// Primary mutated line.
    pub line: usize,
    /// Operator that produced the mutant.
    pub op: Operator,
    /// Outcome.
    pub status: Status,
    /// The mutant's one-line description.
    pub description: String,
}

/// A full run's outcome, rendered deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Suite label (`smoke` or `full`).
    pub suite: String,
    /// Rows sorted by (file, line, operator, id).
    pub rows: Vec<ReportRow>,
}

impl Report {
    /// Builds a report from executed mutants and their statuses,
    /// sorting rows into canonical order.
    pub fn new(suite: &str, results: &[(Mutant, Status)]) -> Report {
        let mut rows: Vec<ReportRow> = results
            .iter()
            .map(|(m, status)| ReportRow {
                id: m.id,
                file: m.file.clone(),
                line: m.line,
                op: m.op,
                status: *status,
                description: m.description.clone(),
            })
            .collect();
        rows.sort_by(|a, b| (&a.file, a.line, a.op, a.id).cmp(&(&b.file, b.line, b.op, b.id)));
        Report {
            suite: suite.to_string(),
            rows,
        }
    }

    /// Rows with a given status.
    pub fn with_status(&self, status: Status) -> impl Iterator<Item = &ReportRow> {
        self.rows.iter().filter(move |r| r.status == status)
    }

    /// Count per status, in label order.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for row in &self.rows {
            *counts.entry(row.status.label()).or_insert(0) += 1;
        }
        counts
    }

    /// Killed / (killed + survived), in percent. `None` when no mutant
    /// was scoreable (all build errors, or an empty run).
    pub fn score_percent(&self) -> Option<f64> {
        let killed = self.rows.iter().filter(|r| r.status.is_killed()).count();
        let survived = self.with_status(Status::Survived).count();
        let scored = killed + survived;
        if scored == 0 {
            return None;
        }
        Some(100.0 * killed as f64 / scored as f64)
    }

    /// Renders the report file: a deterministic header plus one row per
    /// mutant.
    pub fn render(&self) -> String {
        let killed = self.rows.iter().filter(|r| r.status.is_killed()).count();
        let survived = self.with_status(Status::Survived).count();
        let build_errors = self.with_status(Status::BuildError).count();
        let score = match self.score_percent() {
            Some(s) => format!("{s:.1}%"),
            None => "n/a".to_string(),
        };
        let mut out = format!(
            "# Mutation report — suite: {}\n\
             # mutants: {} killed: {} survived: {} build-error: {} score: {}\n\
             # Row: <id> <file>:<line> <operator> <status> — <description>\n",
            self.suite,
            self.rows.len(),
            killed,
            survived,
            build_errors,
            score
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{} {}:{} {} {} — {}\n",
                r.id, r.file, r.line, r.op, r.status, r.description
            ));
        }
        out
    }

    /// Parses a rendered report leniently: malformed rows are skipped
    /// (the report is machine-written; drift means a stale or truncated
    /// file, which the consumer treats as partial data, not an error).
    pub fn parse(text: &str) -> Report {
        let mut suite = String::new();
        let mut rows = Vec::new();
        for raw in text.lines() {
            let trimmed = raw.trim();
            if let Some(rest) = trimmed.strip_prefix("# Mutation report — suite: ") {
                suite = rest.trim().to_string();
                continue;
            }
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let Some((head, description)) = trimmed.split_once(" — ") else {
                continue;
            };
            let fields: Vec<&str> = head.split_whitespace().collect();
            let &[id, loc, op, status] = fields.as_slice() else {
                continue;
            };
            let Some(id) = MutantId::parse(id) else {
                continue;
            };
            let Some((file, line)) = loc.rsplit_once(':') else {
                continue;
            };
            let Ok(line) = line.parse::<usize>() else {
                continue;
            };
            let Some(op) = Operator::parse(op) else {
                continue;
            };
            let Some(status) = Status::parse(status) else {
                continue;
            };
            rows.push(ReportRow {
                id,
                file: file.to_string(),
                line,
                op,
                status,
                description: description.trim().to_string(),
            });
        }
        Report { suite, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            suite: "smoke".to_string(),
            rows: vec![
                ReportRow {
                    id: MutantId(1),
                    file: "crates/core/src/vr.rs".to_string(),
                    line: 10,
                    op: Operator::CmpFlip,
                    status: Status::KilledTest,
                    description: "replace `==` with `!=`".to_string(),
                },
                ReportRow {
                    id: MutantId(2),
                    file: "crates/core/src/vr.rs".to_string(),
                    line: 20,
                    op: Operator::FlagFlip,
                    status: Status::Survived,
                    description: "invert flag assignment `sub.buffer = true`".to_string(),
                },
            ],
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let r = sample();
        assert_eq!(Report::parse(&r.render()), r);
    }

    #[test]
    fn score_excludes_build_errors() {
        let mut r = sample();
        r.rows.push(ReportRow {
            id: MutantId(3),
            file: "crates/core/src/vr.rs".to_string(),
            line: 30,
            op: Operator::OffByOne,
            status: Status::BuildError,
            description: "replace `+ 1` with `+ 2`".to_string(),
        });
        let score = r.score_percent().expect("scoreable");
        assert!((score - 50.0).abs() < 1e-9, "{score}");
        assert!(Report::default().score_percent().is_none());
    }

    #[test]
    fn status_labels_round_trip() {
        for &st in Status::ALL {
            assert_eq!(Status::parse(st.label()), Some(st));
        }
    }

    /// The mutation driver's fan-out, in miniature: classifying mutants
    /// through the exec substrate and reducing into a report must be
    /// byte-identical for any worker count. A pure classifier stands in
    /// for the cargo pipeline so the test needs no subprocesses.
    #[test]
    fn worker_count_never_changes_the_report() {
        let source = "fn f() {\n    let x = a == b;\n    let y = c < d;\n    let z = n + 1;\n}\n";
        let mutants = crate::generate(&[
            ("crates/core/src/inclusion.rs", source),
            ("crates/core/src/vcache.rs", source),
        ]);
        assert!(mutants.len() >= 4, "fixture generates a real batch");
        let classify = |m: &Mutant| match m.id.0 % 3 {
            0 => Status::Survived,
            1 => Status::KilledTest,
            _ => Status::KilledModel,
        };
        let render = |jobs: usize| -> String {
            let cells = vrcache_exec::run_cells(jobs, &mutants, |_, m| classify(m));
            let results: Vec<(Mutant, Status)> = mutants
                .iter()
                .cloned()
                .zip(
                    cells
                        .into_iter()
                        .map(|c| c.result.expect("pure classifier")),
                )
                .collect();
            Report::new("smoke", &results).render()
        };
        let baseline = render(1);
        for jobs in [2, 8] {
            assert_eq!(
                render(jobs),
                baseline,
                "jobs={jobs} must render a byte-identical report"
            );
        }
    }
}
