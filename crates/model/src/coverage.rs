//! Transition coverage: which (hierarchy, coherence standing, bus event)
//! pairs the exploration actually drove.
//!
//! Every snoop the bus delivers is recorded as a row
//! `<hierarchy> <context> <op>` where `context` is the snooper's
//! [`BlockPresence`](vrcache::hierarchy::BlockPresence) *before* the
//! snoop; every transaction issued is recorded with context `issue`.
//! The union over all scopes is checked in as `crates/model/coverage.txt`
//! and cross-checked two ways: a golden test here asserts the file matches
//! what the scopes exercise today, and the `protocol-spec` lint in
//! `vrcache-analysis` asserts the file and the transition surface it
//! extracts from the `fn snoop` handlers in `crates/core` agree (every
//! exercised row has a spec row, every spec row is exercised or
//! allowlisted, every coherence state is reached as a snoop context).

use std::collections::BTreeSet;

use vrcache::bus_api::SnoopReply;
use vrcache::hierarchy::BlockPresence;
use vrcache_bus::txn::{BusOp, BusTransaction};
use vrcache_mem::access::CpuId;
use vrcache_sim::snoop::SnoopObserver;

/// Stable lower-case label of a bus operation, as used in coverage rows.
pub fn op_label(op: BusOp) -> &'static str {
    match op {
        BusOp::ReadMiss => "read-miss",
        BusOp::ReadModifiedWrite => "read-modified-write",
        BusOp::Invalidate => "invalidate",
        BusOp::WriteBack => "write-back",
        BusOp::Update => "update",
    }
}

/// A deduplicated, ordered set of exercised transition rows.
///
/// Recording is the model checker's per-event cost, so a row is keyed
/// by its three static words and its text is built only the first time
/// that key is seen. Two sets are equal when their rows are.
#[derive(Debug, Clone, Default)]
pub struct CoverageSet {
    rows: BTreeSet<String>,
    /// `(hierarchy, context, op)` of every recorded row, all of which
    /// are in `rows` (parsed rows have no key).
    keys: BTreeSet<(&'static str, &'static str, &'static str)>,
}

impl PartialEq for CoverageSet {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl Eq for CoverageSet {}

impl CoverageSet {
    /// Records a snoop delivery.
    pub fn record_snoop(&mut self, hier: &'static str, before: BlockPresence, op: BusOp) {
        self.record(hier, before.label(), op_label(op));
    }

    /// Records a transaction issue.
    pub fn record_issue(&mut self, hier: &'static str, op: BusOp) {
        self.record(hier, "issue", op_label(op));
    }

    fn record(&mut self, hier: &'static str, context: &'static str, op: &'static str) {
        if self.keys.insert((hier, context, op)) {
            self.rows.insert(format!("{hier} {context} {op}"));
        }
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Merges another set into this one.
    pub fn merge(&mut self, other: &CoverageSet) {
        self.rows.extend(other.rows.iter().cloned());
        self.keys.extend(other.keys.iter().copied());
    }

    /// The rows, sorted.
    pub fn rows(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(String::as_str)
    }

    /// Renders the checked-in coverage file (header comment + sorted rows).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Transition coverage exercised by the vrcache-model checker.\n\
             # Regenerate: cargo run --release -p vrcache-model -- --scope all \
             --write-coverage crates/model/coverage.txt\n\
             # Row: <hierarchy> <context> <bus-op>. Context is the snooper's\n\
             # coherence standing before the snoop (absent/shared/private), or\n\
             # `issue` for the issuing side of the transaction.\n",
        );
        for row in self.rows() {
            out.push_str(row);
            out.push('\n');
        }
        out
    }

    /// Parses a coverage file (ignores `#` comments and blank lines).
    pub fn parse(text: &str) -> CoverageSet {
        let rows = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        CoverageSet {
            rows,
            keys: BTreeSet::new(),
        }
    }
}

/// A [`SnoopObserver`] that records every issue and snoop delivery into a
/// [`CoverageSet`] under a fixed hierarchy label.
pub struct Recorder<'a> {
    set: &'a mut CoverageSet,
    label: &'static str,
}

impl<'a> Recorder<'a> {
    /// Records into `set` under `label` ("vr" / "goodman").
    pub fn new(set: &'a mut CoverageSet, label: &'static str) -> Self {
        Recorder { set, label }
    }
}

impl SnoopObserver for Recorder<'_> {
    fn on_snoop(
        &mut self,
        _snooper: CpuId,
        before: BlockPresence,
        txn: &BusTransaction,
        _reply: &SnoopReply,
    ) {
        self.set.record_snoop(self.label, before, txn.op);
    }

    fn on_issue(&mut self, _source: CpuId, op: BusOp) {
        self.set.record_issue(self.label, op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_deduplicated_and_sorted() {
        let mut c = CoverageSet::default();
        c.record_snoop("vr", BlockPresence::Shared, BusOp::ReadMiss);
        c.record_snoop("vr", BlockPresence::Shared, BusOp::ReadMiss);
        c.record_issue("vr", BusOp::WriteBack);
        assert_eq!(c.len(), 2);
        let rows: Vec<&str> = c.rows().collect();
        assert_eq!(rows, vec!["vr issue write-back", "vr shared read-miss"]);
    }

    #[test]
    fn render_parse_round_trips() {
        let mut c = CoverageSet::default();
        c.record_snoop("goodman", BlockPresence::Private, BusOp::Invalidate);
        c.record_issue("goodman", BusOp::ReadMiss);
        let parsed = CoverageSet::parse(&c.render());
        assert_eq!(parsed, c);
    }

    #[test]
    fn op_labels_are_distinct_kebab_case_variant_names() {
        let labels: BTreeSet<&str> = BusOp::ALL.iter().map(|&op| op_label(op)).collect();
        assert_eq!(labels.len(), BusOp::ALL.len());
        for op in BusOp::ALL {
            // The transition lint derives the same label by kebab-casing the
            // `BusOp::Variant` identifier found in `fn snoop`; keep them equal.
            let kebab: String = format!("{op:?}")
                .chars()
                .enumerate()
                .flat_map(|(i, c)| {
                    let dash = if c.is_uppercase() && i > 0 {
                        Some('-')
                    } else {
                        None
                    };
                    dash.into_iter().chain(c.to_lowercase())
                })
                .collect();
            assert_eq!(op_label(op), kebab);
        }
    }
}
