//! Deterministic source-level mutation testing for the V/R coherence
//! protocol.
//!
//! PR 2's model checker proves the protocol holds its invariants over
//! every reachable small-scope state — but nothing proves the test
//! stack would *notice* a broken protocol. This crate closes that loop:
//! it injects small, targeted faults (mutants) into the protocol-critical
//! sources ([`TARGET_FILES`]) and checks that some stage of the kill
//! pipeline (build, unit tests, model-checker smoke scopes) fails.
//!
//! Operators, in report-label order:
//!
//! * **arm-swap / arm-unify** — exchange (or unify) the bodies of
//!   adjacent single-line `match` arms whose patterns mention `BusOp::`
//!   or `CohState::`: the classic "wrong coherence arm" fault.
//! * **cmp-flip** — negate a spaced comparison operator (`==` ↔ `!=`,
//!   `<` ↔ `>=`, `<=` ↔ `>`).
//! * **early-return** — make a unit function return immediately, or a
//!   `-> bool` function return a constant: deletes whole protocol steps.
//! * **flag-flip** — invert the value assigned to one of the paper's
//!   protocol bits ([`FLAG_WORDS`]: inclusion, buffer, vdirty, dirty,
//!   swapped, …), in `=` assignments and struct-literal fields.
//! * **flag-negate** — negate an `if` condition that tests a protocol
//!   bit.
//! * **off-by-one** — shift a `± 1` boundary to `± 2`, or a `0..` range
//!   start to `1..`.
//!
//! Everything is deterministic: generation is a pure function of the
//! source text, each mutant carries a stable content-hash [`MutantId`]
//! (independent of unrelated-line edits), and reports/baselines are
//! rendered in sorted order. The surviving-mutant set is pinned in
//! `crates/mutate/baseline.txt` and enforced by the `mutation-baseline`
//! lint in `vrcache-analysis`.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod baseline;
pub mod operators;
pub mod report;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Protocol-critical files the engine mutates, relative to the
/// workspace root (sorted).
pub const TARGET_FILES: &[&str] = &[
    "crates/cache/src/replacement.rs",
    "crates/cache/src/write_buffer.rs",
    "crates/core/src/fault.rs",
    "crates/core/src/goodman.rs",
    "crates/core/src/hierarchy.rs",
    "crates/core/src/inclusion.rs",
    "crates/core/src/rcache.rs",
    "crates/core/src/rr.rs",
    "crates/core/src/vcache.rs",
    "crates/core/src/vr.rs",
];

/// The protocol bits the flag operators target — the Wang–Baer–Levy
/// per-block state the hierarchy's correctness hangs on.
pub const FLAG_WORDS: &[&str] = &[
    "buffer",
    "buffered",
    "dirty",
    "incl",
    "inclusion",
    "rdirty",
    "shared",
    "swapped",
    "vdirty",
];

/// A mutation operator. Ordering is the stable report-label order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operator {
    /// Swap the bodies of two adjacent coherence match arms.
    ArmSwap,
    /// Replace one coherence arm's body with its neighbour's.
    ArmUnify,
    /// Negate a comparison operator.
    CmpFlip,
    /// Return immediately from a unit or `-> bool` function.
    EarlyReturn,
    /// Invert the value assigned to a protocol flag.
    FlagFlip,
    /// Negate an `if` condition testing a protocol flag.
    FlagNegate,
    /// Shift a boundary by one.
    OffByOne,
}

impl Operator {
    /// Every operator, in label order.
    pub const ALL: &'static [Operator] = &[
        Operator::ArmSwap,
        Operator::ArmUnify,
        Operator::CmpFlip,
        Operator::EarlyReturn,
        Operator::FlagFlip,
        Operator::FlagNegate,
        Operator::OffByOne,
    ];

    /// Stable kebab-case label used in reports and the baseline.
    pub fn name(self) -> &'static str {
        match self {
            Operator::ArmSwap => "arm-swap",
            Operator::ArmUnify => "arm-unify",
            Operator::CmpFlip => "cmp-flip",
            Operator::EarlyReturn => "early-return",
            Operator::FlagFlip => "flag-flip",
            Operator::FlagNegate => "flag-negate",
            Operator::OffByOne => "off-by-one",
        }
    }

    /// Parses a label produced by [`Operator::name`].
    pub fn parse(s: &str) -> Option<Operator> {
        Operator::ALL.iter().copied().find(|op| op.name() == s)
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable content-hash identity of a mutant: FNV-1a over the file path,
/// operator label, and each edit's original/mutated text (plus an
/// occurrence ordinal for textually identical mutations of the same
/// file). Line numbers are *not* hashed, so IDs survive edits to
/// unrelated lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MutantId(pub u64);

impl fmt::Display for MutantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl MutantId {
    /// Parses the 16-hex-digit form rendered by `Display`.
    pub fn parse(s: &str) -> Option<MutantId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(MutantId)
    }
}

/// One single-line edit: replace `original` (which must match the file
/// byte-for-byte at `line`) with `mutated`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// 1-based line number in the target file.
    pub line: usize,
    /// The exact current text of that line.
    pub original: String,
    /// The replacement text.
    pub mutated: String,
}

/// A generated mutant: one operator application to one target file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutant {
    /// Stable content-hash identity.
    pub id: MutantId,
    /// Target file, relative to the workspace root.
    pub file: String,
    /// The operator that produced it.
    pub op: Operator,
    /// Primary line (the first edit's line), for reporting.
    pub line: usize,
    /// The line edits that realize the mutation.
    pub edits: Vec<Edit>,
    /// One-line human description of the fault.
    pub description: String,
}

/// A failure to apply or revert a mutant against drifted source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateError {
    /// An edit references a line past the end of the file.
    LineOutOfRange {
        /// 1-based line the edit wanted.
        line: usize,
        /// Number of lines actually present.
        len: usize,
    },
    /// The file's line no longer matches what the edit expects.
    SourceMismatch {
        /// 1-based line that mismatched.
        line: usize,
        /// What the edit expected to find there.
        expected: String,
        /// What the file actually contains.
        found: String,
    },
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::LineOutOfRange { line, len } => {
                write!(f, "edit targets line {line} but the file has {len} lines")
            }
            MutateError::SourceMismatch {
                line,
                expected,
                found,
            } => write!(
                f,
                "line {line} drifted: expected `{expected}`, found `{found}`"
            ),
        }
    }
}

impl std::error::Error for MutateError {}

impl Mutant {
    /// Applies the mutant to pristine source, returning the mutated text.
    ///
    /// # Errors
    ///
    /// Fails without modifying anything if any edited line does not match
    /// the source the mutant was generated from.
    pub fn apply(&self, source: &str) -> Result<String, MutateError> {
        patch(source, &self.edits, false)
    }

    /// Reverts the mutant, restoring byte-identical pristine source.
    ///
    /// # Errors
    ///
    /// Fails if any edited line does not carry the mutated text.
    pub fn revert(&self, mutated: &str) -> Result<String, MutateError> {
        patch(mutated, &self.edits, true)
    }
}

fn patch(source: &str, edits: &[Edit], reverse: bool) -> Result<String, MutateError> {
    let mut lines: Vec<&str> = source.lines().collect();
    for edit in edits {
        let (from, to) = if reverse {
            (&edit.mutated, &edit.original)
        } else {
            (&edit.original, &edit.mutated)
        };
        let idx = edit
            .line
            .checked_sub(1)
            .filter(|&i| i < lines.len())
            .ok_or(MutateError::LineOutOfRange {
                line: edit.line,
                len: lines.len(),
            })?;
        if lines[idx] != from {
            return Err(MutateError::SourceMismatch {
                line: edit.line,
                expected: from.clone(),
                found: lines[idx].to_string(),
            });
        }
        lines[idx] = to;
    }
    let mut out = lines.join("\n");
    if source.ends_with('\n') {
        out.push('\n');
    }
    Ok(out)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Content hash of a mutation, before occurrence disambiguation.
fn content_hash(file: &str, op: Operator, edits: &[Edit]) -> u64 {
    let mut h = fnv(FNV_OFFSET, file.as_bytes());
    h = fnv(h, &[0]);
    h = fnv(h, op.name().as_bytes());
    for edit in edits {
        h = fnv(h, &[0]);
        h = fnv(h, edit.original.as_bytes());
        h = fnv(h, &[0]);
        h = fnv(h, edit.mutated.as_bytes());
    }
    h
}

/// Generates every mutant for the [`TARGET_FILES`] present in `sources`
/// (path, text) pairs. Non-target paths are ignored. The result is
/// sorted by (file, line, operator, id) and its IDs are stable across
/// runs and across edits to unrelated lines.
pub fn generate(sources: &[(&str, &str)]) -> Vec<Mutant> {
    let mut files: Vec<(&str, &str)> = sources
        .iter()
        .copied()
        .filter(|(path, _)| TARGET_FILES.contains(path))
        .collect();
    files.sort_by_key(|&(path, _)| path);
    files.dedup_by_key(|&mut (path, _)| path);

    let mut out = Vec::new();
    for (path, text) in files {
        let mut occurrences: BTreeMap<u64, u64> = BTreeMap::new();
        for proto in operators::mutate_file(text) {
            let base = content_hash(path, proto.op, &proto.edits);
            let occ = occurrences.entry(base).or_insert(0);
            let id = MutantId(fnv(base, &occ.to_le_bytes()));
            *occ += 1;
            out.push(Mutant {
                id,
                file: path.to_string(),
                op: proto.op,
                line: proto.edits[0].line,
                edits: proto.edits,
                description: proto.description,
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.op, a.id).cmp(&(&b.file, b.line, b.op, b.id)));
    out
}

/// Deterministic bounded subset for the CI smoke job: round-robin over
/// the target files (path order), taking each file's mutants in
/// generated order, until `cap` mutants are selected.
pub fn smoke_subset(mutants: &[Mutant], cap: usize) -> Vec<Mutant> {
    let mut queues: BTreeMap<&str, std::collections::VecDeque<&Mutant>> = BTreeMap::new();
    for m in mutants {
        queues.entry(&m.file).or_default().push_back(m);
    }
    let mut picked = Vec::new();
    while picked.len() < cap {
        let mut took_any = false;
        for queue in queues.values_mut() {
            if picked.len() >= cap {
                break;
            }
            if let Some(m) = queue.pop_front() {
                picked.push(m.clone());
                took_any = true;
            }
        }
        if !took_any {
            break;
        }
    }
    picked.sort_by(|a, b| (&a.file, a.line, a.op, a.id).cmp(&(&b.file, b.line, b.op, b.id)));
    picked
}

/// Strips the `//`-comment tail of a source line, respecting string
/// literals (same contract as the copy in `vrcache-analysis`; kept
/// local so the engine stays dependency-free).
pub fn code_portion(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// True when `word` occurs in `haystack` delimited by non-identifier
/// characters.
pub fn contains_word(haystack: &str, word: &str) -> bool {
    let bytes = haystack.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let at = start + pos;
        let end = at + word.len();
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` contains a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

/// Reads every [`TARGET_FILES`] entry under `root` as (rel-path, text)
/// pairs, in path order.
///
/// # Errors
///
/// Propagates the filesystem error for any missing or unreadable target.
pub fn load_targets(root: &Path) -> io::Result<Vec<(String, String)>> {
    TARGET_FILES
        .iter()
        .map(|rel| Ok((rel.to_string(), fs::read_to_string(root.join(rel))?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mutant() -> (String, Mutant) {
        let source = "fn f() {\n    let x = a == b;\n}\n".to_string();
        let mutants = generate(&[("crates/core/src/inclusion.rs", &source)]);
        let m = mutants
            .iter()
            .find(|m| m.op == Operator::CmpFlip)
            .expect("sample source yields a cmp-flip")
            .clone();
        (source, m)
    }

    #[test]
    fn apply_then_revert_round_trips() {
        let (source, m) = sample_mutant();
        let mutated = m.apply(&source).expect("apply");
        assert_ne!(mutated, source, "mutation changes the source");
        assert_eq!(m.revert(&mutated).expect("revert"), source);
    }

    #[test]
    fn apply_rejects_drifted_source() {
        let (_, m) = sample_mutant();
        let drifted = "fn f() {\n    let x = a + b;\n}\n";
        assert!(matches!(
            m.apply(drifted),
            Err(MutateError::SourceMismatch { .. })
        ));
        assert!(matches!(
            m.apply(""),
            Err(MutateError::LineOutOfRange { .. })
        ));
    }

    #[test]
    fn ids_are_stable_and_line_independent() {
        let source = "fn f() {\n    let x = a == b;\n}\n";
        let shifted = "fn g() {}\n\nfn f() {\n    let x = a == b;\n}\n";
        let a = generate(&[("crates/core/src/inclusion.rs", source)]);
        let b = generate(&[("crates/core/src/inclusion.rs", shifted)]);
        let ids_a: Vec<MutantId> = a.iter().map(|m| m.id).collect();
        let ids_b: Vec<MutantId> = b.iter().map(|m| m.id).collect();
        assert_eq!(ids_a, ids_b, "shifting lines must not change IDs");
        assert_ne!(a[0].line, b[0].line);
    }

    #[test]
    fn identical_mutations_get_distinct_ids() {
        let source = "fn f() {\n    let x = a == b;\n    let y = a == b;\n}\n";
        let mutants = generate(&[("crates/core/src/inclusion.rs", source)]);
        let cmp: Vec<&Mutant> = mutants
            .iter()
            .filter(|m| m.op == Operator::CmpFlip)
            .collect();
        assert_eq!(cmp.len(), 2);
        assert_ne!(cmp[0].id, cmp[1].id);
    }

    #[test]
    fn non_target_paths_are_ignored() {
        assert!(generate(&[("crates/sim/src/system.rs", "let x = a == b;\n")]).is_empty());
    }

    #[test]
    fn id_round_trips_through_display() {
        let id = MutantId(0x0123_4567_89ab_cdef);
        assert_eq!(MutantId::parse(&id.to_string()), Some(id));
        assert_eq!(MutantId::parse("xyz"), None);
    }

    #[test]
    fn operator_labels_round_trip() {
        for &op in Operator::ALL {
            assert_eq!(Operator::parse(op.name()), Some(op));
        }
    }

    #[test]
    fn smoke_subset_is_bounded_and_deterministic() {
        let source = "fn f() {\n    let x = a == b;\n    let y = c < d;\n}\n";
        let mutants = generate(&[
            ("crates/core/src/inclusion.rs", source),
            ("crates/core/src/vcache.rs", source),
        ]);
        let a = smoke_subset(&mutants, 3);
        let b = smoke_subset(&mutants, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Round-robin pulls from both files before exhausting one.
        let files: std::collections::BTreeSet<&str> = a.iter().map(|m| m.file.as_str()).collect();
        assert_eq!(files.len(), 2);
    }
}
