//! Protocol transition-surface extraction and rendering.
//!
//! [`extract`] lifts the coherence transition relation out of the three
//! hierarchies' `snoop` handlers (paper Figure 3's tag states crossed
//! with the five bus operations) by parsing each handler with
//! [`flow::parse_fn`](crate::flow::parse_fn) and abstractly evaluating
//! it per `(state-before, bus-op)` query with
//! [`flow::eval_handler`](crate::flow::eval_handler). The result is a
//! byte-deterministic table — pinned in
//! `crates/analysis/protocol_spec.txt` and gated by the `protocol-spec`
//! lint — of rows
//!
//! ```text
//! <hierarchy> <state-before> <bus-op> -> <state-after> <reply> <actions>
//! ```
//!
//! plus `issue` rows recording which bus operations each hierarchy can
//! originate (`<hierarchy> issue <bus-op> -> - - <originating-fns>`),
//! which mirror the model checker's `issue` coverage context.
//!
//! Row grammar:
//!
//! * `<state-after>` — `|`-joined sorted set of possible post-snoop
//!   standings (`absent`, `shared`, `private`).
//! * `<reply>` — `copy` / `nocopy` / `copy?` (path-dependent), with a
//!   `+data` / `+data?` suffix when the reply supplies granule data.
//! * `<actions>` — comma-joined sorted observable event counters in
//!   kebab-case, each suffixed `?` when only some paths perform it;
//!   `-` when none.
//!
//! Determinism: extraction is a pure function of source text into
//! BTree-ordered structures; rendering sorts rows lexicographically.
//! Nothing here reads clocks, paths outside the workspace, or thread
//! schedules, so the table is byte-identical across runs and `--jobs`
//! values.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{parse_nodes, FnNode};
use crate::flow::{self, Ctx, FlowNode, Lens, Tri};
use crate::walk::{enum_variants, path_idents, scan_source};
use crate::Workspace;

/// Where the pinned spec lives, relative to the workspace root.
pub const SPEC_PATH: &str = "crates/analysis/protocol_spec.txt";

/// Fixed header of the pinned spec file.
pub const SPEC_HEADER: &str = "\
# protocol-spec — extracted coherence transition surface.
# Format: <hierarchy> <state-before> <bus-op> -> <state-after> <reply> <actions>
#         <hierarchy> issue <bus-op> -> - - <originating-fns>
# `?` marks a path-dependent (may) fact; `|` joins alternative states.
# Ratchet: any drift from the snoop handlers fails the `protocol-spec`
# lint. Regenerate after a clean tier-1 run with
# `REPIN=protocol scripts/check.sh` (or the lint binary's
# `--write protocol` flag).
";

/// One hierarchy the extractor knows how to read.
pub struct HierSpec {
    /// Table label and coverage.txt hierarchy name.
    pub label: &'static str,
    /// File expected to define the hierarchy (absence ⇒ hierarchy not
    /// part of this workspace; the lint skips it).
    pub home_file: &'static str,
    /// Impl self type of the `snoop` handler.
    pub self_ty: &'static str,
    /// Guard/statement needles for this hierarchy's home array (they
    /// must also match the shared impl's spelling of it).
    pub lens: Lens,
    /// The impl this hierarchy delegates its shared protocol steps to:
    /// its `snoop_*` helpers are inlined where called, and its
    /// `BusRequest::` sites count as this hierarchy's issue sites.
    pub shared: Option<ImplRef>,
}

/// An impl block the extractor reads: its file and self type.
pub struct ImplRef {
    /// File defining the impl.
    pub file: &'static str,
    /// The impl's self type.
    pub self_ty: &'static str,
}

/// The second level (R-cache and write buffer) that V-R and R-R share.
const SECOND_LEVEL: ImplRef = ImplRef {
    file: "crates/core/src/rcache.rs",
    self_ty: "SecondLevel",
};

/// The home-array needles of an organization whose home array is the
/// shared second level's R-cache (`self.cache` inside the shared impl,
/// `self.l2.cache` in the hierarchy).
const SECOND_LEVEL_LENS: Lens = Lens {
    presence: &[".cache.peek", ".cache.lookup"],
    home_invalidate: &[".cache.invalidate("],
    private_bit: None,
};

/// The three hierarchies of the paper's evaluation.
pub const HIERARCHIES: &[HierSpec] = &[
    HierSpec {
        label: "vr",
        home_file: "crates/core/src/vr.rs",
        self_ty: "VrHierarchy",
        lens: SECOND_LEVEL_LENS,
        shared: Some(SECOND_LEVEL),
    },
    HierSpec {
        label: "rr",
        home_file: "crates/core/src/rr.rs",
        self_ty: "RrHierarchy",
        lens: SECOND_LEVEL_LENS,
        shared: Some(SECOND_LEVEL),
    },
    HierSpec {
        label: "goodman",
        home_file: "crates/core/src/goodman.rs",
        self_ty: "GoodmanHierarchy",
        lens: Lens {
            presence: &[".directory.get("],
            home_invalidate: &[".directory.remove("],
            private_bit: Some(".directory.insert("),
        },
        shared: None,
    },
];

/// The extracted transition surface of one workspace.
#[derive(Debug, Default)]
pub struct ProtocolSurface {
    /// Rendered rows, sorted — the body of `protocol_spec.txt`.
    pub rows: Vec<String>,
    /// `(hierarchy, state-before, op)` keys of the snoop rows.
    pub snoop_keys: BTreeSet<(String, String, String)>,
    /// `(hierarchy, op)` keys of the issue rows.
    pub issue_keys: BTreeSet<(String, String)>,
    /// `(hierarchy, op)` pairs dead in *every* state (rejected by
    /// design) — these must be allowlisted with a reason.
    pub dead: BTreeSet<(String, String)>,
    /// `(hierarchy, state, op)` combinations individually dead while the
    /// op is live in some other state.
    pub dead_states: BTreeSet<(String, String, String)>,
    /// Hierarchies that resolved (home file present, snoop found).
    pub hiers: BTreeSet<String>,
    /// Hierarchies whose home file exists but whose `snoop` handler the
    /// extractor could not find — a lint error, not a silent skip.
    pub missing_snoop: Vec<String>,
}

/// CamelCase → kebab-case (`ReadModifiedWrite` → `read-modified-write`),
/// matching the model checker's label convention.
pub fn kebab_case(ident: &str) -> String {
    let mut out = String::new();
    for c in ident.chars() {
        if c.is_ascii_uppercase() {
            if !out.is_empty() {
                out.push('-');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// The bus-op variant universe: the `BusOp` enum declared in
/// `crates/bus/src/txn.rs` when the workspace has it, otherwise the
/// union of `BusOp::X` / `BusRequest::X` mentions across the hierarchy
/// home files (the fixture-workspace fallback).
fn bus_op_variants(ws: &Workspace) -> Vec<String> {
    let declared = ws
        .file("crates/bus/src/txn.rs")
        .map(|f| enum_variants(&f.text, "BusOp").0)
        .unwrap_or_default();
    if !declared.is_empty() {
        return declared;
    }
    let mut seen = BTreeSet::new();
    for file in HIERARCHIES.iter().filter_map(|h| ws.file(h.home_file)) {
        for line in scan_source(&file.text) {
            for marker in ["BusOp::", "BusRequest::"] {
                seen.extend(path_idents(&line.code, marker).filter(|ident| ident != "ALL"));
            }
        }
    }
    seen.into_iter().collect()
}

fn reply_label(has_copy: Tri, supplied: Tri) -> String {
    let mut out = match has_copy {
        Tri::Yes => "copy".to_string(),
        Tri::May => "copy?".to_string(),
        Tri::No => "nocopy".to_string(),
    };
    match supplied {
        Tri::Yes => out.push_str("+data"),
        Tri::May => out.push_str("+data?"),
        Tri::No => {}
    }
    out
}

fn actions_label(actions: &BTreeMap<String, Tri>) -> String {
    if actions.is_empty() {
        return "-".to_string();
    }
    let mut parts = Vec::new();
    for (name, tri) in actions {
        match tri {
            Tri::Yes => parts.push(name.clone()),
            Tri::May => parts.push(format!("{name}?")),
            Tri::No => {}
        }
    }
    if parts.is_empty() {
        return "-".to_string();
    }
    parts.join(",")
}

fn states_label(states: &BTreeSet<Ctx>) -> String {
    if states.is_empty() {
        return "-".to_string();
    }
    let labels: BTreeSet<&str> = states.iter().map(|s| s.label()).collect();
    labels.into_iter().collect::<Vec<_>>().join("|")
}

/// Extracts the full transition surface of the workspace.
pub fn extract(ws: &Workspace) -> ProtocolSurface {
    let mut surface = ProtocolSurface::default();
    let variants = bus_op_variants(ws);
    for h in HIERARCHIES {
        let Some(file) = ws.file(h.home_file) else {
            continue;
        };
        let nodes = parse_nodes(h.home_file, &file.text);
        let of_ty: Vec<&FnNode> = nodes
            .iter()
            .filter(|n| n.self_ty.as_deref() == Some(h.self_ty))
            .collect();
        if of_ty.is_empty() {
            continue;
        }
        let Some(snoop) = of_ty.iter().find(|n| n.name == "snoop") else {
            surface.missing_snoop.push(h.label.to_string());
            continue;
        };
        surface.hiers.insert(h.label.to_string());
        let snoop_tree = flow::parse_fn(&snoop.body);
        let shared_nodes = h
            .shared
            .as_ref()
            .and_then(|s| Some((s, ws.file(s.file)?)))
            .map(|(s, f)| parse_nodes(s.file, &f.text))
            .unwrap_or_default();
        let shared: Vec<&FnNode> = shared_nodes
            .iter()
            .filter(|n| h.shared.as_ref().map(|s| s.self_ty) == n.self_ty.as_deref())
            .collect();
        // The hierarchy's own helpers first: a shared helper of the same
        // name is reached only through its receiver (`self.l2.snoop_read(`).
        let own = of_ty.iter().map(|n| (format!("self.{}(", n.name), *n));
        let delegated = shared.iter().map(|n| (format!(".{}(", n.name), *n));
        let helpers: Vec<(String, Vec<FlowNode>)> = own
            .chain(delegated)
            .filter(|(_, n)| n.name.starts_with("snoop_"))
            .map(|(call, n)| (call, flow::parse_fn(&n.body)))
            .collect();
        for variant in &variants {
            let op = kebab_case(variant);
            let mut live_in_any = false;
            for init in [Ctx::Absent, Ctx::Shared, Ctx::Private] {
                let outcome = flow::eval_handler(&snoop_tree, &h.lens, &helpers, variant, init);
                if !outcome.live {
                    surface.dead_states.insert((
                        h.label.to_string(),
                        init.label().to_string(),
                        op.clone(),
                    ));
                    continue;
                }
                live_in_any = true;
                surface.rows.push(format!(
                    "{} {} {} -> {} {} {}",
                    h.label,
                    init.label(),
                    op,
                    states_label(&outcome.states),
                    reply_label(outcome.has_copy, outcome.supplied),
                    actions_label(&outcome.actions),
                ));
                surface.snoop_keys.insert((
                    h.label.to_string(),
                    init.label().to_string(),
                    op.clone(),
                ));
            }
            if !live_in_any {
                surface.dead.insert((h.label.to_string(), op.clone()));
            }
        }
        // Issue rows: which ops this hierarchy originates, from
        // `BusRequest::X` construction sites anywhere in the impl or the
        // shared impl it delegates to.
        let mut issuers: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for n in of_ty.iter().chain(&shared) {
            for (_, code) in &n.body {
                for ident in path_idents(code, "BusRequest::") {
                    if variants.contains(&ident) {
                        issuers
                            .entry(kebab_case(&ident))
                            .or_default()
                            .insert(n.name.clone());
                    }
                }
            }
        }
        for (op, fns) in issuers {
            surface.rows.push(format!(
                "{} issue {} -> - - {}",
                h.label,
                op,
                fns.into_iter().collect::<Vec<_>>().join(",")
            ));
            surface.issue_keys.insert((h.label.to_string(), op));
        }
    }
    surface.rows.sort();
    surface
}

/// Renders the pinned-file body: header plus sorted rows.
pub fn render(surface: &ProtocolSurface) -> String {
    let mut out = String::from(SPEC_HEADER);
    for row in &surface.rows {
        out.push_str(row);
        out.push('\n');
    }
    out
}

/// Human-readable per-hierarchy report for `--report protocol`.
pub fn report(surface: &ProtocolSurface) -> String {
    let mut out = String::new();
    for h in HIERARCHIES {
        if !surface.hiers.contains(h.label) {
            continue;
        }
        out.push_str(&format!("== {} ==\n", h.label));
        for row in &surface.rows {
            if row.starts_with(&format!("{} ", h.label)) {
                out.push_str(row);
                out.push('\n');
            }
        }
        let dead: Vec<&str> = surface
            .dead
            .iter()
            .filter(|(hier, _)| hier == h.label)
            .map(|(_, op)| op.as_str())
            .collect();
        if !dead.is_empty() {
            out.push_str(&format!("dead ops: {}\n", dead.join(", ")));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            sources: files
                .iter()
                .map(|(p, t)| crate::SourceFile::new(*p, *t))
                .collect(),
            ..Default::default()
        }
    }

    const MINI_VR: &str = "\
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
            BusOp::WriteBack => SnoopReply::default(),
            BusOp::Update => {
                debug_assert!(false, \"not handled\");
                SnoopReply::default()
            }
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
}
";

    #[test]
    fn mini_workspace_rows_and_dead_ops() {
        let w = ws(&[("crates/core/src/vr.rs", MINI_VR)]);
        let s = extract(&w);
        assert!(s.hiers.contains("vr"), "{:?}", s.hiers);
        // Update rejects in every state → a dead pair.
        assert!(
            s.dead.contains(&("vr".into(), "update".into())),
            "{:?}",
            s.dead
        );
        // Read-miss from shared keeps the line shared with a flush.
        assert!(
            s.rows
                .contains(&"vr shared read-miss -> shared copy flush-v".to_string()),
            "{:#?}",
            s.rows
        );
        // Read-miss from absent is a clean nocopy.
        assert!(
            s.rows
                .contains(&"vr absent read-miss -> absent nocopy -".to_string()),
            "{:#?}",
            s.rows
        );
        // Invalidate from a resident state empties the home array.
        assert!(
            s.rows
                .contains(&"vr shared invalidate -> absent copy inval-v".to_string()),
            "{:#?}",
            s.rows
        );
        // Write-back is ignored in every state.
        assert!(
            s.rows
                .contains(&"vr private write-back -> private nocopy -".to_string()),
            "{:#?}",
            s.rows
        );
    }

    #[test]
    fn extraction_is_deterministic() {
        let w = ws(&[("crates/core/src/vr.rs", MINI_VR)]);
        let a = render(&extract(&w));
        let b = render(&extract(&w));
        assert_eq!(a, b);
    }

    #[test]
    fn issue_rows_from_bus_request_sites() {
        let src = "\
impl VrHierarchy {
    fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
        SnoopReply::default()
    }
    fn miss(&mut self) {
        self.bus.issue(BusRequest::ReadMiss { block });
    }
}
";
        let w = ws(&[("crates/core/src/vr.rs", src)]);
        let s = extract(&w);
        assert!(
            s.issue_keys.contains(&("vr".into(), "read-miss".into())),
            "{:?}",
            s.issue_keys
        );
        assert!(
            s.rows
                .contains(&"vr issue read-miss -> - - miss".to_string()),
            "{:#?}",
            s.rows
        );
    }

    #[test]
    fn helper_methods_do_not_leak_into_the_snoop_surface() {
        // `snoop_read` mentions Update, but the handler has no Update
        // arm: the op stays dead and only the handler's own arm lives.
        let src = "\
impl VrHierarchy {
    fn snoop_read(&mut self) {
        BusOp::Update;
    }
    fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
        match txn.op { BusOp::ReadMiss => x() }
    }
}
";
        let s = extract(&ws(&[("crates/core/src/vr.rs", src)]));
        assert!(
            s.rows
                .contains(&"vr absent read-miss -> absent nocopy -".to_string()),
            "{:#?}",
            s.rows
        );
        assert!(s.dead.contains(&("vr".into(), "update".into())));
    }

    #[test]
    fn kebab_matches_model_labels() {
        assert_eq!(kebab_case("ReadMiss"), "read-miss");
        assert_eq!(kebab_case("ReadModifiedWrite"), "read-modified-write");
        assert_eq!(kebab_case("WriteBack"), "write-back");
        assert_eq!(kebab_case("Update"), "update");
    }
}
