//! Interprocedural address-domain dataflow analysis.
//!
//! The address newtypes of `vrcache_mem::addr` stop a *direct* mix-up —
//! a `VirtAddr` cannot be passed where a `PhysAddr` is expected — but
//! the moment a value escapes through `.raw()` the type system is out
//! of the loop: a raw virtual address can flow through two function
//! calls and re-enter as a `PhysAddr::new(..)` or a set-index
//! computation without a compiler whisper. This module closes that hole
//! statically: it assigns every function parameter, return value and
//! local binding in the simulator crates an **abstract domain**, seeded
//! from the newtype annotations, and propagates values across the call
//! sites it resolves in the [`FnNode`] bodies to a fixpoint.
//!
//! # The lattice
//!
//! A tracked quantity belongs to one of the typed [`Domain`]s —
//! `Virtual`, `Physical`, `Vpn`, `Ppn`, `Asid`, `SetIndex`, `Tag`,
//! `Offset` — or is *raw* (escaped via `.raw()`, arithmetic, a cast or
//! an integer literal). An abstract value ([`AbsVal`]) carries the set
//! of typed domains witnessed to flow into it plus an `other` bit for
//! untracked contributions; the three-valued classification the lint
//! reports is derived from it:
//!
//! * `exactly(d)` — one witnessed domain, no untracked contribution;
//! * `may(d1|d2|…)` — several witnessed domains (an appended `?` marks
//!   an additional untracked contribution);
//! * `unknown` — no witnessed domain at all.
//!
//! The join is set union (plus or on the `other`/`raw` bits): monotone
//! over a finite lattice, so the interprocedural iteration terminates.
//!
//! # Flow rules
//!
//! Values are seeded at newtype-annotated parameters, struct fields and
//! function returns (wrapper types like `Option<Ppn>` count), and at
//! `D::new(..)` / `D::from(..)` constructor results. `.raw()`, integer
//! casts and arithmetic keep the witnessed domains but set the *raw*
//! provenance bit. At a **sink** — a constructor argument, a
//! domain-annotated parameter position, a struct-field initializer or
//! assignment — the analysis flags:
//!
//! * **(a) cross-domain flow**: a value witnessing domain `d` reaching
//!   a sink of domain `D ≠ d` (kind `<d>-to-<D>`, `may-` prefixed when
//!   the value is not exact);
//! * **(b) raw re-entry**: the same, with the raw provenance bit set —
//!   the value escaped a newtype as a raw integer and re-enters a
//!   *different* domain (kind `raw-<d>-to-<D>`); re-entering the same
//!   domain (masking, alignment) is legal;
//! * **mixed raw parameters**: a bare-integer parameter whose inferred
//!   join witnesses both a virtual-family (`Virtual`/`Vpn`) and a
//!   physical-family (`Physical`/`Ppn`) domain (kind
//!   `mixed-raw-param`) — the classic "one helper indexed by both
//!   spaces" seam the paper's organization must keep apart.
//!
//! # Sanctioned translations
//!
//! Crossing between the spaces is the *point* of an address
//! translation, so two escape hatches exist. Everything in `crates/mem`
//! is exempt as a body (it owns the raw representation: the TLB
//! translate path, the page-table walk, the `Vpn` ↔ `VirtAddr` shifts
//! in `PageSize`) — though calls *into* its annotated parameters are
//! still checked. And the [`SANCTIONED`] registry names the reviewed
//! bridge functions outside `crates/mem` (the typed block-id entry
//! points, the ASID-salted v-pointer key): their bodies are neither
//! scanned for sinks nor propagated from.
//!
//! The `address-domain` lint (`lints/domain.rs`) fails on every flagged
//! site: the sanctioned seams are the reviewed allowlist.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{parse_nodes, FnNode};
use crate::flow::{self, split_args, split_top, split_top_once};
use crate::{contains_word, find_word, Workspace};

/// A flagged site key: `(file, qualified fn, kind)`.
pub type SiteKey = (String, String, String);

/// Flagged sites: key → the 1-based lines of its occurrences.
pub type Sites = BTreeMap<SiteKey, Vec<usize>>;

/// The owning crate of a workspace path: `crates/<name>/…` → `<name>`,
/// otherwise the first path component (`tests`, `examples`).
pub fn crate_of(file: &str) -> &str {
    let mut parts = file.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(c)) => c,
        (Some(first), _) => first,
        (None, _) => "",
    }
}

/// The crates whose sources the analysis covers: the simulator proper.
/// The tooling crates (model/mutate/inject/exec/bench/analysis) drive
/// the simulator through its typed API and are not address-manipulating
/// code.
pub const ANALYZED_CRATES: &[&str] = &["core", "cache", "mem", "bus", "trace", "sim"];

/// Reviewed translation bridges outside `crates/mem`: `(self type,
/// method, why)`. Their bodies are exempt from sink checks and do not
/// propagate into callees — they *are* the sanctioned raw seam.
pub const SANCTIONED: &[(&str, &str, &str)] = &[
    (
        "CacheGeometry",
        "vblock_of",
        "typed virtual-address entry into the space-ambiguous block-id domain",
    ),
    (
        "CacheGeometry",
        "pblock_of",
        "typed physical-address entry into the space-ambiguous block-id domain",
    ),
    (
        "VrHierarchy",
        "v_key",
        "v-pointer key construction: packs the ASID into the virtual block id \
         under the AsidTags context-switch alternative",
    ),
];

/// One typed address domain (see the module docs for the lattice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Domain {
    /// A virtual byte address (`VirtAddr`).
    Virtual,
    /// A physical byte address (`PhysAddr`).
    Physical,
    /// A virtual page number (`Vpn`).
    Vpn,
    /// A physical page number (`Ppn`).
    Ppn,
    /// An address-space identifier (`Asid`).
    Asid,
    /// A cache set index (`SetIndex`).
    SetIndex,
    /// A cache tag (`Tag`).
    Tag,
    /// A within-page byte offset (`PageOffset`).
    Offset,
}

/// Address-space families for the mixed-raw-param rule: virtual-family
/// and physical-family domains must never join in one raw parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `Virtual` / `Vpn`.
    V,
    /// `Physical` / `Ppn`.
    P,
}

impl Domain {
    /// The newtype name that seeds this domain.
    pub const fn type_name(self) -> &'static str {
        match self {
            Domain::Virtual => "VirtAddr",
            Domain::Physical => "PhysAddr",
            Domain::Vpn => "Vpn",
            Domain::Ppn => "Ppn",
            Domain::Asid => "Asid",
            Domain::SetIndex => "SetIndex",
            Domain::Tag => "Tag",
            Domain::Offset => "PageOffset",
        }
    }

    /// The lowercase label used in flag kinds and reports.
    pub const fn label(self) -> &'static str {
        match self {
            Domain::Virtual => "virtual",
            Domain::Physical => "physical",
            Domain::Vpn => "vpn",
            Domain::Ppn => "ppn",
            Domain::Asid => "asid",
            Domain::SetIndex => "set-index",
            Domain::Tag => "tag",
            Domain::Offset => "offset",
        }
    }

    /// Every tracked domain, in lattice order.
    pub const ALL: &'static [Domain] = &[
        Domain::Virtual,
        Domain::Physical,
        Domain::Vpn,
        Domain::Ppn,
        Domain::Asid,
        Domain::SetIndex,
        Domain::Tag,
        Domain::Offset,
    ];

    /// The domain a type annotation names, if any (`&VirtAddr`,
    /// `Option<Ppn>` and other wrappers count — the newtype word is
    /// searched with identifier boundaries).
    pub fn of_type(ty: &str) -> Option<Domain> {
        Domain::ALL
            .iter()
            .copied()
            .find(|d| contains_word(ty, d.type_name()))
    }

    /// The address-space family, for domains that have one.
    pub const fn family(self) -> Option<Family> {
        match self {
            Domain::Virtual | Domain::Vpn => Some(Family::V),
            Domain::Physical | Domain::Ppn => Some(Family::P),
            _ => None,
        }
    }
}

/// An abstract value: the typed domains witnessed to flow into it, an
/// `other` bit for untracked contributions, and the raw-provenance bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbsVal {
    /// Typed domains witnessed in the value's provenance.
    pub doms: BTreeSet<Domain>,
    /// True when something untracked also contributed.
    pub other: bool,
    /// True when the value passed through `.raw()`, a cast, arithmetic
    /// or an integer literal — it is a bare integer at this point.
    pub raw: bool,
}

impl AbsVal {
    /// The bottom element: nothing witnessed yet.
    pub fn bottom() -> AbsVal {
        AbsVal::default()
    }

    /// An untracked value.
    pub fn unknown() -> AbsVal {
        AbsVal {
            other: true,
            ..AbsVal::default()
        }
    }

    /// A value of exactly one typed domain.
    pub fn exactly(d: Domain) -> AbsVal {
        AbsVal {
            doms: [d].into_iter().collect(),
            other: false,
            raw: false,
        }
    }

    /// Lattice join: union of witnesses, or of the flag bits. Returns
    /// true when `self` changed (the fixpoint driver's change signal).
    pub fn join(&mut self, other: &AbsVal) -> bool {
        let before = (self.doms.len(), self.other, self.raw);
        self.doms.extend(other.doms.iter().copied());
        self.other |= other.other;
        self.raw |= other.raw;
        before != (self.doms.len(), self.other, self.raw)
    }

    /// True when the value is exactly one typed domain (no untracked
    /// contribution).
    pub fn is_exact(&self) -> bool {
        self.doms.len() == 1 && !self.other
    }

    /// The three-valued rendering: `exactly(d)` / `may(d1|d2|?)` /
    /// `unknown`.
    pub fn render(&self) -> String {
        if self.doms.is_empty() {
            return "unknown".to_string();
        }
        let mut parts: Vec<&str> = self.doms.iter().map(|d| d.label()).collect();
        if self.other {
            parts.push("?");
        }
        let joined = parts.join("|");
        if self.is_exact() {
            format!("exactly({joined})")
        } else {
            format!("may({joined})")
        }
    }

    fn with_raw(mut self) -> AbsVal {
        self.raw = true;
        self
    }
}

/// One parameter of an analyzed function.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (empty for patterns the parser does not model).
    pub name: String,
    /// Annotated domain, when the type names a newtype.
    pub domain: Option<Domain>,
    /// True when the type is a bare integer (`u64`/`u32`/`u16`/
    /// `usize`): the parameter's domain is *inferred* as the join over
    /// all call-site arguments.
    pub raw_int: bool,
}

/// Per-function facts the analysis derives from the signature.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Parsed parameters (excluding `self`).
    pub params: Vec<Param>,
    /// Annotated return domain, when the return type names a newtype.
    pub ret_domain: Option<Domain>,
    /// True when the return type is a bare integer — the return value's
    /// domain is inferred from the body.
    pub ret_raw: bool,
    /// True for `crates/mem` bodies and [`SANCTIONED`] entries: the
    /// body is neither sink-checked nor propagated from.
    pub exempt: bool,
}

/// The analysis result over one workspace.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Flagged sites: key → sorted, deduplicated 1-based lines.
    pub flags: Sites,
    /// Inferred abstract values of bare-integer parameters:
    /// `(qualified fn, param name) → value`, for the report.
    pub raw_params: BTreeMap<(String, String), AbsVal>,
    /// Number of functions analyzed (exempt bodies included in the
    /// count; they still contribute signatures).
    pub fn_count: usize,
    /// False when no source seeded a single domain (a workspace without
    /// the address newtypes) — the lint stays inactive.
    pub active: bool,
}

/// Runs the analysis over the workspace (see the module docs).
pub fn analyze(ws: &Workspace) -> Analysis {
    let nodes: Vec<FnNode> = ws
        .sources
        .iter()
        .flat_map(|f| parse_nodes(&f.rel_path, &f.text))
        .collect();
    Engine::new(&nodes, ws).run()
}

fn is_analyzed_file(file: &str) -> bool {
    file.starts_with("crates/") && ANALYZED_CRATES.contains(&crate_of(file))
}

fn is_raw_int_type(ty: &str) -> bool {
    ["u64", "u32", "u16", "usize"]
        .iter()
        .any(|t| contains_word(ty, t))
}

/// Method names that pass their receiver's value through unchanged.
const PASSTHROUGH: &[&str] = &["unwrap", "expect", "clone", "copied", "cloned", "into"];

/// Method names that combine the receiver with their arguments as raw
/// integer arithmetic.
const RAW_ARITH: &[&str] = &[
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "saturating_add",
    "saturating_sub",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "min",
    "max",
    "trailing_zeros",
    "leading_zeros",
    "isqrt",
    "pow",
];

/// Raw-escape methods: the value stays in its domains but becomes a
/// bare integer.
const RAW_ESCAPE: &[&str] = &["raw", "index"];

struct Engine<'g> {
    /// Every parsed function of the workspace, in source order.
    nodes: &'g [FnNode],
    info: Vec<FnInfo>,
    /// Each analyzed body's statement pieces in source order, as
    /// [`flow::flatten`] lays out the [`flow::parse_fn`] skeleton
    /// (empty for exempt bodies).
    stmts: Vec<Vec<(usize, String)>>,
    /// `name → domain` for struct fields declared with a newtype; a
    /// name bound to conflicting domains is poisoned (absent).
    fields: BTreeMap<String, Domain>,
    /// Inferred values of raw-int parameters, `(fn idx, param idx)`.
    param_vals: BTreeMap<(usize, usize), AbsVal>,
    /// Inferred return values of raw-returning functions.
    ret_vals: BTreeMap<usize, AbsVal>,
    /// Call resolution tables: methods by bare name and by (type,
    /// name), free functions by bare name.
    methods: BTreeMap<String, Vec<usize>>,
    typed: BTreeMap<(String, String), Vec<usize>>,
    free: BTreeMap<String, Vec<usize>>,
    /// Only set during the reporting pass.
    flags: Option<BTreeMap<SiteKey, BTreeSet<usize>>>,
    changed: bool,
}

impl<'g> Engine<'g> {
    fn new(nodes: &'g [FnNode], ws: &Workspace) -> Engine<'g> {
        let mut info = Vec::with_capacity(nodes.len());
        let mut fields: BTreeMap<String, Option<Domain>> = BTreeMap::new();
        let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        // Field declarations live outside fn bodies, so the field table
        // is collected over every non-test line of the analyzed crates.
        for file in &ws.sources {
            if !is_analyzed_file(&file.rel_path) {
                continue;
            }
            for sl in crate::walk::scan_source(&file.text) {
                if !sl.in_test {
                    collect_field_line(&sl.code, &mut fields);
                }
            }
        }
        for (i, n) in nodes.iter().enumerate() {
            let in_scope = is_analyzed_file(&n.file);
            let sanctioned = n.self_ty.as_deref().is_some_and(|ty| {
                SANCTIONED
                    .iter()
                    .any(|(sty, name, _)| *sty == ty && *name == n.name)
            });
            info.push(FnInfo {
                params: if in_scope {
                    parse_params(&n.sig, &n.name)
                } else {
                    Vec::new()
                },
                ret_domain: return_domain(&n.sig),
                ret_raw: return_is_raw(&n.sig),
                exempt: !in_scope || n.file.starts_with("crates/mem/") || sanctioned,
            });
            match &n.self_ty {
                Some(ty) => {
                    methods.entry(n.name.clone()).or_default().push(i);
                    typed
                        .entry((ty.clone(), n.name.clone()))
                        .or_default()
                        .push(i);
                }
                None => free.entry(n.name.clone()).or_default().push(i),
            }
        }
        let fields = fields
            .into_iter()
            .filter_map(|(k, v)| v.map(|d| (k, d)))
            .collect();
        let stmts = nodes
            .iter()
            .zip(&info)
            .map(|(n, fi)| {
                if fi.exempt {
                    Vec::new()
                } else {
                    flow::flatten(&flow::parse_fn(&n.body))
                }
            })
            .collect();
        Engine {
            nodes,
            info,
            stmts,
            fields,
            param_vals: BTreeMap::new(),
            ret_vals: BTreeMap::new(),
            methods,
            typed,
            free,
            flags: None,
            changed: false,
        }
    }

    fn run(mut self) -> Analysis {
        let seeded = self
            .info
            .iter()
            .any(|fi| fi.ret_domain.is_some() || fi.params.iter().any(|p| p.domain.is_some()))
            || !self.fields.is_empty();
        if !seeded {
            return Analysis::default();
        }
        // Interprocedural fixpoint: propagate call-site argument values
        // into raw-int parameters and body values into raw returns. The
        // lattice is finite and the join monotone, so this terminates;
        // the iteration cap is a safety net only.
        for _ in 0..12 {
            self.changed = false;
            for i in 0..self.nodes.len() {
                self.walk_fn(i);
            }
            if !self.changed {
                break;
            }
        }
        // Reporting pass: same walk, with the sink checks recording.
        self.flags = Some(BTreeMap::new());
        for i in 0..self.nodes.len() {
            self.walk_fn(i);
        }
        let mut flags = self.flags.take().unwrap_or_default();
        // Mixed raw parameters: inferred join spans both families.
        let mut raw_params = BTreeMap::new();
        for ((fi, pi), val) in &self.param_vals {
            let node = &self.nodes[*fi];
            if self.info[*fi].exempt {
                continue;
            }
            let name = self.info[*fi]
                .params
                .get(*pi)
                .map(|p| p.name.clone())
                .unwrap_or_default();
            raw_params.insert((node.qual_name(), name), val.clone());
            let has = |f: Family| val.doms.iter().any(|d| d.family() == Some(f));
            if has(Family::V) && has(Family::P) {
                flags
                    .entry((
                        node.file.clone(),
                        node.qual_name(),
                        "mixed-raw-param".into(),
                    ))
                    .or_default()
                    .insert(node.line);
            }
        }
        Analysis {
            flags: flags
                .into_iter()
                .map(|(key, lines)| (key, lines.into_iter().collect()))
                .collect(),
            raw_params,
            fn_count: self.nodes.len(),
            active: true,
        }
    }

    /// Walks one function body: seeds the environment from the
    /// signature, evaluates every statement in order (two passes, so a
    /// binding used above its definition inside a loop still resolves),
    /// and accumulates the return value for raw-returning functions.
    fn walk_fn(&mut self, fi: usize) {
        if self.info[fi].exempt {
            return;
        }
        let mut env: BTreeMap<String, AbsVal> = BTreeMap::new();
        for (pi, p) in self.info[fi].params.iter().enumerate() {
            if p.name.is_empty() {
                continue;
            }
            let val = match p.domain {
                Some(d) => AbsVal::exactly(d),
                None if p.raw_int => self
                    .param_vals
                    .get(&(fi, pi))
                    .cloned()
                    .unwrap_or_else(AbsVal::bottom),
                None => AbsVal::unknown(),
            };
            env.insert(p.name.clone(), val);
        }
        let stmts = std::mem::take(&mut self.stmts[fi]);
        let mut ret = AbsVal::bottom();
        for pass in 0..2 {
            // Sinks record only once: on the second pass of the
            // reporting walk.
            let record = pass == 1;
            for (idx, (line, text)) in stmts.iter().enumerate() {
                let tail = idx + 1 == stmts.len();
                self.stmt(fi, *line, text, &mut env, &mut ret, tail, record);
            }
        }
        self.stmts[fi] = stmts;
        if self.info[fi].ret_raw {
            let entry = self.ret_vals.entry(fi).or_default();
            let before = entry.clone();
            entry.join(&ret);
            if *entry != before {
                self.changed = true;
            }
        }
    }

    /// Processes one statement: `let` bindings, assignments, struct
    /// literal fields, `return`s, and the expression evaluation (call
    /// sinks included) they all share.
    #[allow(clippy::too_many_arguments)]
    fn stmt(
        &mut self,
        fi: usize,
        line: usize,
        text: &str,
        env: &mut BTreeMap<String, AbsVal>,
        ret: &mut AbsVal,
        tail: bool,
        record: bool,
    ) {
        let t = text.trim().trim_end_matches(';').trim();
        if t.is_empty() {
            return;
        }
        // Struct-literal field initializers anywhere in the statement.
        self.struct_fields(fi, line, t, env, record);
        if let Some(rest) = t.strip_prefix("let ") {
            self.let_binding(fi, line, rest, env, record);
            return;
        }
        if let Some(rest) = strip_return(t) {
            let val = self.eval(fi, line, rest, env, record);
            ret.join(&val);
            return;
        }
        // `x.field = expr` / `name = expr` assignment (not `==` etc.).
        if let Some((lhs, rhs)) = split_assign(t) {
            let val = self.eval(fi, line, rhs, env, record);
            if let Some(field) = lhs.rsplit('.').next().filter(|_| lhs.contains('.')) {
                let field = field.trim();
                if let Some(&d) = self.fields.get(field) {
                    self.sink(fi, line, &val, d, record);
                }
            } else if is_ident(lhs) {
                env.insert(lhs.to_string(), val);
            }
            return;
        }
        let val = self.eval(fi, line, t, env, record);
        if tail {
            ret.join(&val);
        }
    }

    /// `let [mut] name[: Ty] = expr` (plus `if let`-style patterns fed
    /// in from condition texts).
    fn let_binding(
        &mut self,
        fi: usize,
        line: usize,
        rest: &str,
        env: &mut BTreeMap<String, AbsVal>,
        record: bool,
    ) {
        let Some((pat, rhs)) = split_assign(rest) else {
            return;
        };
        let mut val = self.eval(fi, line, rhs, env, record);
        let (name, ascribed) = match pat.split_once(':') {
            Some((n, ty)) => (n.trim(), Domain::of_type(ty)),
            None => (pat.trim(), None),
        };
        let name = name.trim_start_matches("mut ").trim();
        // `Some(x)` / `Ok(x)` unwrap the single binding.
        let name = name
            .strip_prefix("Some(")
            .or_else(|| name.strip_prefix("Ok("))
            .map(|inner| {
                inner
                    .trim_end_matches(')')
                    .trim_start_matches("mut ")
                    .trim()
            })
            .unwrap_or(name);
        if !is_ident(name) {
            return; // destructuring pattern — side effects only
        }
        if let Some(d) = ascribed {
            // Trust an explicit domain ascription when the evaluator
            // learned nothing (it cannot contradict the compiler).
            if val.doms.is_empty() {
                val = AbsVal::exactly(d);
            }
        }
        env.insert(name.to_string(), val);
    }

    /// Scans a statement for `Struct { field: expr, … }` initializers
    /// whose field names carry a domain, and sink-checks each.
    fn struct_fields(
        &mut self,
        fi: usize,
        line: usize,
        text: &str,
        env: &mut BTreeMap<String, AbsVal>,
        record: bool,
    ) {
        let fields: Vec<(String, Domain)> =
            self.fields.iter().map(|(k, v)| (k.clone(), *v)).collect();
        for (name, d) in fields {
            let needle = format!("{name}:");
            let mut start = 0;
            while let Some(pos) = text[start..].find(&needle) {
                let at = start + pos;
                start = at + needle.len();
                // A `{` or `,` opener right before the field name, so
                // `let x: Ty` ascriptions and paths don't match.
                if !text[..at].trim_end().ends_with(['{', ',']) {
                    continue;
                }
                let expr = field_expr(&text[at + needle.len()..]);
                if expr.is_empty() {
                    continue;
                }
                let val = self.eval(fi, line, expr, env, record);
                self.sink(fi, line, &val, d, record);
            }
        }
    }

    /// Records a rule (a)/(b) flag when `val` carries a domain other
    /// than the sink's.
    fn sink(&mut self, fi: usize, line: usize, val: &AbsVal, target: Domain, record: bool) {
        if !record {
            return;
        }
        let Some(flags) = &mut self.flags else {
            return;
        };
        let node = &self.nodes[fi];
        for d in &val.doms {
            if *d == target {
                continue;
            }
            let kind = format!(
                "{}{}{}-to-{}",
                if val.is_exact() { "" } else { "may-" },
                if val.raw { "raw-" } else { "" },
                d.label(),
                target.label()
            );
            flags
                .entry((node.file.clone(), node.qual_name(), kind))
                .or_default()
                .insert(line);
        }
    }

    /// Evaluates one expression: strips sigils, handles casts, binary
    /// operators, leading primaries and method chains; processes every
    /// call it encounters (sink checks + parameter propagation).
    fn eval(
        &mut self,
        fi: usize,
        line: usize,
        expr: &str,
        env: &mut BTreeMap<String, AbsVal>,
        record: bool,
    ) -> AbsVal {
        let mut s = expr.trim();
        loop {
            let t = s
                .trim_start_matches("&mut ")
                .trim_start_matches('&')
                .trim_start_matches('*')
                .trim_start_matches('!')
                .trim();
            if t == s {
                break;
            }
            s = t;
        }
        let s = s.trim_end_matches('?').trim();
        if s.is_empty() {
            return AbsVal::bottom();
        }
        // `expr as ty`: raw escape (there is no cast *into* a newtype).
        if let Some((lhs, _)) = split_top_once(s, " as ") {
            return self.eval(fi, line, lhs, env, record).with_raw();
        }
        // Comparisons and boolean operators: evaluate operands for
        // their side effects; the result is a boolean, not an address.
        if let Some(parts) = split_top(s, &["==", "!=", "<=", ">=", "&&", "||"]) {
            for p in parts {
                self.eval(fi, line, p, env, record);
            }
            return AbsVal::bottom();
        }
        // Arithmetic: join the operands, raw provenance.
        if let Some(parts) = split_top(s, &["<<", ">>", "|", "^", "+", "%"]) {
            let mut out = AbsVal::bottom();
            for p in parts {
                out.join(&self.eval(fi, line, p, env, record));
            }
            return out.with_raw();
        }
        // `-`, `*`, `/`, `&` double as sigils/refs; only split when both
        // sides are non-empty expressions.
        if let Some(parts) = split_top(s, &[" - ", " * ", " / ", " & "]) {
            let mut out = AbsVal::bottom();
            for p in parts {
                out.join(&self.eval(fi, line, p, env, record));
            }
            return out.with_raw();
        }
        // Parenthesized group.
        if s.starts_with('(') && matching_paren(s, 0) == Some(s.len() - 1) {
            let inner = &s[1..s.len() - 1];
            if split_top(inner, &[","]).is_some() {
                return AbsVal::unknown(); // tuple
            }
            return self.eval(fi, line, inner, env, record);
        }
        self.primary_chain(fi, line, s, env, record)
    }

    /// A leading primary (ident path, call, literal) followed by a
    /// `.method(..)` / `.field` chain.
    fn primary_chain(
        &mut self,
        fi: usize,
        line: usize,
        s: &str,
        env: &mut BTreeMap<String, AbsVal>,
        record: bool,
    ) -> AbsVal {
        let b = s.as_bytes();
        let mut val;
        let mut pos;
        let mut recv_is_self = false;
        if b[0].is_ascii_digit() {
            let mut i = 0;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            val = AbsVal::bottom().with_raw(); // integer literal
            pos = i;
        } else if b[0].is_ascii_alphabetic() || b[0] == b'_' {
            let (path, end) = read_path(s);
            pos = end;
            if b.get(pos) == Some(&b'(') {
                let Some(close) = matching_paren(s, pos) else {
                    return AbsVal::unknown();
                };
                let args = &s[pos + 1..close];
                pos = close + 1;
                val = self.call(fi, line, &path, args, false, env, record);
            } else if path.len() == 1 {
                recv_is_self = path[0] == "self";
                val = env.get(&path[0]).cloned().unwrap_or_else(AbsVal::unknown);
            } else {
                val = AbsVal::unknown(); // enum variant / const path
            }
        } else {
            return AbsVal::unknown();
        }
        // Chain: `.method(args)` / `.field` / `.0`.
        while pos < b.len() {
            if b[pos] != b'.' {
                return AbsVal::unknown(); // trailing operator we don't model
            }
            pos += 1;
            if pos < b.len() && b[pos].is_ascii_digit() {
                while pos < b.len() && (b[pos].is_ascii_digit() || b[pos] == b'.') {
                    pos += 1;
                }
                val = AbsVal::unknown(); // tuple index
                continue;
            }
            let start = pos;
            while pos < b.len() && (b[pos].is_ascii_alphanumeric() || b[pos] == b'_') {
                pos += 1;
            }
            let name = &s[start..pos];
            if name.is_empty() {
                return AbsVal::unknown();
            }
            // Skip a turbofish.
            if s[pos..].starts_with("::<") {
                let Some(after) = skip_turbofish(s, pos) else {
                    return AbsVal::unknown();
                };
                pos = after;
            }
            if b.get(pos) == Some(&b'(') {
                let Some(close) = matching_paren(s, pos) else {
                    return AbsVal::unknown();
                };
                let args = &s[pos + 1..close];
                pos = close + 1;
                if RAW_ESCAPE.contains(&name) && args.trim().is_empty() {
                    val = val.with_raw();
                } else if PASSTHROUGH.contains(&name) {
                    for a in split_args(args) {
                        self.eval(fi, line, a, env, record);
                    }
                } else if RAW_ARITH.contains(&name) {
                    let mut out = val.clone();
                    for a in split_args(args) {
                        out.join(&self.eval(fi, line, a, env, record));
                    }
                    val = out.with_raw();
                } else {
                    val = self.call(
                        fi,
                        line,
                        &[name.to_string()],
                        args,
                        recv_is_self,
                        env,
                        record,
                    );
                }
            } else {
                val = match self.fields.get(name) {
                    Some(&d) => AbsVal::exactly(d),
                    None => AbsVal::unknown(),
                };
            }
            recv_is_self = false;
            while pos < b.len() && (b[pos] == b'?' || b[pos] == b' ') {
                pos += 1;
            }
        }
        val
    }

    /// Processes a call: evaluates the arguments, resolves candidates,
    /// sink-checks annotated parameter positions, accumulates raw-int
    /// parameter joins, and returns the abstract result.
    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        fi: usize,
        line: usize,
        path: &[String],
        args: &str,
        recv_self: bool,
        env: &mut BTreeMap<String, AbsVal>,
        record: bool,
    ) -> AbsVal {
        let arg_texts = split_args(args);
        let arg_vals: Vec<AbsVal> = arg_texts
            .iter()
            .map(|a| self.eval(fi, line, a, env, record))
            .collect();
        let name = path.last().map(String::as_str).unwrap_or("");
        let qualifier = if path.len() >= 2 {
            Some(path[path.len() - 2].as_str())
        } else {
            None
        };
        // Domain constructor: `VirtAddr::new(x)` / `Ppn::from(x)`.
        if let Some(q) = qualifier {
            if let Some(d) = Domain::ALL.iter().copied().find(|d| d.type_name() == q) {
                if (name == "new" || name == "from") && arg_vals.len() == 1 {
                    self.sink(fi, line, &arg_vals[0], d, record);
                    return AbsVal::exactly(d);
                }
                // Another associated fn of the newtype — opaque.
                return AbsVal::unknown();
            }
            // Widening conversions stay raw but keep their witnesses.
            if ["u64", "u32", "usize", "u16"].contains(&q) && name == "from" {
                return arg_vals
                    .first()
                    .cloned()
                    .unwrap_or_else(AbsVal::unknown)
                    .with_raw();
            }
        }
        // Resolve workspace candidates: `Type::`/`Self::` paths to that
        // type's methods, module paths to free functions, a bare name to
        // free functions else every method of that name, and `self.`
        // calls to the enclosing impl's method first.
        let candidates: Vec<usize> = match qualifier {
            Some("Self") => {
                let own = self.nodes[fi].self_ty.clone();
                own.and_then(|ty| self.typed.get(&(ty, name.to_string())))
                    .cloned()
                    .unwrap_or_default()
            }
            Some(q) if q.starts_with(char::is_uppercase) => self
                .typed
                .get(&(q.to_string(), name.to_string()))
                .cloned()
                .unwrap_or_default(),
            Some(_) => self.free.get(name).cloned().unwrap_or_default(),
            None if path.len() == 1 && !recv_self => {
                // Bare `name(..)` is a free call; `.name(..)` method
                // calls arrive with path.len() == 1 too — try free
                // first, then the method table.
                match self.free.get(name) {
                    Some(f) => f.clone(),
                    None => self.methods.get(name).cloned().unwrap_or_default(),
                }
            }
            None => {
                // `self.name(..)`: narrow to the enclosing impl.
                let own = self.nodes[fi].self_ty.clone();
                match own.and_then(|ty| self.typed.get(&(ty, name.to_string()))) {
                    Some(own) => own.clone(),
                    None => self.methods.get(name).cloned().unwrap_or_default(),
                }
            }
        };
        let mut out = AbsVal::bottom();
        let mut any = false;
        for &j in &candidates {
            let info = self.info[j].clone();
            if info.params.len() != arg_vals.len() {
                continue;
            }
            any = true;
            for (k, av) in arg_vals.iter().enumerate() {
                if let Some(d) = info.params[k].domain {
                    // Annotated parameter: the signature is the
                    // contract, exempt callee or not.
                    self.sink(fi, line, av, d, record);
                } else if info.params[k].raw_int && !info.exempt {
                    let entry = self.param_vals.entry((j, k)).or_default();
                    let before = entry.clone();
                    entry.join(av);
                    if *entry != before {
                        self.changed = true;
                    }
                }
            }
            if let Some(d) = info.ret_domain {
                out.join(&AbsVal::exactly(d));
            } else if info.ret_raw {
                let rv = self.ret_vals.get(&j).cloned().unwrap_or_default();
                out.join(&rv.with_raw());
            } else {
                out.other = true;
            }
        }
        if !any {
            return AbsVal::unknown();
        }
        out
    }
}

/// Parses the parameter list out of a signature: the text between the
/// `(` after the fn name and its matching `)`, split at top-level
/// commas, `self` receivers skipped.
fn parse_params(sig: &str, fn_name: &str) -> Vec<Param> {
    let needle = format!("fn {fn_name}");
    let Some(at) = find_word(sig, &needle).map(|at| at + needle.len()) else {
        return Vec::new();
    };
    let Some(open_rel) = sig[at..].find('(') else {
        return Vec::new();
    };
    let open = at + open_rel;
    let Some(close) = matching_paren(sig, open) else {
        return Vec::new();
    };
    let list = &sig[open + 1..close];
    let mut out = Vec::new();
    for part in split_args(list) {
        let p = part.trim();
        if p.is_empty() || p == "self" || p.ends_with("self") && !p.contains(':') {
            continue;
        }
        let Some((name, ty)) = split_top_once(p, ":") else {
            continue;
        };
        let name = name.trim().trim_start_matches("mut ").trim();
        let name = if is_ident(name) { name } else { "" };
        out.push(Param {
            name: name.to_string(),
            domain: Domain::of_type(ty),
            raw_int: Domain::of_type(ty).is_none() && is_raw_int_type(ty),
        });
    }
    out
}

/// The annotated return domain of a signature (`-> Ppn`,
/// `-> Option<PhysAddr>`, …).
fn return_domain(sig: &str) -> Option<Domain> {
    let (_, ret) = split_top_once(sig, "->")?;
    let ret = ret.split(" where ").next().unwrap_or(ret);
    Domain::of_type(ret)
}

/// True when the return type is a bare integer.
fn return_is_raw(sig: &str) -> bool {
    match split_top_once(sig, "->") {
        Some((_, ret)) => {
            let ret = ret.split(" where ").next().unwrap_or(ret);
            Domain::of_type(ret).is_none() && is_raw_int_type(ret)
        }
        None => false,
    }
}

/// Collects `name: DomainType` declarations from one blanked code line.
/// Telling struct fields from other annotations syntactically is hard,
/// so the collector is name-based: any `ident: Ty` fragment whose type
/// names a domain contributes, and a name seen with two *different*
/// domains is poisoned (mapped to `None`). Function parameters that
/// match the pattern agree with the parameter seeding, so the overlap
/// is benign.
fn collect_field_line(code: &str, fields: &mut BTreeMap<String, Option<Domain>>) {
    for decl in code.split([',', '(', '{']) {
        let Some((name, ty)) = decl.split_once(':') else {
            continue;
        };
        if ty.starts_with(':') {
            continue; // a `::` path, not an annotation
        }
        let name = name
            .trim()
            .trim_start_matches("pub ")
            .trim_start_matches("pub(crate) ")
            .trim_start_matches("mut ")
            .trim();
        if !is_ident(name) {
            continue;
        }
        let ty = ty.split([',', ')', '}', ';', '=']).next().unwrap_or("");
        let Some(d) = Domain::of_type(ty) else {
            continue;
        };
        match fields.get(name) {
            None => {
                fields.insert(name.to_string(), Some(d));
            }
            Some(Some(prev)) if *prev != d => {
                fields.insert(name.to_string(), None);
            }
            _ => {}
        }
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// `return expr` / `break expr` prefixes.
fn strip_return(t: &str) -> Option<&str> {
    for kw in ["return ", "break "] {
        if let Some(rest) = t.strip_prefix(kw) {
            return Some(rest.trim());
        }
    }
    None
}

/// Splits at the first top-level `=` that is an assignment (not `==`,
/// `=>`, `<=`, `>=`, `!=`, or a compound `+=`-style operator).
fn split_assign(t: &str) -> Option<(&str, &str)> {
    let b = t.as_bytes();
    let mut depth = 0i32;
    for i in 0..b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'=' if depth == 0 => {
                if b.get(i + 1) == Some(&b'=') || b.get(i + 1) == Some(&b'>') {
                    return None;
                }
                if i > 0 && matches!(b[i - 1], b'=' | b'<' | b'>' | b'!') {
                    return None;
                }
                if i > 0
                    && matches!(
                        b[i - 1],
                        b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^'
                    )
                {
                    // Compound assignment: treat as side-effect only.
                    return Some((&t[..i - 1], &t[i + 1..]));
                }
                return Some((&t[..i], &t[i + 1..]));
            }
            _ => {}
        }
    }
    None
}

/// The index after a `::<...>` turbofish starting at `pos`.
fn skip_turbofish(s: &str, pos: usize) -> Option<usize> {
    let b = s.as_bytes();
    let mut depth = 0usize;
    let mut i = pos + 2;
    while i < b.len() {
        match b[i] {
            b'<' => depth += 1,
            b'>' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// The matching `)` for the `(` at `open`.
fn matching_paren(s: &str, open: usize) -> Option<usize> {
    let b = s.as_bytes();
    let mut depth = 0i32;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Reads a `::`-separated identifier path from the start of `s`,
/// returning the segments and the index after the path.
fn read_path(s: &str) -> (Vec<String>, usize) {
    let b = s.as_bytes();
    let mut segs = Vec::new();
    let mut i = 0;
    loop {
        let start = i;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        if i == start {
            break;
        }
        segs.push(s[start..i].to_string());
        if s[i..].starts_with("::") && !s[i..].starts_with("::<") {
            i += 2;
        } else {
            break;
        }
    }
    (segs, i)
}

/// The field-initializer expression after `field:`: text up to the
/// matching top-level `,` or closing `}`.
fn field_expr(s: &str) -> &str {
    let b = s.as_bytes();
    let mut depth = 0i32;
    for i in 0..b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => depth -= 1,
            b'}' if depth == 0 => return s[..i].trim(),
            b'}' => depth -= 1,
            b',' if depth == 0 => return s[..i].trim(),
            _ => {}
        }
    }
    s.trim()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn analysis_of(files: &[(&str, &str)]) -> Analysis {
        let ws = Workspace {
            sources: files.iter().map(|(p, t)| SourceFile::new(*p, *t)).collect(),
            ..Workspace::default()
        };
        analyze(&ws)
    }

    fn kinds(a: &Analysis) -> Vec<String> {
        a.flags.keys().map(|(_, q, k)| format!("{q} {k}")).collect()
    }

    #[test]
    fn join_is_monotone_and_renders_three_valued() {
        let mut v = AbsVal::bottom();
        assert_eq!(v.render(), "unknown");
        assert!(v.join(&AbsVal::exactly(Domain::Virtual)));
        assert_eq!(v.render(), "exactly(virtual)");
        assert!(!v.join(&AbsVal::exactly(Domain::Virtual)), "idempotent");
        assert!(v.join(&AbsVal::exactly(Domain::Physical)));
        assert_eq!(v.render(), "may(virtual|physical)");
        assert!(v.join(&AbsVal::unknown()));
        assert_eq!(v.render(), "may(virtual|physical|?)");
        assert!(!v.join(&AbsVal::exactly(Domain::Virtual)), "absorbed");
    }

    #[test]
    fn direct_cross_domain_constructor_is_flagged() {
        let a = analysis_of(&[(
            "crates/core/src/vr.rs",
            "fn confuse(va: VirtAddr) -> PhysAddr {\n    PhysAddr::new(va.raw())\n}\n",
        )]);
        assert!(a.active);
        assert_eq!(
            kinds(&a),
            vec!["confuse raw-virtual-to-physical"],
            "{:?}",
            a.flags
        );
    }

    #[test]
    fn same_domain_raw_reentry_is_legal() {
        let a = analysis_of(&[(
            "crates/core/src/vr.rs",
            "fn align(va: VirtAddr) -> VirtAddr {\n    VirtAddr::new(va.raw() & !15)\n}\n",
        )]);
        assert!(a.flags.is_empty(), "{:?}", a.flags);
    }

    #[test]
    fn flow_through_two_calls_is_tracked_to_fixpoint() {
        // va.raw() → helper → deeper → PhysAddr::new: the classic
        // two-hop confusion the line-local lint cannot see.
        let a = analysis_of(&[(
            "crates/core/src/vr.rs",
            "fn entry(va: VirtAddr) {\n    helper(va.raw());\n}\n\
             fn helper(x: u64) {\n    deeper(x);\n}\n\
             fn deeper(y: u64) {\n    let p = PhysAddr::new(y);\n    let _ = p;\n}\n",
        )]);
        assert_eq!(
            kinds(&a),
            vec!["deeper raw-virtual-to-physical"],
            "{:?}",
            a.flags
        );
    }

    #[test]
    fn diamond_call_shape_joins_to_may() {
        // Two callers feed leaf's raw param from the two spaces: the
        // param joins to may(virtual|physical) — a mixed-raw-param —
        // and its use in a Vpn constructor is flagged with may-.
        let a = analysis_of(&[(
            "crates/core/src/vr.rs",
            "fn left(va: VirtAddr) {\n    leaf(va.raw());\n}\n\
             fn right(pa: PhysAddr) {\n    leaf(pa.raw());\n}\n\
             fn leaf(x: u64) {\n    let v = Vpn::new(x);\n    let _ = v;\n}\n",
        )]);
        let k = kinds(&a);
        assert!(k.contains(&"leaf mixed-raw-param".to_string()), "{k:?}");
        assert!(
            k.contains(&"leaf may-raw-virtual-to-vpn".to_string()),
            "{k:?}"
        );
        assert!(
            k.contains(&"leaf may-raw-physical-to-vpn".to_string()),
            "{k:?}"
        );
        let (_, v) = a
            .raw_params
            .iter()
            .find(|((q, _), _)| q == "leaf")
            .expect("leaf's param is inferred");
        assert_eq!(v.render(), "may(virtual|physical)");
    }

    #[test]
    fn recursive_call_shape_terminates_exactly() {
        // Self-recursion must converge (finite lattice) and stay exact.
        let a = analysis_of(&[(
            "crates/core/src/vr.rs",
            "fn probe(va: VirtAddr) {\n    walk(va.raw());\n}\n\
             fn walk(x: u64) {\n    if x > 0 {\n        walk(x >> 1);\n    }\n}\n",
        )]);
        assert!(a.flags.is_empty(), "{:?}", a.flags);
        let (_, v) = a
            .raw_params
            .iter()
            .find(|((q, _), _)| q == "walk")
            .expect("walk's param is inferred");
        assert_eq!(v.render(), "exactly(virtual)", "recursion stays exact");
        assert!(v.raw, "the value escaped through .raw()");
    }

    #[test]
    fn annotated_parameter_positions_are_sinks() {
        let a = analysis_of(&[(
            "crates/core/src/vr.rs",
            "fn caller(va: VirtAddr, pa: PhysAddr) {\n    step(pa, va);\n}\n\
             fn step(a: VirtAddr, b: PhysAddr) {\n    let _ = (a, b);\n}\n",
        )]);
        let k = kinds(&a);
        assert!(
            k.contains(&"caller physical-to-virtual".to_string()),
            "{k:?}"
        );
        assert!(
            k.contains(&"caller virtual-to-physical".to_string()),
            "{k:?}"
        );
    }

    #[test]
    fn struct_field_initializers_are_sinks() {
        let a = analysis_of(&[(
            "crates/core/src/vr.rs",
            "pub struct Rec {\n    pub vaddr: VirtAddr,\n}\n\
             fn build(pa: PhysAddr) -> Rec {\n    Rec { vaddr: VirtAddr::new(pa.raw()) }\n}\n",
        )]);
        assert_eq!(
            kinds(&a),
            vec!["build raw-physical-to-virtual"],
            "{:?}",
            a.flags
        );
    }

    #[test]
    fn return_summaries_cross_option_wrappers() {
        let a = analysis_of(&[(
            "crates/core/src/vr.rs",
            "fn find(pa: PhysAddr) -> Option<Ppn> {\n    let _ = pa;\n    None\n}\n\
             fn misuse(pa: PhysAddr) {\n    if let Some(p) = find(pa) {\n        let v = Vpn::new(p.raw());\n        let _ = v;\n    }\n}\n",
        )]);
        assert_eq!(kinds(&a), vec!["misuse raw-ppn-to-vpn"], "{:?}", a.flags);
    }

    #[test]
    fn mem_bodies_are_exempt_but_their_contracts_still_bind() {
        let a = analysis_of(&[
            (
                "crates/mem/src/page.rs",
                "impl PageSize {\n    pub fn rebase(&self, va: VirtAddr, ppn: Ppn) -> PhysAddr {\n        PhysAddr::new((ppn.raw() << 12) | (va.raw() & 4095))\n    }\n}\n",
            ),
            (
                "crates/core/src/vr.rs",
                "fn wrong(page: u8, pa: PhysAddr, ppn: Ppn) {\n    let x = rebase_site(pa, ppn);\n    let _ = (page, x);\n}\n\
                 fn rebase_site(pa: PhysAddr, ppn: Ppn) -> PhysAddr {\n    let _ = (pa, ppn);\n    PhysAddr::new(0)\n}\n",
            ),
        ]);
        // The mem body's cross-domain arithmetic is sanctioned…
        assert!(
            !kinds(&a).iter().any(|k| k.starts_with("PageSize::")),
            "{:?}",
            a.flags
        );
        // …but a core caller violating the annotated contract is not.
        let b = analysis_of(&[
            (
                "crates/mem/src/page.rs",
                "impl PageSize {\n    pub fn rebase(&self, va: VirtAddr, ppn: Ppn) -> PhysAddr {\n        PhysAddr::new((ppn.raw() << 12) | (va.raw() & 4095))\n    }\n}\n",
            ),
            (
                "crates/core/src/vr.rs",
                "fn wrong(page: Pager, pa: PhysAddr, ppn: Ppn) {\n    let x = page.rebase(pa, ppn);\n    let _ = x;\n}\n",
            ),
        ]);
        assert!(
            kinds(&b).contains(&"wrong physical-to-virtual".to_string()),
            "{:?}",
            b.flags
        );
    }

    #[test]
    fn sanctioned_registry_bodies_do_not_propagate() {
        let a = analysis_of(&[(
            "crates/cache/src/geometry.rs",
            "impl CacheGeometry {\n    pub fn vblock_of(&self, va: VirtAddr) -> BlockId {\n        self.block_of(va.raw())\n    }\n    pub fn block_of(&self, raw_addr: u64) -> BlockId {\n        BlockId::new(raw_addr >> 4)\n    }\n}\n",
        )]);
        assert!(a.flags.is_empty(), "{:?}", a.flags);
        assert!(
            a.raw_params
                .iter()
                .find(|((q, _), _)| q == "CacheGeometry::block_of")
                .map(|(_, v)| v.doms.is_empty())
                .unwrap_or(true),
            "the sanctioned body's call does not taint block_of: {:?}",
            a.raw_params
        );
    }

    #[test]
    fn tooling_crates_are_out_of_scope() {
        let a = analysis_of(&[
            (
                "crates/core/src/vr.rs",
                "fn seeded(va: VirtAddr) -> u64 {\n    va.raw()\n}\n",
            ),
            (
                "crates/model/src/world.rs",
                "fn confuse(va: VirtAddr) -> PhysAddr {\n    PhysAddr::new(va.raw())\n}\n",
            ),
        ]);
        assert!(a.active, "core seeds the analysis");
        assert!(a.flags.is_empty(), "model is not analyzed: {:?}", a.flags);
    }

    #[test]
    fn workspace_without_domains_is_inactive() {
        let a = analysis_of(&[(
            "crates/core/src/vr.rs",
            "fn plain(x: u64) -> u64 {\n    x + 1\n}\n",
        )]);
        assert!(!a.active);
        assert!(a.flags.is_empty());
    }

    #[test]
    fn let_ascriptions_and_field_reads_seed_values() {
        let a = analysis_of(&[(
            "crates/core/src/vr.rs",
            "pub struct Acc {\n    pub paddr: PhysAddr,\n}\n\
             fn go(acc: Acc) {\n    let p = acc.paddr;\n    let v = VirtAddr::new(p.raw());\n    let _ = v;\n}\n",
        )]);
        assert_eq!(
            kinds(&a),
            vec!["go raw-physical-to-virtual"],
            "{:?}",
            a.flags
        );
    }

    #[test]
    fn arithmetic_keeps_witnesses_and_sets_raw() {
        let a = analysis_of(&[(
            "crates/core/src/vr.rs",
            "fn mix(vpn: Vpn, off: u8) {\n    let t = Tag::new((vpn.raw() << 3) + 7);\n    let _ = (t, off);\n}\n",
        )]);
        assert_eq!(kinds(&a), vec!["mix raw-vpn-to-tag"], "{:?}", a.flags);
    }

    #[test]
    fn crate_of_names_the_owning_crate() {
        assert_eq!(crate_of("crates/core/src/vr.rs"), "core");
        assert_eq!(crate_of("examples/quickstart.rs"), "examples");
    }
}
