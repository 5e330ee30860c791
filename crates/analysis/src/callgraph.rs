//! Syntactic whole-workspace call graph and hot-set computation.
//!
//! [`build`] parses every `fn` item outside test modules into a
//! [`FnNode`] table — one pass over the literal-blanked lines that
//! [`walk::scan_source`](crate::walk::scan_source) produces — and
//! extracts call edges from the body text. [`CallGraph::reachable`]
//! then computes the transitive *hot set* from the configured
//! [`HOT_ROOTS`]: every function the per-access simulation path can
//! reach. The `hot-path-hygiene` lint scans that set for allocation
//! debt; future lints (dead-code reachability, clock-site auditing) can
//! reuse the same graph.
//!
//! # Ambiguity policy
//!
//! The parse is syntactic — no type information exists — so call edges
//! deliberately **over-approximate**:
//!
//! * `recv.method(..)` links to *every* known method of that name,
//!   across all impl (and trait) blocks; `self.method(..)` narrows to
//!   the enclosing impl type when that type defines the method.
//! * `Type::assoc(..)` and `Self::assoc(..)` link to the named type's
//!   methods only.
//! * `path::free_fn(..)` and bare `free_fn(..)` link to every free
//!   function of that name. Trait-block default methods are indexed
//!   under their trait's name like impl methods.
//! * Calls into types the workspace does not define (std, the vendored
//!   shims) produce no edge; macro invocations (`name!(..)`) are not
//!   calls, though calls *inside* their argument lists are still seen.
//!
//! For a hygiene gate this is the right direction to err: a false hot
//! edge merely pins an extra site in the baseline, while a missed edge
//! would let a real hot-path allocation land unseen.
//!
//! Reachability stops at [`COLD_SINKS`] — diagnostic boundaries whose
//! allocations are debug-only or failure-path-only by design: the
//! runtime invariant checker's `verify_after` gate (off in performance
//! runs) and `invariant_expect` (allocates only while panicking).

use std::collections::{BTreeMap, BTreeSet};

use crate::walk::scan_source;
use crate::Workspace;

/// One `fn` item somewhere in the workspace (test modules excluded).
#[derive(Debug, Clone)]
pub struct FnNode {
    /// File the function is defined in, relative to the workspace root.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Enclosing `impl` self type or `trait` name (`None` for free
    /// functions).
    pub self_ty: Option<String>,
    /// The trait an enclosing `impl Trait for Type` block implements
    /// (`None` for inherent impls, trait blocks and free functions).
    pub trait_name: Option<String>,
    /// The function's bare name.
    pub name: String,
    /// The signature text from the `fn` keyword up to (not including)
    /// the body brace, joined across lines — parameter and return-type
    /// annotations for the domain analysis.
    pub sig: String,
    /// Body lines as (1-based line, literal-blanked code). The line
    /// holding the signature is included, so a one-line body is seen.
    pub body: Vec<(usize, String)>,
}

impl FnNode {
    /// `Type::name` for methods, `name` for free functions.
    pub fn qual_name(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace call graph: a node table plus an over-approximated
/// adjacency list (see the module docs for the ambiguity policy).
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every parsed function, in (file, line) order.
    pub nodes: Vec<FnNode>,
    /// `edges[i]` — indices of the functions node `i` may call, sorted
    /// and deduplicated.
    pub edges: Vec<Vec<usize>>,
}

/// A configured hot root: a function whose whole transitive callee set
/// is held to hot-path hygiene.
#[derive(Debug)]
pub struct HotRoot {
    /// Impl self type the root method belongs to.
    pub self_ty: &'static str,
    /// Method name.
    pub name: &'static str,
    /// The file expected to define the root — used to tell "the
    /// workspace doesn't have this subsystem" (lint inactive) apart
    /// from "the root moved and the table must follow" (lint error).
    pub home_file: &'static str,
}

/// The per-access hot paths of the simulator: every organization's `access`
/// and `snoop` entry points, and the streaming trace decoder that will
/// feed them at memory-bandwidth speed.
pub const HOT_ROOTS: &[HotRoot] = &[
    HotRoot {
        self_ty: "VrHierarchy",
        name: "access",
        home_file: "crates/core/src/vr.rs",
    },
    HotRoot {
        self_ty: "VrHierarchy",
        name: "snoop",
        home_file: "crates/core/src/vr.rs",
    },
    HotRoot {
        self_ty: "RrHierarchy",
        name: "access",
        home_file: "crates/core/src/rr.rs",
    },
    HotRoot {
        self_ty: "RrHierarchy",
        name: "snoop",
        home_file: "crates/core/src/rr.rs",
    },
    HotRoot {
        self_ty: "GoodmanHierarchy",
        name: "access",
        home_file: "crates/core/src/goodman.rs",
    },
    HotRoot {
        self_ty: "GoodmanHierarchy",
        name: "snoop",
        home_file: "crates/core/src/goodman.rs",
    },
    HotRoot {
        self_ty: "Decoder",
        name: "next",
        home_file: "crates/trace/src/codec.rs",
    },
];

/// Function names reachability does not traverse *into*: diagnostic
/// boundaries whose allocations are debug-only (`verify_after` arms the
/// runtime invariant checker, which performance runs disable) or
/// failure-path-only (`invariant_expect` allocates while panicking).
pub const COLD_SINKS: &[&str] = &["verify_after", "invariant_expect"];

impl CallGraph {
    /// Indices of nodes matching `self_ty`/`name` exactly.
    pub fn find(&self, self_ty: Option<&str>, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.self_ty.as_deref() == self_ty && n.name == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// The transitive closure of `roots` over the call edges, excluding
    /// [`COLD_SINKS`] (the roots themselves are always included).
    pub fn reachable(&self, roots: &[usize]) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
        let mut frontier: Vec<usize> = roots.to_vec();
        while let Some(at) = frontier.pop() {
            for &next in &self.edges[at] {
                if COLD_SINKS.contains(&self.nodes[next].name.as_str()) {
                    continue;
                }
                if seen.insert(next) {
                    frontier.push(next);
                }
            }
        }
        seen
    }
}

/// Resolves [`HOT_ROOTS`] against the graph: `(found node indices,
/// roots with no matching node)`.
pub fn resolve_roots(graph: &CallGraph) -> (Vec<usize>, Vec<&'static HotRoot>) {
    let mut found = Vec::new();
    let mut missing = Vec::new();
    for root in HOT_ROOTS {
        let idxs = graph.find(Some(root.self_ty), root.name);
        if idxs.is_empty() {
            missing.push(root);
        } else {
            found.extend(idxs);
        }
    }
    (found, missing)
}

/// Parses every tracked source into the workspace call graph.
pub fn build(ws: &Workspace) -> CallGraph {
    let mut nodes = Vec::new();
    for file in &ws.sources {
        parse_file(&file.rel_path, &file.text, &mut nodes);
    }

    // Resolution tables. Methods are indexed by bare name and by
    // (type, name); free functions by bare name.
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        match &n.self_ty {
            Some(ty) => {
                methods.entry(&n.name).or_default().push(i);
                typed.entry((ty, &n.name)).or_default().push(i);
            }
            None => free.entry(&n.name).or_default().push(i),
        }
    }

    let mut edges: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
    for n in &nodes {
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for (_, code) in &n.body {
            for call in calls_in(code) {
                match call {
                    CallSite::Method { name, recv_self } => {
                        let narrowed = n.self_ty.as_deref().and_then(|ty| {
                            if recv_self {
                                typed.get(&(ty, name.as_str()))
                            } else {
                                None
                            }
                        });
                        match narrowed {
                            Some(own) => out.extend(own.iter().copied()),
                            None => {
                                if let Some(all) = methods.get(name.as_str()) {
                                    out.extend(all.iter().copied());
                                }
                            }
                        }
                    }
                    CallSite::Typed { ty, name } => {
                        let ty = if ty == "Self" {
                            match n.self_ty.as_deref() {
                                Some(own) => own.to_string(),
                                None => continue,
                            }
                        } else {
                            ty
                        };
                        if let Some(idxs) = typed.get(&(ty.as_str(), name.as_str())) {
                            out.extend(idxs.iter().copied());
                        }
                    }
                    CallSite::Free { name } => {
                        if let Some(idxs) = free.get(name.as_str()) {
                            out.extend(idxs.iter().copied());
                        }
                    }
                }
            }
        }
        edges.push(out.into_iter().collect());
    }
    CallGraph { nodes, edges }
}

/// An item header whose body brace has not been seen yet.
enum Pending {
    /// A `fn` item: name, the line of the `fn` keyword, and the
    /// signature text accumulated until the body brace.
    Fn {
        name: String,
        line: usize,
        sig: String,
    },
    /// An `impl`/`trait` header, accumulated until its `{` in case the
    /// header spans lines.
    Block { header: String },
}

/// Parses one source file into its [`FnNode`] table without building
/// the whole-workspace graph — the protocol flow extractor uses this to
/// lift individual handler bodies.
pub fn parse_nodes(rel_path: &str, text: &str) -> Vec<FnNode> {
    let mut nodes = Vec::new();
    parse_file(rel_path, text, &mut nodes);
    nodes
}

fn parse_file(rel_path: &str, text: &str, nodes: &mut Vec<FnNode>) {
    let lines = scan_source(text);
    let mut depth = 0usize;
    // (self type, implemented trait, depth at which the block closes).
    let mut impl_stack: Vec<(String, Option<String>, usize)> = Vec::new();
    // (node index, depth at which the body closes).
    let mut fn_stack: Vec<(usize, usize)> = Vec::new();
    let mut pending: Option<Pending> = None;

    for l in &lines {
        let code = l.code.as_str();
        if !l.in_test {
            match &mut pending {
                Some(Pending::Block { header }) => {
                    // Multiline impl/trait header: keep accumulating.
                    header.push(' ');
                    header.push_str(code);
                }
                Some(Pending::Fn { sig, .. }) => {
                    // Multiline signature: keep accumulating.
                    sig.push(' ');
                    sig.push_str(code);
                }
                None => {
                    if let Some(name) = fn_decl(code) {
                        pending = Some(Pending::Fn {
                            name,
                            line: l.line,
                            sig: code.to_string(),
                        });
                    } else if let Some(header) = block_header(code) {
                        pending = Some(Pending::Block { header });
                    }
                }
            }
        }

        let owner_at_start = fn_stack.last().map(|&(i, _)| i);
        let mut activated: Option<usize> = None;
        for c in code.chars() {
            match c {
                '{' => {
                    match pending.take() {
                        Some(Pending::Fn { name, line, sig }) => {
                            // The signature ends at the body brace (the
                            // blanking scanner guarantees no literal
                            // braces survive in `sig`).
                            let sig = match sig.find('{') {
                                Some(at) => sig[..at].trim_end().to_string(),
                                None => sig,
                            };
                            let block = impl_stack.last();
                            nodes.push(FnNode {
                                file: rel_path.to_string(),
                                line,
                                self_ty: block.map(|(ty, _, _)| ty.clone()),
                                trait_name: block.and_then(|(_, tr, _)| tr.clone()),
                                name,
                                sig,
                                body: Vec::new(),
                            });
                            let idx = nodes.len() - 1;
                            fn_stack.push((idx, depth));
                            activated = Some(idx);
                        }
                        Some(Pending::Block { header }) => {
                            if let Some((ty, tr)) = block_types(&header) {
                                impl_stack.push((ty, tr, depth));
                            }
                        }
                        None => {}
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    while fn_stack.last().map(|&(_, d)| d) == Some(depth) {
                        fn_stack.pop();
                    }
                    while impl_stack.last().map(|(_, _, d)| *d) == Some(depth) {
                        impl_stack.pop();
                    }
                }
                ';' => {
                    // A body-less declaration (trait method signature).
                    if pending.is_some() {
                        pending = None;
                    }
                }
                _ => {}
            }
        }
        if !l.in_test {
            if let Some(idx) = activated.or(owner_at_start) {
                nodes[idx].body.push((l.line, code.to_string()));
            }
        }
    }
}

/// Keywords that look like `ident(` call sites but are not.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "static", "struct", "super", "trait", "true", "type",
    "union", "where", "while",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Detects a `fn` item on `code` and returns its name. Fn-pointer types
/// (`fn(u32) -> u32`) have no name and return `None`.
fn fn_decl(code: &str) -> Option<String> {
    let b = code.as_bytes();
    let mut i = 0;
    while i + 2 <= b.len() {
        if &b[i..i + 2] == b"fn"
            && (i == 0 || !is_ident_char(b[i - 1]))
            && (i + 2 == b.len() || !is_ident_char(b[i + 2]))
        {
            let mut j = i + 2;
            while j < b.len() && b[j] == b' ' {
                j += 1;
            }
            if j > i + 2 && j < b.len() && is_ident_start(b[j]) {
                let start = j;
                while j < b.len() && is_ident_char(b[j]) {
                    j += 1;
                }
                return Some(code[start..j].to_string());
            }
        }
        i += 1;
    }
    None
}

/// Detects an `impl` or `trait` item header (`trait` blocks are indexed
/// like impls so default-method bodies get a self type).
fn block_header(code: &str) -> Option<String> {
    let t = code.trim_start();
    let is_block = t.starts_with("impl ")
        || t.starts_with("impl<")
        || t == "impl"
        || t.starts_with("trait ")
        || t.starts_with("pub trait ")
        || t.starts_with("pub(crate) trait ");
    if is_block {
        Some(t.to_string())
    } else {
        None
    }
}

/// Extracts the self type and the implemented trait from an
/// `impl`/`trait` header: the self type is the last path segment of the
/// type after `for` (trait impls, whose trait is the type before it),
/// else the first type after the keyword — generics stripped
/// (`impl<'a> Decoder<'a>` → `Decoder`, `impl Iterator for Decoder<'_>`
/// → `Decoder` implementing `Iterator`).
fn block_types(header: &str) -> Option<(String, Option<String>)> {
    let t = header.trim_start();
    let rest = if let Some(r) = t.strip_prefix("pub(crate) trait") {
        r
    } else if let Some(r) = t.strip_prefix("pub trait") {
        r
    } else if let Some(r) = t.strip_prefix("trait") {
        r
    } else if let Some(r) = t.strip_prefix("impl") {
        r
    } else {
        return None;
    };
    let rest = skip_generics(rest);
    // `impl Trait for Type {` — the self type is after the ` for `
    // (matched at angle depth 0 so `Vec<T> for` inside generics is safe;
    // after skip_generics the header's own parameter list is gone).
    let (trait_name, ty) = match split_at_for(rest) {
        Some((before, after)) => (Some(first_path_segment_tail(before)), after),
        None => (None, rest),
    };
    let ty = first_path_segment_tail(ty);
    (!ty.is_empty()).then_some((ty, trait_name))
}

/// Skips a leading `<...>` generic parameter list (angle-bracket
/// matched), returning the remainder.
fn skip_generics(s: &str) -> &str {
    let t = s.trim_start();
    if !t.starts_with('<') {
        return t;
    }
    let b = t.as_bytes();
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'<' => depth += 1,
            b'>' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return &t[i + 1..];
                }
            }
            _ => {}
        }
    }
    ""
}

/// Finds a ` for ` at angle depth 0 and returns the text before and
/// after it.
fn split_at_for(s: &str) -> Option<(&str, &str)> {
    let b = s.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'<' => depth += 1,
            b'>' => depth = depth.saturating_sub(1),
            b'f' if depth == 0
                && s[i..].starts_with("for")
                && i > 0
                && b[i - 1] == b' '
                && (i + 3 == b.len() || !is_ident_char(b[i + 3])) =>
            {
                return Some((&s[..i], &s[i + 3..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// The last `::` segment of the leading type path in `s`, generics and
/// reference sigils stripped: ` &mut crate::foo::Bar<T> {` → `Bar`.
fn first_path_segment_tail(s: &str) -> String {
    let t = s
        .trim_start()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim_start_matches("dyn ")
        .trim_start();
    let b = t.as_bytes();
    let mut end = 0;
    while end < b.len() && (is_ident_char(b[end]) || b[end] == b':') {
        end += 1;
    }
    t[..end].rsplit("::").next().unwrap_or("").to_string()
}

/// A call site extracted from one blanked body line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallSite {
    /// `recv.name(..)`; `recv_self` when the receiver is literally
    /// `self`.
    Method {
        /// Method name.
        name: String,
        /// True for `self.name(..)`.
        recv_self: bool,
    },
    /// `Ty::name(..)` with an uppercase-initial qualifier (or `Self`).
    Typed {
        /// The qualifying type (possibly `Self`).
        ty: String,
        /// Associated function name.
        name: String,
    },
    /// `name(..)` or `module::name(..)`.
    Free {
        /// Function name (last path segment).
        name: String,
    },
}

/// Extracts every call site on a blanked code line. Macro invocations
/// are skipped (their *arguments* are scanned like any other text,
/// since they appear later in the same line).
pub fn calls_in(code: &str) -> Vec<CallSite> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !is_ident_start(b[i]) {
            i += 1;
            continue;
        }
        // Don't start an ident mid-word (e.g. the `r` of `bar`).
        if i > 0 && is_ident_char(b[i - 1]) {
            while i < b.len() && is_ident_char(b[i]) {
                i += 1;
            }
            continue;
        }
        let start = i;
        while i < b.len() && is_ident_char(b[i]) {
            i += 1;
        }
        let word = &code[start..i];
        let mut j = i;
        while j < b.len() && b[j] == b' ' {
            j += 1;
        }
        // Macro invocation — not a call.
        if j < b.len() && b[j] == b'!' {
            continue;
        }
        // Turbofish: `collect::<Vec<_>>(..)`.
        if code[j..].starts_with("::<") {
            let mut depth = 0usize;
            let mut k = j + 2;
            while k < b.len() {
                match b[k] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k;
            while j < b.len() && b[j] == b' ' {
                j += 1;
            }
        }
        if j >= b.len() || b[j] != b'(' || KEYWORDS.contains(&word) {
            continue;
        }
        // Classify by what precedes the identifier.
        let mut p = start;
        while p > 0 && b[p - 1] == b' ' {
            p -= 1;
        }
        if p > 0 && b[p - 1] == b'.' {
            let recv_self = receiver_before_dot(b, p - 1) == Some("self");
            out.push(CallSite::Method {
                name: word.to_string(),
                recv_self,
            });
        } else if p > 1 && &b[p - 2..p] == b"::" {
            match qualifier_before(code, p - 2) {
                Some(q) if q == "Self" || q.starts_with(char::is_uppercase) => {
                    out.push(CallSite::Typed {
                        ty: q,
                        name: word.to_string(),
                    });
                }
                _ => out.push(CallSite::Free {
                    name: word.to_string(),
                }),
            }
        } else {
            out.push(CallSite::Free {
                name: word.to_string(),
            });
        }
    }
    out
}

/// The identifier immediately before the `.` at `dot` (for
/// `self.method(..)` narrowing), if any.
fn receiver_before_dot(b: &[u8], dot: usize) -> Option<&str> {
    let mut p = dot;
    while p > 0 && b[p - 1] == b' ' {
        p -= 1;
    }
    let end = p;
    while p > 0 && is_ident_char(b[p - 1]) {
        p -= 1;
    }
    if p == end {
        return None;
    }
    std::str::from_utf8(&b[p..end]).ok()
}

/// The path segment immediately before the `::` ending at `colons`
/// (exclusive), e.g. the `RMeta` of `RMeta::fetched(`.
fn qualifier_before(code: &str, colons: usize) -> Option<String> {
    let b = code.as_bytes();
    let mut p = colons;
    // Skip a generic list backwards: `Decoder<'a>::new` is not written
    // in this workspace's style, so plain identifier collection is
    // enough; bail on anything else.
    let end = p;
    while p > 0 && is_ident_char(b[p - 1]) {
        p -= 1;
    }
    if p == end {
        return None;
    }
    Some(code[p..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let ws = Workspace {
            sources: files.iter().map(|(p, t)| SourceFile::new(*p, *t)).collect(),
            ..Workspace::default()
        };
        build(&ws)
    }

    fn quals(g: &CallGraph, idxs: &BTreeSet<usize>) -> Vec<String> {
        idxs.iter().map(|&i| g.nodes[i].qual_name()).collect()
    }

    #[test]
    fn parses_free_fns_methods_and_trait_defaults() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "fn free_one() {}\n\
             impl Widget {\n    fn method_one(&self) {}\n}\n\
             impl Iterator for Widget {\n    fn next(&mut self) -> Option<u8> { None }\n}\n\
             trait Helper {\n    fn helper_default(&self) { free_one(); }\n    fn sig_only(&self);\n}\n",
        )]);
        let names: Vec<String> = g.nodes.iter().map(FnNode::qual_name).collect();
        assert_eq!(
            names,
            vec![
                "free_one",
                "Widget::method_one",
                "Widget::next",
                "Helper::helper_default"
            ],
            "sig_only has no body and is not a node"
        );
    }

    #[test]
    fn multiline_signatures_and_headers_parse() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "impl CacheHierarchy\n    for VrHierarchy\n{\n\
             \x20   fn access(\n        &mut self,\n        access: &MemAccess,\n    ) -> u32 {\n\
             \x20       0\n    }\n}\n",
        )]);
        assert_eq!(g.nodes.len(), 1, "{:?}", g.nodes);
        assert_eq!(g.nodes[0].qual_name(), "VrHierarchy::access");
        assert_eq!(g.nodes[0].line, 4, "line of the fn keyword");
        let sig = &g.nodes[0].sig;
        assert!(
            sig.contains("access: &MemAccess") && sig.trim_end().ends_with("-> u32"),
            "multiline signature is joined and cut at the body brace: {sig:?}"
        );
    }

    #[test]
    fn generic_impl_headers_resolve_their_self_type() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "impl<'a> Decoder<'a> {\n    fn new() {}\n}\n\
             impl Iterator for Decoder<'_> {\n    fn next(&mut self) {}\n}\n\
             impl<T> InvariantExpect<T> for Option<T> {\n    fn invariant_expect(self) {}\n}\n",
        )]);
        let names: Vec<String> = g.nodes.iter().map(FnNode::qual_name).collect();
        assert_eq!(
            names,
            vec!["Decoder::new", "Decoder::next", "Option::invariant_expect"]
        );
    }

    #[test]
    fn trait_impls_record_their_trait() {
        let g = graph_of(&[(
            "crates/core/src/vr.rs",
            "impl FaultPort for VrHierarchy {\n    fn inject_fault(&mut self) {}\n}\n\
             impl VrHierarchy {\n    fn access(&mut self) {}\n}\n\
             pub trait Port {\n    fn probe(&self) {}\n}\n",
        )]);
        let got: Vec<(String, Option<&str>)> = g
            .nodes
            .iter()
            .map(|n| (n.qual_name(), n.trait_name.as_deref()))
            .collect();
        assert_eq!(
            got,
            [
                ("VrHierarchy::inject_fault".to_string(), Some("FaultPort")),
                ("VrHierarchy::access".to_string(), None),
                ("Port::probe".to_string(), None),
            ]
        );
    }

    #[test]
    fn test_modules_contribute_no_nodes_or_edges() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn test_helper() { live(); }\n}\n",
        )]);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].name, "live");
    }

    #[test]
    fn raw_strings_do_not_fake_functions() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "fn real() {\n    let s = r#\"fn phantom() {}\"#;\n    let t = \"fn ghost() {}\";\n}\n",
        )]);
        let names: Vec<&str> = g.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn call_site_extraction_classifies() {
        let sites = calls_in("self.wb.drain_one(); self.route(kind); RMeta::fetched(s, &v); Self::helper(); mem::layout_of(x); plain(); skip!(macro_arg(1)); it.collect::<Vec<_>>()");
        assert_eq!(
            sites,
            vec![
                CallSite::Method {
                    name: "drain_one".into(),
                    recv_self: false
                },
                CallSite::Method {
                    name: "route".into(),
                    recv_self: true
                },
                CallSite::Typed {
                    ty: "RMeta".into(),
                    name: "fetched".into()
                },
                CallSite::Typed {
                    ty: "Self".into(),
                    name: "helper".into()
                },
                CallSite::Free {
                    name: "layout_of".into()
                },
                CallSite::Free {
                    name: "plain".into()
                },
                CallSite::Free {
                    name: "macro_arg".into()
                },
                CallSite::Method {
                    name: "collect".into(),
                    recv_self: false
                },
            ]
        );
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let sites = calls_in("if (x) { return (y); } debug_assert!(a == b); match (z) {}");
        assert_eq!(sites, Vec::<CallSite>::new(), "{sites:?}");
    }

    const HOT_FIXTURE: &str = "\
impl VrHierarchy {
    fn access(&mut self) {
        self.step_one();
        helper_free();
    }
    fn step_one(&mut self) {
        Shared::leaf();
        self.verify_after(\"access\");
    }
    fn verify_after(&mut self, _ctx: &str) {
        debug_diagnostics();
    }
    fn cold_admin(&mut self) {
        admin_only();
    }
}
impl Shared {
    fn leaf() {}
}
fn helper_free() {}
fn debug_diagnostics() {}
fn admin_only() {}
";

    #[test]
    fn reachability_marks_hot_and_cold() {
        let g = graph_of(&[("crates/core/src/vr.rs", HOT_FIXTURE)]);
        let (roots, missing) = resolve_roots(&g);
        // Only VrHierarchy::access exists among the configured roots.
        assert_eq!(roots.len(), 1);
        assert_eq!(missing.len(), HOT_ROOTS.len() - 1);
        let hot = g.reachable(&roots);
        let q = quals(&g, &hot);
        assert!(q.contains(&"VrHierarchy::access".to_string()));
        assert!(q.contains(&"VrHierarchy::step_one".to_string()), "{q:?}");
        assert!(q.contains(&"Shared::leaf".to_string()), "{q:?}");
        assert!(q.contains(&"helper_free".to_string()), "{q:?}");
        // Cold: never called from a root.
        assert!(!q.contains(&"VrHierarchy::cold_admin".to_string()), "{q:?}");
        assert!(!q.contains(&"admin_only".to_string()), "{q:?}");
        // Cold by decree: the diagnostic boundary and what only it calls.
        assert!(
            !q.contains(&"VrHierarchy::verify_after".to_string()),
            "{q:?}"
        );
        assert!(!q.contains(&"debug_diagnostics".to_string()), "{q:?}");
    }

    #[test]
    fn self_method_calls_narrow_to_the_enclosing_type() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "impl A {\n    fn go(&self) { self.shared(); }\n    fn shared(&self) {}\n}\n\
             impl B {\n    fn shared(&self) { forbidden(); }\n}\nfn forbidden() {}\n",
        )]);
        let (a_go, _) = (g.find(Some("A"), "go"), ());
        let hot = g.reachable(&a_go);
        let q = quals(&g, &hot);
        assert!(q.contains(&"A::shared".to_string()), "{q:?}");
        assert!(!q.contains(&"B::shared".to_string()), "narrowed: {q:?}");
    }

    #[test]
    fn unqualified_method_calls_over_approximate() {
        let g = graph_of(&[(
            "crates/x/src/lib.rs",
            "impl A {\n    fn go(&self, w: &W) { w.shared(); }\n}\n\
             impl B {\n    fn shared(&self) {}\n}\nimpl C {\n    fn shared(&self) {}\n}\n",
        )]);
        let hot = g.reachable(&g.find(Some("A"), "go"));
        let q = quals(&g, &hot);
        assert!(q.contains(&"B::shared".to_string()), "{q:?}");
        assert!(q.contains(&"C::shared".to_string()), "{q:?}");
    }

    #[test]
    fn real_workspace_graph_contains_the_roots_and_hot_callees() {
        let root = crate::walk::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let ws = crate::walk::load(&root).expect("load workspace");
        let g = build(&ws);
        let (roots, missing) = resolve_roots(&g);
        assert!(missing.is_empty(), "all hot roots resolve: {missing:?}");
        assert_eq!(roots.len(), HOT_ROOTS.len());
        let hot = g.reachable(&roots);
        let q = quals(&g, &hot);
        // Known-hot: the write buffer drains inside VrHierarchy::access,
        // and the R-cache lookup is on the L2 path.
        assert!(q.contains(&"RCache::lookup".to_string()), "known-hot");
        assert!(
            q.contains(&"WriteBuffer::drain_one".to_string())
                || q.iter().any(|n| n.ends_with("::drain_one")),
            "write-buffer drain is hot: {:?}",
            q.iter().filter(|n| n.contains("drain")).collect::<Vec<_>>()
        );
        // Known-cold: experiment drivers and the lint passes themselves.
        assert!(
            !q.iter().any(|n| n == "run_all"),
            "the lint driver is not on the simulator hot path"
        );
        assert!(
            !q.iter().any(|n| n.starts_with("InvariantChecker::")),
            "the runtime checker sits behind the verify_after sink"
        );
    }
}
