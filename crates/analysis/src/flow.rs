//! Intra-function protocol flow scanning: parse a handler body into a
//! guard/statement tree and abstractly evaluate it against one
//! `(coherence state, bus operation)` query.
//!
//! This is the substrate of the `protocol-spec` lint (see
//! [`protocol`](crate::protocol)): given the literal-blanked body lines
//! of a `snoop`/`snoop_*` handler (as the fn-item parser
//! [`parse_nodes`](crate::callgraph::parse_nodes) produces them),
//! [`parse_fn`] recovers the control skeleton — `if`/`if let` branches,
//! `let … else` guards, `match` arms, loops, bare scope blocks — and
//! [`eval_handler`] walks it with an abstract state tracking
//!
//! * the set of coherence standings the snooped block may currently
//!   have ([`Ctx`]: absent / shared / private),
//! * whether the reply acknowledges a copy (`has_copy`) and supplies
//!   data (`supplied`), each as a three-valued fact ([`Tri`]),
//! * the observable side effects (`events.* += 1` counters, on `self`
//!   or passed into a shared helper).
//!
//! # Approximation policy
//!
//! The evaluation is deliberately one-sided, erring toward *may*:
//! guards the analysis cannot decide
//! (`Opaque`) take **both** branches and join, and loops run **zero or
//! one** abstract iteration — so any fact established under an
//! undecidable guard or inside a loop degrades to *may* (`Tri::May`,
//! rendered with a `?`). Decidable guards are the protocol-shaped ones:
//! presence of the home line (the per-hierarchy [`Lens`] needles),
//! `CohState` comparisons, and `txn.op` tests/match arms, which the
//! query decides exactly. A path that hits `debug_assert!(false …)` or
//! `unreachable!(…)` is *rejected* — it contributes nothing, and a
//! query all of whose paths reject is a dead combination. Calls other
//! than the `snoop_*` helpers (the handler type's own, and those of a
//! shared impl such as the second level both V-R and R-R delegate to;
//! all inlined) are opaque statements: their internal effects are not
//! modeled.

use std::collections::{BTreeMap, BTreeSet};

use crate::find_word;
use crate::walk::path_idents;

/// A coherence standing of the snooped block in one hierarchy: the two
/// `CohState` tag states plus absence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ctx {
    /// No resident line.
    Absent,
    /// Resident, `CohState::Shared`.
    Shared,
    /// Resident, `CohState::Private`.
    Private,
}

impl Ctx {
    /// The model checker's context label (`coverage.txt` column 2).
    pub fn label(self) -> &'static str {
        match self {
            Ctx::Absent => "absent",
            Ctx::Shared => "shared",
            Ctx::Private => "private",
        }
    }

    /// Parses a `CohState` variant identifier (`Shared`, `Private`).
    pub fn from_variant(ident: &str) -> Option<Ctx> {
        match ident {
            "Shared" => Some(Ctx::Shared),
            "Private" => Some(Ctx::Private),
            _ => None,
        }
    }
}

/// A three-valued fact: definitely not, on some paths, definitely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tri {
    /// False on every surviving path.
    No,
    /// True on some surviving paths (or under a loop / opaque guard).
    May,
    /// True on every surviving path.
    Yes,
}

impl Tri {
    /// Path join: agreement is kept, disagreement degrades to [`Tri::May`].
    pub fn join(self, other: Tri) -> Tri {
        if self == other {
            self
        } else {
            Tri::May
        }
    }
}

/// Per-hierarchy text needles that make guards and statements decidable.
/// All needles match against literal-blanked code, so string contents
/// can never fake a protocol operation.
#[derive(Debug, Clone)]
pub struct Lens {
    /// Substrings that mean "interrogate the home (coherence-bearing)
    /// array for this block" — a `let Some(..) = <expr>` or
    /// `<expr>.is_some()` guard over such an expression decides by
    /// presence ([`Ctx::Absent`] vs resident).
    pub presence: &'static [&'static str],
    /// Substrings that mean "remove the home line". As a guard they
    /// decide by presence *and* leave the true path absent; as a
    /// statement they set the state to absent unconditionally.
    pub home_invalidate: &'static [&'static str],
    /// For hierarchies with an explicit per-granule private bit
    /// (Goodman): the insert call whose literal `true`/`false` argument
    /// writes the state.
    pub private_bit: Option<&'static str>,
}

/// One node of the parsed control skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowNode {
    /// A straight-line statement (or tail expression), one joined
    /// blanked-text blob.
    Stmt {
        /// 1-based line the statement starts on.
        line: usize,
        /// Blanked statement text (struct literals folded in).
        text: String,
    },
    /// A bare `{ … }` scope block.
    Sub(Vec<FlowNode>),
    /// `if <cond> { … } [else { … }]` (including `if let`; an
    /// `else if` chain nests as a single-node `els`).
    If {
        /// 1-based line of the `if`.
        line: usize,
        /// Guard text (for `if let`, starts with `let `).
        cond: String,
        /// Then-branch body.
        then: Vec<FlowNode>,
        /// Else-branch body (empty when absent).
        els: Vec<FlowNode>,
    },
    /// `let <pat> = <expr> else { … };` — the else body must diverge.
    LetElse {
        /// 1-based line of the `let`.
        line: usize,
        /// The `let <pat> = <expr>` text (trailing `else` stripped).
        cond: String,
        /// The diverging else body.
        els: Vec<FlowNode>,
    },
    /// `match <scrutinee> { <pat> => …, … }`.
    Match {
        /// 1-based line of the `match`.
        line: usize,
        /// Scrutinee text.
        scrutinee: String,
        /// Arms as (pattern text, body).
        arms: Vec<(String, Vec<FlowNode>)>,
    },
    /// `for`/`while`/`loop` — evaluated as zero-or-one iterations.
    Loop {
        /// 1-based line of the loop keyword.
        line: usize,
        /// The header's expression: a `for` loop's iterator, a `while`
        /// loop's condition, empty for `loop`.
        head: String,
        /// Loop body.
        body: Vec<FlowNode>,
    },
}

/// Parses a function's body lines — `(1-based line, blanked code)` as
/// [`FnNode::body`](crate::callgraph::FnNode) holds them, signature
/// line included — into the control skeleton of the body block.
pub fn parse_fn(body: &[(usize, String)]) -> Vec<FlowNode> {
    let mut chars: Vec<(usize, char)> = Vec::new();
    for (line, code) in body {
        for c in code.chars() {
            chars.push((*line, c));
        }
        chars.push((*line, '\n'));
    }
    let mut p = Parser { chars, at: 0 };
    // Skip the signature: everything up to the first `{` outside its
    // parameter list. A multi-line signature's body lines start at the
    // line holding the body brace, so a `)` may close a paren opened
    // before the first line (depth goes negative).
    let mut depth = 0i32;
    while let Some(c) = p.peek_char() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '{' if depth <= 0 => {
                p.bump();
                return p.parse_block();
            }
            _ => {}
        }
        p.bump();
    }
    Vec::new()
}

struct Parser {
    chars: Vec<(usize, char)>,
    at: usize,
}

impl Parser {
    fn peek_char(&self) -> Option<char> {
        self.chars.get(self.at).map(|&(_, c)| c)
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.at + ahead).map(|&(_, c)| c)
    }

    fn cur_line(&self) -> usize {
        self.chars
            .get(self.at)
            .or_else(|| self.chars.last())
            .map(|&(l, _)| l)
            .unwrap_or(0)
    }

    fn bump(&mut self) {
        self.at += 1;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek_char(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    /// True when the upcoming text is exactly the word `kw`.
    fn at_word(&self, kw: &str) -> bool {
        for (i, k) in kw.chars().enumerate() {
            if self.peek_at(i) != Some(k) {
                return false;
            }
        }
        !matches!(self.peek_at(kw.len()), Some(c) if c.is_alphanumeric() || c == '_')
    }

    /// Parses statements until the matching `}` (consumed) or EOF. The
    /// opening `{` must already be consumed.
    fn parse_block(&mut self) -> Vec<FlowNode> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            match self.peek_char() {
                None => break,
                Some('}') => {
                    self.bump();
                    break;
                }
                Some('{') => {
                    self.bump();
                    out.push(FlowNode::Sub(self.parse_block()));
                }
                Some(_) => out.push(self.parse_stmt_or_ctrl()),
            }
        }
        out
    }

    /// Accumulates one statement head; hands off to a control node when
    /// the head turns out to introduce one.
    fn parse_stmt_or_ctrl(&mut self) -> FlowNode {
        let line = self.cur_line();
        let mut head = String::new();
        let mut depth = 0i32;
        loop {
            let Some(c) = self.peek_char() else {
                return FlowNode::Stmt { line, text: head };
            };
            match c {
                '(' | '[' => {
                    depth += 1;
                    head.push(c);
                    self.bump();
                }
                ')' | ']' => {
                    depth -= 1;
                    head.push(c);
                    self.bump();
                }
                ';' if depth == 0 => {
                    self.bump();
                    return FlowNode::Stmt { line, text: head };
                }
                '}' if depth == 0 => {
                    // Tail expression; the `}` belongs to the caller.
                    return FlowNode::Stmt { line, text: head };
                }
                '{' => {
                    if depth == 0 {
                        if let Some(node) = self.try_control(&head, line) {
                            return node;
                        }
                    }
                    // Struct literal / nested expression braces: fold the
                    // whole balanced group into the statement text.
                    head.push('{');
                    self.bump();
                    self.fold_balanced(&mut head);
                }
                _ => {
                    head.push(c);
                    self.bump();
                }
            }
        }
    }

    /// Copies balanced `{ … }` text into `out` (opening brace already
    /// consumed), final `}` included.
    fn fold_balanced(&mut self, out: &mut String) {
        let mut depth = 1usize;
        while let Some(c) = self.peek_char() {
            out.push(c);
            self.bump();
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// Decides whether `head` followed by `{` introduces a control
    /// construct; if so consumes the construct and returns its node.
    fn try_control(&mut self, head: &str, line: usize) -> Option<FlowNode> {
        let t = head.trim();
        let word_at = |kw: &str| -> bool {
            t == kw
                || (t.starts_with(kw)
                    && !t[kw.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_'))
        };
        // `if` / `match` heads, possibly the right-hand side of a binding
        // (`let reply = match txn.op {`, `let hit = if present {`): the
        // text after the keyword.
        let rhs_of = |kw: &str| {
            let pos = find_word(t, kw)?;
            let before = t[..pos].trim_end();
            (before.is_empty() || before.ends_with('=')).then(|| t[pos + kw.len()..].trim())
        };
        if let Some(cond) = rhs_of("if") {
            self.bump(); // the `{`
            let then = self.parse_block();
            let els = self.parse_else();
            return Some(FlowNode::If {
                line,
                cond: cond.to_string(),
                then,
                els,
            });
        }
        if let Some(kw) = ["for", "while", "loop"].into_iter().find(|kw| word_at(kw)) {
            let rest = t[kw.len()..].trim();
            let head = match split_top_once(rest, " in ") {
                Some((_, iter)) if kw == "for" => iter.trim(),
                _ => rest,
            };
            self.bump();
            return Some(FlowNode::Loop {
                line,
                head: head.to_string(),
                body: self.parse_block(),
            });
        }
        if t.starts_with("let ") && t.ends_with("else") {
            self.bump();
            return Some(FlowNode::LetElse {
                line,
                cond: t[..t.len() - "else".len()].trim().to_string(),
                els: self.parse_block(),
            });
        }
        let scrutinee = rhs_of("match")?;
        self.bump();
        Some(FlowNode::Match {
            line,
            scrutinee: scrutinee.to_string(),
            arms: self.parse_arms(),
        })
    }

    /// Parses an optional `else { … }` / `else if …` continuation.
    fn parse_else(&mut self) -> Vec<FlowNode> {
        let checkpoint = self.at;
        self.skip_ws();
        if !self.at_word("else") {
            self.at = checkpoint;
            return Vec::new();
        }
        for _ in 0.."else".len() {
            self.bump();
        }
        self.skip_ws();
        if self.peek_char() == Some('{') {
            self.bump();
            self.parse_block()
        } else {
            // `else if …`: one nested node.
            vec![self.parse_stmt_or_ctrl()]
        }
    }

    /// Parses match arms until the closing `}` of the match.
    fn parse_arms(&mut self) -> Vec<(String, Vec<FlowNode>)> {
        let mut arms = Vec::new();
        loop {
            self.skip_ws();
            match self.peek_char() {
                None => break,
                Some('}') => {
                    self.bump();
                    break;
                }
                Some(_) => {
                    let mut pat = String::new();
                    let mut depth = 0i32;
                    loop {
                        match self.peek_char() {
                            None => break,
                            Some('=') if depth == 0 && self.peek_at(1) == Some('>') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(c) => {
                                if c == '(' || c == '[' {
                                    depth += 1;
                                } else if c == ')' || c == ']' {
                                    depth -= 1;
                                }
                                pat.push(c);
                                self.bump();
                            }
                        }
                    }
                    self.skip_ws();
                    let body = if self.peek_char() == Some('{') {
                        self.bump();
                        let b = self.parse_block();
                        self.skip_ws();
                        if self.peek_char() == Some(',') {
                            self.bump();
                        }
                        b
                    } else {
                        vec![self.parse_arm_expr()]
                    };
                    arms.push((pat.trim().to_string(), body));
                }
            }
        }
        arms
    }

    /// Parses an expression arm body: text until `,` at depth 0 or the
    /// match's closing `}` (left unconsumed).
    fn parse_arm_expr(&mut self) -> FlowNode {
        let line = self.cur_line();
        let mut text = String::new();
        let mut depth = 0i32;
        loop {
            let Some(c) = self.peek_char() else {
                return FlowNode::Stmt { line, text };
            };
            match c {
                '(' | '[' => {
                    depth += 1;
                    text.push(c);
                    self.bump();
                }
                ')' | ']' => {
                    depth -= 1;
                    text.push(c);
                    self.bump();
                }
                ',' if depth == 0 => {
                    self.bump();
                    return FlowNode::Stmt { line, text };
                }
                '}' if depth == 0 => {
                    return FlowNode::Stmt { line, text };
                }
                '{' => {
                    text.push(c);
                    self.bump();
                    self.fold_balanced(&mut text);
                }
                _ => {
                    text.push(c);
                    self.bump();
                }
            }
        }
    }
}

/// Flattens a skeleton in source order into `(line, text)` pieces:
/// statement text, `if` / `let … else` conditions, `match` scrutinees,
/// loop header expressions, and the pieces of every branch, arm and
/// loop body. Line breaks inside a piece become spaces.
pub fn flatten(nodes: &[FlowNode]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for node in nodes {
        let (line, text, bodies): (usize, &str, Vec<&[FlowNode]>) = match node {
            FlowNode::Stmt { line, text } => (*line, text, Vec::new()),
            FlowNode::Sub(body) => (0, "", vec![body]),
            FlowNode::If {
                line,
                cond,
                then,
                els,
            } => (*line, cond, vec![then, els]),
            FlowNode::LetElse { line, cond, els } => (*line, cond, vec![els]),
            FlowNode::Match {
                line,
                scrutinee,
                arms,
            } => (*line, scrutinee, arms.iter().map(|(_, b)| &b[..]).collect()),
            FlowNode::Loop { line, head, body } => (*line, head, vec![body]),
        };
        if !text.trim().is_empty() {
            out.push((line, text.replace('\n', " ")));
        }
        for body in bodies {
            out.extend(flatten(body));
        }
    }
    out
}

/// Splits `s` at every top-level (paren/bracket/brace-depth-0)
/// occurrence of any operator in `ops`, or `None` when no split
/// happened. Both sides of every split must be non-empty, and a
/// one-character operator never matches half of a doubled or
/// compound one (`|` inside `||` or `|=`).
pub fn split_top<'a>(s: &'a str, ops: &[&str]) -> Option<Vec<&'a str>> {
    let b = s.as_bytes();
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    let mut i = 0;
    'outer: while i < b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            _ if depth == 0 => {
                for op in ops {
                    if !s[i..].starts_with(op) {
                        continue;
                    }
                    if op.len() == 1 {
                        let c = b[i];
                        let prev = if i > 0 { b[i - 1] } else { b' ' };
                        let next = *b.get(i + 1).unwrap_or(&b' ');
                        if prev == c || next == c || next == b'=' || prev == b'=' {
                            continue;
                        }
                    }
                    let (before, after) = (&s[start..i], &s[i + op.len()..]);
                    if before.trim().is_empty() || after.trim().is_empty() {
                        continue;
                    }
                    parts.push(before);
                    start = i + op.len();
                    i = start;
                    continue 'outer;
                }
            }
            _ => {}
        }
        i += 1;
    }
    if parts.is_empty() {
        return None;
    }
    parts.push(&s[start..]);
    Some(parts)
}

/// Splits once at the first top-level occurrence of `op`.
pub fn split_top_once<'a>(s: &'a str, op: &str) -> Option<(&'a str, &'a str)> {
    let b = s.as_bytes();
    let mut depth = 0i32;
    for i in 0..b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            _ if depth == 0 && s[i..].starts_with(op) => {
                return Some((&s[..i], &s[i + op.len()..]));
            }
            _ => {}
        }
    }
    None
}

/// Splits a comma-separated list at top-level commas (a trailing comma
/// adds no empty part).
pub fn split_args(args: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let b = args.as_bytes();
    let mut depth = 0i32;
    let mut start = 0;
    for i in 0..b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                out.push(&args[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !args[start..].trim().is_empty() {
        out.push(&args[start..]);
    }
    out
}

/// The abstract machine state along one evaluation path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// Possible coherence standings of the snooped block.
    pub states: BTreeSet<Ctx>,
    /// Reply acknowledges a copy.
    pub has_copy: Tri,
    /// Reply carries data.
    pub supplied: Tri,
    /// Something was pushed into a local supply vector (decides
    /// `is_empty()` guards).
    pub pushed: Tri,
    /// Observable actions (event counters), kebab-cased.
    pub actions: BTreeMap<String, Tri>,
}

impl AbsState {
    fn seeded(init: Ctx) -> AbsState {
        AbsState {
            states: [init].into_iter().collect(),
            has_copy: Tri::No,
            supplied: Tri::No,
            pushed: Tri::No,
            actions: BTreeMap::new(),
        }
    }

    fn join_from(&mut self, other: &AbsState) {
        self.states.extend(other.states.iter().copied());
        self.has_copy = self.has_copy.join(other.has_copy);
        self.supplied = self.supplied.join(other.supplied);
        self.pushed = self.pushed.join(other.pushed);
        let keys: BTreeSet<String> = self
            .actions
            .keys()
            .chain(other.actions.keys())
            .cloned()
            .collect();
        for k in keys {
            let a = self.actions.get(&k).copied().unwrap_or(Tri::No);
            let b = other.actions.get(&k).copied().unwrap_or(Tri::No);
            let joined = a.join(b);
            if joined == Tri::No {
                self.actions.remove(&k);
            } else {
                self.actions.insert(k, joined);
            }
        }
    }
}

fn join_all(paths: Vec<AbsState>) -> Option<AbsState> {
    let mut it = paths.into_iter();
    let mut acc = it.next()?;
    for s in it {
        acc.join_from(&s);
    }
    Some(acc)
}

/// The result of evaluating one `(state, op)` query over a handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// False when every path rejected (`debug_assert!(false …)` /
    /// `unreachable!`): a dead combination with no transition row.
    pub live: bool,
    /// Possible post-snoop standings over all surviving paths.
    pub states: BTreeSet<Ctx>,
    /// Reply copy acknowledgement.
    pub has_copy: Tri,
    /// Reply data supply.
    pub supplied: Tri,
    /// Observable actions.
    pub actions: BTreeMap<String, Tri>,
}

/// Evaluates `body` (a parsed handler skeleton) for bus operation
/// variant `op` (e.g. `ReadMiss`) starting from coherence standing
/// `init`. `helpers` pairs each inlinable `snoop_*` helper's call
/// needle (`self.snoop_read(` for the handler type's own, `.snoop_read(`
/// for a shared impl's) with its parsed body; a statement inlines the
/// first helper, in slice order, whose needle it contains.
pub fn eval_handler(
    body: &[FlowNode],
    lens: &Lens,
    helpers: &[(String, Vec<FlowNode>)],
    op: &str,
    init: Ctx,
) -> Outcome {
    let mut machine = Machine {
        lens,
        helpers,
        op,
        inlining: Vec::new(),
    };
    let flow = machine.eval_block(body, AbsState::seeded(init));
    let mut paths: Vec<AbsState> = flow.rets;
    paths.extend(flow.fall);
    match join_all(paths) {
        None => Outcome {
            live: false,
            states: BTreeSet::new(),
            has_copy: Tri::No,
            supplied: Tri::No,
            actions: BTreeMap::new(),
        },
        Some(s) => Outcome {
            live: true,
            states: s.states,
            has_copy: s.has_copy,
            supplied: s.supplied,
            actions: s.actions,
        },
    }
}

/// Control-flow outcome of a block: the fallthrough state (if any path
/// falls through) plus the states at `return` / `continue` / `break`
/// sites. Rejected paths vanish.
struct Flow {
    fall: Option<AbsState>,
    rets: Vec<AbsState>,
    conts: Vec<AbsState>,
    brks: Vec<AbsState>,
}

impl Flow {
    fn dead() -> Flow {
        Flow {
            fall: None,
            rets: Vec::new(),
            conts: Vec::new(),
            brks: Vec::new(),
        }
    }
}

struct Machine<'a> {
    lens: &'a Lens,
    helpers: &'a [(String, Vec<FlowNode>)],
    op: &'a str,
    inlining: Vec<String>,
}

/// Guard evaluation: the refined entry state of each branch (`None` =
/// branch unreachable under the query).
struct Branches {
    then_entry: Option<AbsState>,
    else_entry: Option<AbsState>,
}

impl Machine<'_> {
    fn eval_block(&mut self, nodes: &[FlowNode], entry: AbsState) -> Flow {
        let mut out = Flow::dead();
        let mut cur = Some(entry);
        for node in nodes {
            let Some(state) = cur.take() else {
                break; // every path already diverged
            };
            let step = self.eval_node(node, state);
            out.rets.extend(step.rets);
            out.conts.extend(step.conts);
            out.brks.extend(step.brks);
            cur = step.fall;
        }
        out.fall = cur;
        out
    }

    fn eval_node(&mut self, node: &FlowNode, state: AbsState) -> Flow {
        match node {
            FlowNode::Stmt { text, .. } => self.eval_stmt(text, state),
            FlowNode::Sub(nodes) => self.eval_block(nodes, state),
            FlowNode::If {
                cond, then, els, ..
            } => {
                let b = self.eval_guard(cond, &state);
                let mut flows: Vec<Flow> = Vec::new();
                if let Some(s) = b.then_entry {
                    flows.push(self.eval_block(then, s));
                }
                if let Some(s) = b.else_entry {
                    if els.is_empty() {
                        flows.push(Flow {
                            fall: Some(s),
                            rets: Vec::new(),
                            conts: Vec::new(),
                            brks: Vec::new(),
                        });
                    } else {
                        flows.push(self.eval_block(els, s));
                    }
                }
                merge_flows(flows)
            }
            FlowNode::LetElse { cond, els, .. } => {
                let b = self.eval_guard(cond, &state);
                let mut flows: Vec<Flow> = Vec::new();
                if let Some(s) = b.else_entry {
                    flows.push(self.eval_block(els, s));
                }
                if let Some(s) = b.then_entry {
                    flows.push(Flow {
                        fall: Some(s),
                        rets: Vec::new(),
                        conts: Vec::new(),
                        brks: Vec::new(),
                    });
                }
                merge_flows(flows)
            }
            FlowNode::Match {
                scrutinee, arms, ..
            } => {
                let on_op = {
                    let t = scrutinee.trim();
                    t == "self.op" || t.ends_with(".op") || t == "op"
                };
                let mut flows: Vec<Flow> = Vec::new();
                if on_op {
                    for (pat, body) in arms {
                        let (matches_op, guarded) = arm_matches(pat, self.op);
                        if matches_op {
                            flows.push(self.eval_block(body, state.clone()));
                            if !guarded {
                                break; // first unguarded matching arm wins
                            }
                        }
                    }
                } else {
                    for (_, body) in arms {
                        flows.push(self.eval_block(body, state.clone()));
                    }
                }
                merge_flows(flows)
            }
            FlowNode::Loop { body, .. } => {
                // Zero-or-one abstract iterations: the exit state joins
                // the entry (zero) with the body's fallthrough and any
                // `continue`/`break` states (one).
                let inner = self.eval_block(body, state.clone());
                let mut exit = state;
                if let Some(s) = &inner.fall {
                    exit.join_from(s);
                }
                for s in inner.conts.iter().chain(inner.brks.iter()) {
                    exit.join_from(s);
                }
                Flow {
                    fall: Some(exit),
                    rets: inner.rets,
                    conts: Vec::new(),
                    brks: Vec::new(),
                }
            }
        }
    }

    fn eval_stmt(&mut self, text: &str, mut state: AbsState) -> Flow {
        let t = text.trim();
        // Rejection markers: this path is unreachable by design.
        if t.contains("debug_assert!(false") || t.contains("unreachable!(") {
            return Flow::dead();
        }
        // Helper inlining: `self.snoop_*(…)` or `<shared>.snoop_*(…)`.
        for (call, body) in self.helpers {
            if t.contains(call.as_str()) && !self.inlining.contains(call) {
                self.inlining.push(call.clone());
                let inner = self.eval_block(body, state);
                self.inlining.pop();
                // Helper `return`s are helper exits: they join the
                // caller's fallthrough — or the caller's return, for
                // `return self.snoop_*(…)`.
                let mut paths = inner.rets;
                paths.extend(inner.fall);
                let Some(s) = join_all(paths) else {
                    return Flow::dead();
                };
                let returns = find_word(t, "return").is_some();
                return Flow {
                    fall: (!returns).then(|| s.clone()),
                    rets: if returns { vec![s] } else { Vec::new() },
                    conts: Vec::new(),
                    brks: Vec::new(),
                };
            }
        }
        apply_facts(t, self.lens, &mut state);
        // Divergence control.
        if find_word(t, "return").is_some() {
            return Flow {
                fall: None,
                rets: vec![state],
                conts: Vec::new(),
                brks: Vec::new(),
            };
        }
        if t == "continue" {
            return Flow {
                fall: None,
                rets: Vec::new(),
                conts: vec![state],
                brks: Vec::new(),
            };
        }
        if t == "break" || t.starts_with("break ") {
            return Flow {
                fall: None,
                rets: Vec::new(),
                conts: Vec::new(),
                brks: vec![state],
            };
        }
        Flow {
            fall: Some(state),
            rets: Vec::new(),
            conts: Vec::new(),
            brks: Vec::new(),
        }
    }

    fn eval_guard(&mut self, cond: &str, state: &AbsState) -> Branches {
        let conjuncts = split_top(cond, &["&&"]).unwrap_or_else(|| vec![cond]);
        // A top-level `||` makes the whole guard opaque (no conjunct
        // below is individually necessary).
        let opaque_disjunction = split_top(cond, &["||"]).is_some();
        let mut then_entry = state.clone();
        let mut decided_true = true;
        let mut any_false = false;
        let mut evals = Vec::new();
        if opaque_disjunction {
            return Branches {
                then_entry: Some(state.clone()),
                else_entry: Some(state.clone()),
            };
        }
        for c in &conjuncts {
            let g = classify_guard(c.trim(), self.lens, self.op, state);
            match g.decision {
                Some(true) => {}
                Some(false) => any_false = true,
                None => decided_true = false,
            }
            evals.push(g);
        }
        if any_false {
            return Branches {
                then_entry: None,
                else_entry: Some(state.clone()),
            };
        }
        for g in &evals {
            (g.refine_true)(&mut then_entry);
        }
        let else_entry = if decided_true {
            None
        } else {
            let mut s = state.clone();
            if evals.len() == 1 {
                (evals[0].refine_false)(&mut s);
            }
            Some(s)
        };
        Branches {
            then_entry: Some(then_entry),
            else_entry,
        }
    }
}

fn merge_flows(flows: Vec<Flow>) -> Flow {
    let mut out = Flow::dead();
    let mut falls = Vec::new();
    for f in flows {
        falls.extend(f.fall);
        out.rets.extend(f.rets);
        out.conts.extend(f.conts);
        out.brks.extend(f.brks);
    }
    out.fall = join_all(falls);
    out
}

/// Does arm pattern `pat` cover bus operation variant `op`? Returns
/// `(matches, has_guard)`; a `_` (or op-free binding) pattern matches
/// everything.
fn arm_matches(pat: &str, op: &str) -> (bool, bool) {
    let guarded = find_word(pat, "if").is_some();
    let mut found_any = false;
    for ident in path_idents(pat, "BusOp::") {
        if ident == op {
            return (true, guarded);
        }
        found_any = true;
    }
    // No BusOp mention: a wildcard / binding pattern covers every op.
    (!found_any, guarded)
}

/// One classified conjunct: its decision under the current state (if
/// decidable) and the state refinements each branch applies.
struct GuardEval {
    decision: Option<bool>,
    refine_true: Box<dyn Fn(&mut AbsState)>,
    refine_false: Box<dyn Fn(&mut AbsState)>,
}

fn no_refine() -> Box<dyn Fn(&mut AbsState)> {
    Box::new(|_| {})
}

fn classify_guard(conjunct: &str, lens: &Lens, op: &str, state: &AbsState) -> GuardEval {
    let (inner, negated) = match conjunct.strip_prefix('!') {
        Some(rest) if !rest.starts_with('=') => (rest.trim(), true),
        _ => (conjunct, false),
    };

    // `txn.op == BusOp::X` / `!=` and `matches!(txn.op, BusOp::X | …)`.
    if inner.contains("BusOp::") {
        let mut hit = path_idents(inner, "BusOp::").any(|o| o == op);
        if inner.contains("!=") {
            hit = !hit;
        }
        if negated {
            hit = !hit;
        }
        return GuardEval {
            decision: Some(hit),
            refine_true: no_refine(),
            refine_false: no_refine(),
        };
    }

    // `… == CohState::X` / `!=`.
    if let Some(pos) = inner.find("CohState::") {
        let ident: String = inner[pos + "CohState::".len()..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if let Some(ctx) = Ctx::from_variant(&ident) {
            let mut eq = !inner.contains("!=");
            if negated {
                eq = !eq;
            }
            let decision = if state.states.iter().all(|&s| (s == ctx) == eq) {
                Some(true)
            } else if state.states.iter().all(|&s| (s == ctx) != eq) {
                Some(false)
            } else {
                None
            };
            let keep: Box<dyn Fn(&mut AbsState)> = Box::new(move |s: &mut AbsState| {
                s.states.retain(|&x| (x == ctx) == eq);
            });
            let drop: Box<dyn Fn(&mut AbsState)> = Box::new(move |s: &mut AbsState| {
                s.states.retain(|&x| (x == ctx) != eq);
            });
            return GuardEval {
                decision,
                refine_true: keep,
                refine_false: drop,
            };
        }
    }

    // Presence guards: `let Some(x) = <home interrogation>` or
    // `<home interrogation>.is_some()`.
    let probes_home = |s: &str| {
        lens.presence.iter().any(|n| s.contains(n))
            || lens.home_invalidate.iter().any(|n| s.contains(n))
    };
    let is_let_some = inner.starts_with("let Some(");
    let is_some_call = inner.contains(".is_some()");
    if (is_let_some || is_some_call) && probes_home(inner) {
        let invalidates = lens.home_invalidate.iter().any(|n| inner.contains(n));
        let can_be_present =
            state.states.contains(&Ctx::Shared) || state.states.contains(&Ctx::Private);
        let can_be_absent = state.states.contains(&Ctx::Absent);
        let mut present_decision = if can_be_present && !can_be_absent {
            Some(true)
        } else if can_be_absent && !can_be_present {
            Some(false)
        } else {
            None
        };
        if negated {
            present_decision = present_decision.map(|d| !d);
        }
        // Branch refinement is in *presence* terms; negation swaps which
        // branch sees the present standing.
        let present_refine: Box<dyn Fn(&mut AbsState)> = Box::new(move |s: &mut AbsState| {
            s.states.retain(|&x| x != Ctx::Absent);
            if invalidates {
                s.states = [Ctx::Absent].into_iter().collect();
            }
        });
        let absent_refine: Box<dyn Fn(&mut AbsState)> = Box::new(|s: &mut AbsState| {
            s.states.retain(|&x| x == Ctx::Absent);
        });
        let (refine_true, refine_false) = if negated {
            (absent_refine, present_refine)
        } else {
            (present_refine, absent_refine)
        };
        return GuardEval {
            decision: present_decision,
            refine_true,
            refine_false,
        };
    }

    // `x.is_empty()` over a local supply vector: decided by whether
    // anything was pushed on this path.
    if inner.contains(".is_empty()") {
        let empty = match state.pushed {
            Tri::No => Some(true),
            Tri::Yes => Some(false),
            Tri::May => None,
        };
        let decision = if negated { empty.map(|e| !e) } else { empty };
        return GuardEval {
            decision,
            refine_true: no_refine(),
            refine_false: no_refine(),
        };
    }

    GuardEval {
        decision: None,
        refine_true: no_refine(),
        refine_false: no_refine(),
    }
}

/// Applies a statement's protocol facts to the abstract state.
fn apply_facts(t: &str, lens: &Lens, state: &mut AbsState) {
    // Reply construction. `SnoopReply::default()` without an explicit
    // `has_copy: true` resets the reply facts; a functional-update
    // struct literal with `has_copy: true` acknowledges.
    if t.contains("has_copy: true") || t.contains("has_copy = true") {
        state.has_copy = Tri::Yes;
    } else if t.contains("SnoopReply::default()") {
        state.has_copy = Tri::No;
        state.supplied = Tri::No;
    }
    if t.contains("supplied = Some(") || t.contains("supplied: Some(") {
        state.supplied = Tri::Yes;
    }
    if t.contains(".push(") {
        state.pushed = Tri::Yes;
    }
    // State writes: `… .state = CohState::X` (not `==`).
    if let Some(ctx) = state_write(t) {
        state.states = [ctx].into_iter().collect();
    }
    if lens.home_invalidate.iter().any(|n| t.contains(n)) {
        state.states = [Ctx::Absent].into_iter().collect();
    }
    if let Some(needle) = lens.private_bit {
        if t.contains(needle) {
            if t.contains("true") {
                state.states = [Ctx::Private].into_iter().collect();
            } else if t.contains("false") {
                state.states = [Ctx::Shared].into_iter().collect();
            }
        }
    }
    // Observable actions: `events.<name> += …`, as a field of `self` or
    // as a shared helper's parameter — but not `other_events.…`.
    let mut rest = t;
    while let Some(pos) = rest.find("events.") {
        let after = &rest[pos + "events.".len()..];
        let bound = rest[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
        if !bound {
            rest = after;
            continue;
        }
        let ident: String = after
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let tail = &after[ident.len()..];
        if !ident.is_empty() && tail.trim_start().starts_with("+=") {
            state.actions.insert(ident.replace('_', "-"), Tri::Yes);
        }
        rest = after;
    }
}

/// Extracts the `CohState` variant of a `… .state = CohState::X` write
/// (assignment, not comparison).
fn state_write(t: &str) -> Option<Ctx> {
    let pos = t.find("= CohState::")?;
    // Reject `==`, `!=`, `>=`, `<=` — only a plain assignment counts.
    let before = t[..pos].trim_end();
    if before.ends_with(['=', '!', '<', '>']) {
        return None;
    }
    let ident: String = t[pos + "= CohState::".len()..]
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    Ctx::from_variant(&ident)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_LENS: Lens = Lens {
        presence: &[".l2.peek", ".l2.lookup"],
        home_invalidate: &[".l2.invalidate("],
        private_bit: None,
    };

    fn body_of(src: &str) -> Vec<(usize, String)> {
        src.lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.to_string()))
            .collect()
    }

    fn run(src: &str, op: &str, init: Ctx) -> Outcome {
        let tree = parse_fn(&body_of(src));
        eval_handler(&tree, &TEST_LENS, &[], op, init)
    }

    #[test]
    fn flatten_lays_out_every_piece_in_source_order() {
        let src = "pub fn f(
    x: u64,
) -> u64 {
    let a = g(x);
    if let Some(b) = h(a) {
        k(b);
    } else {
        m();
    }
    for i in 0..n(a) {
        p(i);
    }
    let Some(c) = q() else {
        return 0;
    };
    let v = match r(c) {
        1 => s(),
        _ => {
            t(
                c,
            );
        }
    };
    let w = if u() { y() } else { z() };
    v + w
}";
        let pieces: Vec<(usize, String)> = flatten(&parse_fn(&body_of(src)[2..]));
        let texts: Vec<&str> = pieces.iter().map(|(_, t)| t.trim()).collect();
        assert_eq!(
            texts,
            [
                "let a = g(x)",
                "let Some(b) = h(a)",
                "k(b)",
                "m()",
                "0..n(a)",
                "p(i)",
                "let Some(c) = q()",
                "return 0",
                "r(c)",
                "s()",
                "t(                 c,             )",
                "u()",
                "y()",
                "z()",
                "v + w",
            ]
        );
        let lines: Vec<usize> = pieces.iter().map(|(l, _)| *l).collect();
        assert_eq!(
            lines,
            [4, 5, 6, 8, 10, 11, 13, 14, 16, 17, 19, 24, 24, 24, 25]
        );
    }

    #[test]
    fn top_level_splits_respect_nesting() {
        assert_eq!(
            split_top("a || (b || c)", &["||"]),
            Some(vec!["a ", " (b || c)"])
        );
        assert_eq!(split_top("a | b || c", &["|"]), Some(vec!["a ", " b || c"]));
        assert_eq!(split_top("{ a + b }", &["+"]), None);
        assert_eq!(split_top("-a", &["-"]), None, "a sign is not an operator");
        assert_eq!(
            split_top_once("x: Vec<(u8, u8)>", ":"),
            Some(("x", " Vec<(u8, u8)>"))
        );
        assert_eq!(split_args("a, f(b, c),\n"), vec!["a", " f(b, c)"]);
        assert_eq!(split_args(""), Vec::<&str>::new());
    }

    #[test]
    fn nested_matches_join_inner_arms() {
        // The outer match selects by op; the inner match (opaque
        // scrutinee) joins both arms, so the write in one inner arm is
        // a may-fact and the state union covers both outcomes.
        let src = "fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            match txn.op {
                BusOp::ReadMiss => {
                    match line.kind {
                        Kind::A => {
                            line.meta.state = CohState::Shared;
                            self.events.flush_v += 1;
                        }
                        Kind::B => {}
                    }
                    SnoopReply { has_copy: true, ..SnoopReply::default() }
                }
                BusOp::Invalidate => SnoopReply::default(),
            }
        }";
        let out = run(src, "ReadMiss", Ctx::Private);
        assert!(out.live);
        let want: BTreeSet<Ctx> = [Ctx::Shared, Ctx::Private].into_iter().collect();
        assert_eq!(out.states, want, "inner arms join: write is conditional");
        assert_eq!(out.actions.get("flush-v"), Some(&Tri::May));
        assert_eq!(out.has_copy, Tri::Yes, "both inner arms reach the reply");
    }

    #[test]
    fn if_let_presence_guard_chain_refines_both_branches() {
        let src = "fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            if let Some(line) = self.l2.peek_mut(p2) {
                line.meta.state = CohState::Shared;
                return SnoopReply { has_copy: true, ..SnoopReply::default() };
            }
            SnoopReply::default()
        }";
        // Starting absent: the then-branch is unreachable.
        let absent = run(src, "ReadMiss", Ctx::Absent);
        assert_eq!(absent.has_copy, Tri::No);
        let want: BTreeSet<Ctx> = [Ctx::Absent].into_iter().collect();
        assert_eq!(absent.states, want);
        // Starting private: the else-branch is unreachable.
        let private = run(src, "ReadMiss", Ctx::Private);
        assert_eq!(private.has_copy, Tri::Yes);
        let want: BTreeSet<Ctx> = [Ctx::Shared].into_iter().collect();
        assert_eq!(private.states, want);
    }

    #[test]
    fn matches_guard_decides_by_op() {
        let src = "fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            if matches!(txn.op, BusOp::Invalidate | BusOp::ReadModifiedWrite) {
                self.events.inval_v += 1;
            }
            SnoopReply::default()
        }";
        let hit = run(src, "Invalidate", Ctx::Shared);
        assert_eq!(hit.actions.get("inval-v"), Some(&Tri::Yes));
        let miss = run(src, "ReadMiss", Ctx::Shared);
        assert!(miss.actions.is_empty(), "{:?}", miss.actions);
    }

    #[test]
    fn multiple_state_writes_in_one_arm_last_wins() {
        let src = "fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            line.meta.state = CohState::Private;
            self.events.update_v += 1;
            line.meta.state = CohState::Shared;
            SnoopReply::default()
        }";
        let out = run(src, "Update", Ctx::Absent);
        let want: BTreeSet<Ctx> = [Ctx::Shared].into_iter().collect();
        assert_eq!(out.states, want, "the last write is the post-state");
        assert_eq!(out.actions.get("update-v"), Some(&Tri::Yes));
    }

    #[test]
    fn early_return_arms_join_with_fallthrough() {
        // let-else early return: the absent path exits with no copy,
        // the resident path falls through with one — the query decides
        // which, and a mixed entry would join to May.
        let src = "fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            let Some(line) = self.l2.peek_mut(p2) else {
                return SnoopReply::default();
            };
            line.meta.state = CohState::Shared;
            SnoopReply { has_copy: true, ..SnoopReply::default() }
        }";
        let absent = run(src, "ReadMiss", Ctx::Absent);
        assert_eq!(absent.has_copy, Tri::No);
        let shared = run(src, "ReadMiss", Ctx::Shared);
        assert_eq!(shared.has_copy, Tri::Yes);
    }

    #[test]
    fn rejection_markers_kill_the_path() {
        let src = "fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            if txn.op == BusOp::Update {
                debug_assert!(false, \"no update\");
                return SnoopReply::default();
            }
            SnoopReply::default()
        }";
        assert!(!run(src, "Update", Ctx::Shared).live, "update must reject");
        assert!(run(src, "ReadMiss", Ctx::Shared).live);
    }

    #[test]
    fn loop_facts_degrade_to_may() {
        let src = "fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            for g in granules {
                self.events.inval_v += 1;
                supplied.push(x);
            }
            if supplied.is_empty() {
                return SnoopReply::default();
            }
            SnoopReply { has_copy: true, supplied: Some(supplied), ..SnoopReply::default() }
        }";
        let out = run(src, "Invalidate", Ctx::Shared);
        assert_eq!(out.actions.get("inval-v"), Some(&Tri::May));
        assert_eq!(out.has_copy, Tri::May, "both is_empty outcomes join");
        assert_eq!(out.supplied, Tri::May);
    }

    #[test]
    fn home_invalidate_statement_empties_the_state() {
        let src = "fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            self.l2.invalidate(p2);
            SnoopReply::default()
        }";
        let out = run(src, "Invalidate", Ctx::Private);
        let want: BTreeSet<Ctx> = [Ctx::Absent].into_iter().collect();
        assert_eq!(out.states, want);
    }

    #[test]
    fn helper_inlining_carries_facts_back() {
        let helper_src = "fn snoop_read(&mut self, block: BlockId) -> SnoopReply {
            let Some(line) = self.l2.peek_mut(p2) else {
                return SnoopReply::default();
            };
            line.meta.state = CohState::Shared;
            SnoopReply { has_copy: true, ..SnoopReply::default() }
        }";
        let src = "fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            let reply = self.snoop_read(txn.block);
            reply
        }";
        let helpers = [(
            "self.snoop_read(".to_string(),
            parse_fn(&body_of(helper_src)),
        )];
        let tree = parse_fn(&body_of(src));
        let out = eval_handler(&tree, &TEST_LENS, &helpers, "ReadMiss", Ctx::Private);
        assert_eq!(out.has_copy, Tri::Yes);
        let want: BTreeSet<Ctx> = [Ctx::Shared].into_iter().collect();
        assert_eq!(out.states, want);
    }

    #[test]
    fn struct_literals_fold_into_statements() {
        // Braces inside a call argument must not open a scope.
        let src = "fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            self.bus.issue(BusRequest::WriteBack { block, data });
            self.events.flush_v += 1;
            SnoopReply::default()
        }";
        let out = run(src, "ReadMiss", Ctx::Shared);
        assert!(out.live);
        assert_eq!(out.actions.get("flush-v"), Some(&Tri::Yes));
    }

    #[test]
    fn wildcard_arm_covers_unlisted_ops() {
        let src = "fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            match txn.op {
                BusOp::ReadMiss => SnoopReply { has_copy: true, ..SnoopReply::default() },
                _ => SnoopReply::default(),
            }
        }";
        assert_eq!(run(src, "ReadMiss", Ctx::Shared).has_copy, Tri::Yes);
        assert_eq!(run(src, "Update", Ctx::Shared).has_copy, Tri::No);
        assert!(run(src, "Update", Ctx::Shared).live);
    }
}
