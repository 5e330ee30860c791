//! The mutation operators: pure line-oriented rewrites of rustfmt'd
//! source.
//!
//! The engine deliberately works on formatted text rather than an AST:
//! the workspace is rustfmt-clean (enforced by `scripts/check.sh`), so
//! spaced needles like `" == "` are unambiguous — they cannot collide
//! with `=>`, `<<`, or turbofish generics — and line-level edits keep
//! mutants trivially revertible and content-addressable. Every operator
//! must produce code that (a) differs from the original and (b) is
//! *expected* to compile; mutants that still fail to build are
//! classified `build-error` by the pipeline and excluded from the score.
//!
//! Lines are never mutated when they are test code (the trailing
//! `#[cfg(test)] mod` region, or any `#[cfg(test)]`-gated item such as
//! test-only helpers), attributes, or assertion/panic lines — mutating
//! an assertion weakens the oracle instead of the system under test.

use crate::{code_portion, contains_word, Edit, Operator, FLAG_WORDS};

/// A mutant before identity assignment (done by [`crate::generate`]).
pub(crate) struct Proto {
    pub op: Operator,
    pub edits: Vec<Edit>,
    pub description: String,
}

impl Proto {
    fn single(op: Operator, line: usize, original: &str, mutated: String, desc: String) -> Proto {
        Proto {
            op,
            edits: vec![Edit {
                line,
                original: original.to_string(),
                mutated,
            }],
            description: desc,
        }
    }
}

/// Per-file scan state: raw lines, comment-stripped code, eligibility.
struct Scan<'a> {
    raw: Vec<&'a str>,
    code: Vec<String>,
    eligible: Vec<bool>,
}

const TEST_MARKER: &str = "#[cfg(test)]";

/// Net `{`/`}` depth change of a line's code portion, ignoring braces
/// inside string literals (format strings routinely contain `{x:?}`).
fn braces_delta(code: &str) -> i32 {
    let bytes = code.as_bytes();
    let mut delta = 0;
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'{' if !in_str => delta += 1,
            b'}' if !in_str => delta -= 1,
            _ => {}
        }
        i += 1;
    }
    delta
}

/// Net `(`/`)` balance of one line, ignoring parens inside string literals.
fn parens_delta(code: &str) -> i32 {
    let bytes = code.as_bytes();
    let mut delta = 0;
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'(' if !in_str => delta += 1,
            b')' if !in_str => delta -= 1,
            _ => {}
        }
        i += 1;
    }
    delta
}

fn scan(text: &str) -> Scan<'_> {
    let raw: Vec<&str> = text.lines().collect();
    let code: Vec<String> = raw.iter().map(|l| code_portion(l).to_string()).collect();
    let mut eligible = vec![true; raw.len()];

    // Test regions: a `#[cfg(test)]` followed by `mod` closes the file
    // (workspace style keeps the test module at the bottom); one
    // followed by any other item gates just that item — skip it by
    // brace tracking.
    let mut i = 0;
    while i < raw.len() {
        if code[i].trim_start().starts_with(TEST_MARKER) {
            let next_code = code[i + 1..]
                .iter()
                .map(|c| c.trim())
                .find(|c| !c.is_empty());
            if next_code.is_some_and(|c| contains_word(c, "mod")) {
                for slot in eligible.iter_mut().skip(i) {
                    *slot = false;
                }
                break;
            }
            let mut depth = 0;
            let mut opened = false;
            let mut k = i;
            while k < raw.len() {
                eligible[k] = false;
                depth += braces_delta(&code[k]);
                if depth > 0 {
                    opened = true;
                }
                if opened && depth <= 0 {
                    break;
                }
                if !opened && code[k].trim_end().ends_with(';') {
                    break;
                }
                k += 1;
            }
            i = k + 1;
            continue;
        }
        i += 1;
    }

    // Blanket exclusions: blank / attribute / assertion / panic lines.
    // An assertion whose arguments continue past the line (unbalanced
    // parens) excludes the continuation lines too — the condition text
    // of a multi-line `debug_assert!` is still oracle, not system.
    let mut open_macro = 0i32;
    for (idx, c) in code.iter().enumerate() {
        let t = c.trim();
        if open_macro > 0 {
            eligible[idx] = false;
            open_macro += parens_delta(c);
            continue;
        }
        if t.is_empty()
            || t.starts_with("#[")
            || t.starts_with("#!")
            || c.contains("assert")
            || c.contains("panic!")
            || c.contains("unreachable!")
            || c.contains("todo!")
        {
            eligible[idx] = false;
            if c.contains("assert")
                || c.contains("panic!")
                || c.contains("unreachable!")
                || c.contains("todo!")
            {
                open_macro = parens_delta(c).max(0);
            }
        }
    }
    Scan {
        raw,
        code,
        eligible,
    }
}

/// Byte offsets of every occurrence of `needle` in `hay`, left to right.
fn occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        out.push(start + pos);
        start += pos + needle.len();
    }
    out
}

/// Generates every mutant for one target file, in deterministic order
/// (operators in a fixed sequence, lines top to bottom).
pub(crate) fn mutate_file(text: &str) -> Vec<Proto> {
    let scan = scan(text);
    let mut out = Vec::new();
    arm_ops(&scan, &mut out);
    cmp_flips(&scan, &mut out);
    early_returns(&scan, &mut out);
    flag_flips(&scan, &mut out);
    flag_negates(&scan, &mut out);
    off_by_ones(&scan, &mut out);
    out
}

const CMP_FLIPS: &[(&str, &str)] = &[
    (" == ", " != "),
    (" != ", " == "),
    (" < ", " >= "),
    (" <= ", " > "),
    (" > ", " <= "),
    (" >= ", " < "),
];

fn cmp_flips(scan: &Scan<'_>, out: &mut Vec<Proto>) {
    for (idx, code) in scan.code.iter().enumerate() {
        if !scan.eligible[idx] {
            continue;
        }
        for &(needle, repl) in CMP_FLIPS {
            for pos in occurrences(code, needle) {
                let raw = scan.raw[idx];
                let mutated = format!("{}{}{}", &raw[..pos], repl, &raw[pos + needle.len()..]);
                out.push(Proto::single(
                    Operator::CmpFlip,
                    idx + 1,
                    raw,
                    mutated,
                    format!("replace `{}` with `{}`", needle.trim(), repl.trim()),
                ));
            }
        }
    }
}

fn off_by_ones(scan: &Scan<'_>, out: &mut Vec<Proto>) {
    for (idx, code) in scan.code.iter().enumerate() {
        if !scan.eligible[idx] {
            continue;
        }
        // Stat counters are not protocol logic; a shifted count cannot
        // corrupt coherence, it just pollutes the score.
        if code.contains("events.") || contains_word(code, "stats") {
            continue;
        }
        let raw = scan.raw[idx];
        for &(needle, repl) in &[(" + 1", " + 2"), (" - 1", " - 2")] {
            for pos in occurrences(code, needle) {
                // Only the literal 1 itself: not ` + 10`, ` + 1.5`, ` + 1..`.
                let after = code.as_bytes().get(pos + needle.len());
                if after.is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.') {
                    continue;
                }
                let mutated = format!("{}{}{}", &raw[..pos], repl, &raw[pos + needle.len()..]);
                out.push(Proto::single(
                    Operator::OffByOne,
                    idx + 1,
                    raw,
                    mutated,
                    format!("replace `{}` with `{}`", needle.trim(), repl.trim()),
                ));
            }
        }
        for pos in occurrences(code, "0..") {
            let before = pos.checked_sub(1).map(|p| code.as_bytes()[p]);
            if before.is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.') {
                continue;
            }
            let mutated = format!("{}1..{}", &raw[..pos], &raw[pos + 3..]);
            out.push(Proto::single(
                Operator::OffByOne,
                idx + 1,
                raw,
                mutated,
                "replace `0..` with `1..`".to_string(),
            ));
        }
    }
}

/// True when the assigned place (or struct field) names a protocol flag.
fn is_flag_place(lhs: &str) -> bool {
    let last = lhs
        .rsplit(|c: char| c == '.' || c.is_whitespace())
        .next()
        .unwrap_or("");
    FLAG_WORDS.contains(&last)
}

/// Inverted form of a boolean expression: literal flip when possible,
/// `!(expr)` otherwise. `None` when the expression is not safely
/// invertible (empty, a type, an enum path, or a nested assignment).
fn inverted(expr: &str) -> Option<String> {
    match expr {
        "true" => return Some("false".to_string()),
        "false" => return Some("true".to_string()),
        _ => {}
    }
    if expr.is_empty()
        || expr.contains(" = ")
        || expr.contains("::")
        || expr.starts_with(|c: char| c.is_ascii_uppercase())
    {
        return None;
    }
    Some(format!("!({expr})"))
}

fn flag_flips(scan: &Scan<'_>, out: &mut Vec<Proto>) {
    for (idx, code) in scan.code.iter().enumerate() {
        if !scan.eligible[idx] {
            continue;
        }
        let raw = scan.raw[idx];
        // Assignment: `place = expr;` where the place ends in a flag.
        if let Some(pos) = code.find(" = ") {
            let lhs = code[..pos].trim();
            let rest = code[pos + 3..].trim_end();
            if rest.ends_with(';') && is_flag_place(lhs) {
                if let Some(semi_rel) = code[pos..].rfind(';') {
                    let semi = pos + semi_rel;
                    let expr = code[pos + 3..semi].trim();
                    if let Some(new_expr) = inverted(expr) {
                        let mutated = format!("{} {}{}", &raw[..pos + 2], new_expr, &raw[semi..]);
                        out.push(Proto::single(
                            Operator::FlagFlip,
                            idx + 1,
                            raw,
                            mutated,
                            format!("invert flag assignment `{lhs} = {expr}`"),
                        ));
                    }
                }
            }
            continue;
        }
        // Struct-literal field: `flag: expr,`.
        let t = code.trim();
        let indent = code.len() - code.trim_start().len();
        if let Some(colon) = t.find(':') {
            let name = t[..colon].trim();
            if t.ends_with(',') && FLAG_WORDS.contains(&name) && !t.contains(" => ") {
                let value = t[colon + 1..t.len() - 1].trim();
                // `flag: bool,` is a declaration, not a value.
                if value != "bool" {
                    if let Some(new_value) = inverted(value) {
                        let comma = indent + t.len() - 1;
                        let mutated =
                            format!("{}: {}{}", &raw[..indent + colon], new_value, &raw[comma..]);
                        out.push(Proto::single(
                            Operator::FlagFlip,
                            idx + 1,
                            raw,
                            mutated,
                            format!("invert flag field `{name}: {value}`"),
                        ));
                    }
                }
            }
        }
    }
}

fn flag_negates(scan: &Scan<'_>, out: &mut Vec<Proto>) {
    for (idx, code) in scan.code.iter().enumerate() {
        if !scan.eligible[idx] {
            continue;
        }
        let t = code.trim_start();
        let is_if = t.starts_with("if ") || t.starts_with("} else if ");
        if !is_if || t.contains("if let ") || !code.trim_end().ends_with('{') {
            continue;
        }
        let raw = scan.raw[idx];
        let Some(if_pos) = code.find("if ") else {
            continue;
        };
        let Some(brace) = code.rfind('{') else {
            continue;
        };
        if brace <= if_pos + 3 {
            continue;
        }
        let cond = code[if_pos + 3..brace].trim();
        if cond.is_empty() || !FLAG_WORDS.iter().any(|w| contains_word(cond, w)) {
            continue;
        }
        let mutated = format!("{}!({}) {}", &raw[..if_pos + 3], cond, &raw[brace..]);
        out.push(Proto::single(
            Operator::FlagNegate,
            idx + 1,
            raw,
            mutated,
            format!("negate condition `if {cond}`"),
        ));
    }
}

/// A qualifying single-line match arm: binding-free pattern, one-line
/// body ending in `,`.
struct Arm {
    line: usize,
    indent: usize,
    pattern: String,
    body: String,
    /// Pattern mentions `BusOp::` or `CohState::`.
    coherent: bool,
}

/// Binding-free: every identifier token in the pattern starts uppercase
/// or is `_` (so swapping bodies cannot orphan a binding).
fn binding_free(pattern: &str) -> bool {
    if pattern.contains('@') || contains_word(pattern, "ref") {
        return false;
    }
    let mut prev_ident = false;
    for c in pattern.chars() {
        let ident = c.is_ascii_alphanumeric() || c == '_';
        if ident && !prev_ident && c.is_ascii_lowercase() {
            return false;
        }
        prev_ident = ident;
    }
    true
}

fn collect_arms(scan: &Scan<'_>) -> Vec<Arm> {
    let mut arms = Vec::new();
    for (idx, code) in scan.code.iter().enumerate() {
        if !scan.eligible[idx] {
            continue;
        }
        let t = code.trim();
        let Some((pattern, rest)) = t.split_once(" => ") else {
            continue;
        };
        let Some(body) = rest.strip_suffix(',') else {
            continue;
        };
        let body = body.trim();
        if body.is_empty() || body.ends_with('{') || !binding_free(pattern) {
            continue;
        }
        arms.push(Arm {
            line: idx + 1,
            indent: code.len() - code.trim_start().len(),
            pattern: pattern.trim().to_string(),
            body: body.to_string(),
            coherent: pattern.contains("BusOp::") || pattern.contains("CohState::"),
        });
    }
    arms
}

fn arm_ops(scan: &Scan<'_>, out: &mut Vec<Proto>) {
    let arms = collect_arms(scan);
    for pair in arms.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if !(a.coherent || b.coherent)
            || a.indent != b.indent
            || b.line - a.line > 3
            || a.body == b.body
        {
            continue;
        }
        // Lines strictly between must be blank or comment-only: the two
        // arms belong to the same match.
        let gap_clean = (a.line..b.line - 1).all(|i| scan.code[i].trim().is_empty());
        if !gap_clean {
            continue;
        }
        let rebody = |arm: &Arm, new_body: &str| -> Option<Edit> {
            let raw = scan.raw[arm.line - 1];
            let code = &scan.code[arm.line - 1];
            let arrow = code.find(" => ")?;
            let comma = code.rfind(',')?;
            Some(Edit {
                line: arm.line,
                original: raw.to_string(),
                mutated: format!("{}{}{}", &raw[..arrow + 4], new_body, &raw[comma..]),
            })
        };
        if let (Some(ea), Some(eb)) = (rebody(a, &b.body), rebody(b, &a.body)) {
            out.push(Proto {
                op: Operator::ArmSwap,
                edits: vec![ea.clone(), eb.clone()],
                description: format!("swap bodies of `{}` and `{}`", a.pattern, b.pattern),
            });
            out.push(Proto {
                op: Operator::ArmUnify,
                edits: vec![ea],
                description: format!("give `{}` the body of `{}`", a.pattern, b.pattern),
            });
            out.push(Proto {
                op: Operator::ArmUnify,
                edits: vec![eb],
                description: format!("give `{}` the body of `{}`", b.pattern, a.pattern),
            });
        }
    }
}

/// Return type of a collected signature: `None` for unit, `Some(ty)`
/// otherwise. Looks only at the `->` after the parameter list closes,
/// so `FnMut(..) -> bool` bounds in the parameter list don't confuse it.
fn return_type(sig: &str) -> Option<String> {
    let open = sig.find('(')?;
    let bytes = sig.as_bytes();
    let mut depth = 0i32;
    let mut close = None;
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'"' => in_str = !in_str,
            b'(' if !in_str => depth += 1,
            b')' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    close = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let tail = &sig[close? + 1..];
    let tail = match tail.find(" where ") {
        Some(w) => &tail[..w],
        None => tail,
    };
    let arrow = tail.find("->")?;
    let ty = tail[arrow + 2..].trim().trim_end_matches('{').trim();
    Some(ty.to_string())
}

fn early_returns(scan: &Scan<'_>, out: &mut Vec<Proto>) {
    let mut idx = 0;
    while idx < scan.raw.len() {
        let code = &scan.code[idx];
        let t = code.trim_start();
        let is_fn_start = scan.eligible[idx]
            && contains_word(code, "fn")
            && (t.starts_with("fn ")
                || t.starts_with("pub fn ")
                || t.starts_with("pub(crate) fn ")
                || t.starts_with("pub(super) fn ")
                || t.starts_with("const fn ")
                || t.starts_with("pub const fn "));
        if !is_fn_start || contains_word(code, "main") {
            idx += 1;
            continue;
        }
        // Accumulate the signature until the body opens; give up on
        // declarations (`;`) or anything implausibly long.
        let mut sig = String::new();
        let mut opener = None;
        let mut in_where = false;
        for k in idx..scan.raw.len().min(idx + 12) {
            let line_code = scan.code[k].trim();
            if contains_word(line_code, "where") {
                in_where = true;
            }
            if !in_where {
                sig.push_str(line_code);
                sig.push(' ');
            }
            if line_code.ends_with('{') {
                opener = Some(k);
                break;
            }
            if line_code.ends_with(';') {
                break;
            }
        }
        let Some(open_idx) = opener else {
            idx += 1;
            continue;
        };
        let raw_open = scan.raw[open_idx];
        if !raw_open.trim_end().ends_with('{') {
            idx = open_idx + 1;
            continue;
        }
        let name: String = t
            .split("fn ")
            .nth(1)
            .unwrap_or("")
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let returns: &[&str] = match return_type(&sig).as_deref() {
            None => &[" return;"],
            Some("bool") => &[" return false;", " return true;"],
            Some(_) => &[],
        };
        for ret in returns {
            out.push(Proto::single(
                Operator::EarlyReturn,
                open_idx + 1,
                raw_open,
                format!("{raw_open}{ret}"),
                format!("`fn {name}` returns immediately with `{}`", ret.trim()),
            ));
        }
        idx = open_idx + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_for(text: &str) -> Vec<(Operator, String)> {
        mutate_file(text)
            .into_iter()
            .map(|p| (p.op, p.edits[0].mutated.clone()))
            .collect()
    }

    #[test]
    fn cmp_flip_negates_spaced_operators() {
        let got = ops_for("fn f() {\n    let x = a <= b;\n}\n");
        assert!(got.contains(&(Operator::CmpFlip, "    let x = a > b;".into())));
        // `=>` and `<<` are not comparisons.
        assert!(ops_for("fn f() {\n    let x = a << b;\n}\n")
            .iter()
            .all(|(op, _)| *op != Operator::CmpFlip));
    }

    #[test]
    fn off_by_one_shifts_only_unit_boundaries() {
        let got = ops_for("fn f() {\n    let m = (1u64 << w) - 1;\n    let k = n + 10;\n}\n");
        let muts: Vec<&str> = got
            .iter()
            .filter(|(op, _)| *op == Operator::OffByOne)
            .map(|(_, m)| m.as_str())
            .collect();
        assert_eq!(muts, vec!["    let m = (1u64 << w) - 2;"]);
        let ranges = ops_for("fn f() {\n    for w in 0..ways {}\n}\n");
        assert!(ranges.contains(&(Operator::OffByOne, "    for w in 1..ways {}".into())));
    }

    #[test]
    fn flag_flip_inverts_assignments_and_fields() {
        let got = ops_for("fn f() {\n    sub.inclusion = false;\n}\n");
        assert!(got.contains(&(Operator::FlagFlip, "    sub.inclusion = true;".into())));
        let got = ops_for("fn f() {\n    let m = M {\n        dirty: old.dirty,\n    };\n}\n");
        assert!(got.contains(&(Operator::FlagFlip, "        dirty: !(old.dirty),".into())));
        // Declarations and non-flag places stay untouched.
        assert!(ops_for("struct M {\n    dirty: bool,\n}\n")
            .iter()
            .all(|(op, _)| *op != Operator::FlagFlip));
        assert!(ops_for("fn f() {\n    sub.child = other;\n}\n")
            .iter()
            .all(|(op, _)| *op != Operator::FlagFlip));
    }

    #[test]
    fn flag_negate_wraps_flag_conditions_only() {
        let got = ops_for("fn f() {\n    if sub.buffer {\n        x();\n    }\n}\n");
        assert!(got.contains(&(Operator::FlagNegate, "    if !(sub.buffer) {".into())));
        assert!(
            ops_for("fn f() {\n    if ready {\n        x();\n    }\n}\n")
                .iter()
                .all(|(op, _)| *op != Operator::FlagNegate)
        );
        assert!(
            ops_for("fn f() {\n    if let Some(d) = dirty {\n        x();\n    }\n}\n")
                .iter()
                .all(|(op, _)| *op != Operator::FlagNegate)
        );
    }

    #[test]
    fn arm_ops_pair_adjacent_coherence_arms() {
        let text = "fn f(op: BusOp) -> R {\n    match op {\n        BusOp::ReadMiss => self.read(b),\n        BusOp::Invalidate => self.inval(b),\n    }\n}\n";
        let protos = mutate_file(text);
        let swaps: Vec<&Proto> = protos
            .iter()
            .filter(|p| p.op == Operator::ArmSwap)
            .collect();
        let unifies: Vec<&Proto> = protos
            .iter()
            .filter(|p| p.op == Operator::ArmUnify)
            .collect();
        assert_eq!(swaps.len(), 1);
        assert_eq!(swaps[0].edits.len(), 2);
        assert_eq!(
            swaps[0].edits[0].mutated,
            "        BusOp::ReadMiss => self.inval(b),"
        );
        assert_eq!(unifies.len(), 2);
        // Patterns that bind are never rewritten.
        let text = "fn f(op: Op) -> R {\n    match op {\n        BusOp::ReadMiss => x,\n        BusOp::Other(n) => y,\n    }\n}\n";
        assert!(mutate_file(text)
            .iter()
            .all(|p| p.op != Operator::ArmSwap && p.op != Operator::ArmUnify));
    }

    #[test]
    fn early_return_matches_unit_and_bool_fns() {
        let text = "fn step(&mut self) {\n    self.x();\n}\n";
        let got = ops_for(text);
        assert!(got.contains(&(Operator::EarlyReturn, "fn step(&mut self) { return;".into())));
        let text = "fn full(&self) -> bool {\n    self.len == self.cap\n}\n";
        let muts: Vec<String> = mutate_file(text)
            .into_iter()
            .filter(|p| p.op == Operator::EarlyReturn)
            .map(|p| p.edits[0].mutated.clone())
            .collect();
        assert_eq!(
            muts,
            vec![
                "fn full(&self) -> bool { return false;",
                "fn full(&self) -> bool { return true;"
            ]
        );
        // Non-bool returns and `fn main` are skipped.
        assert!(ops_for("fn pick(&self) -> u32 {\n    self.n\n}\n")
            .iter()
            .all(|(op, _)| *op != Operator::EarlyReturn));
        assert!(ops_for("fn main() {\n    run();\n}\n")
            .iter()
            .all(|(op, _)| *op != Operator::EarlyReturn));
    }

    #[test]
    fn where_clause_bounds_do_not_fake_a_bool_return() {
        let text = "pub fn fill<F>(&mut self, f: F) -> Out\nwhere\n    F: FnMut(&L) -> bool,\n{\n    body()\n}\n";
        assert!(ops_for(text)
            .iter()
            .all(|(op, _)| *op != Operator::EarlyReturn));
        // Inline closure bounds in the parameter list are also ignored.
        let text = "fn fill(&mut self, prefer: impl FnMut(&L) -> bool) {\n    body();\n}\n";
        let muts: Vec<String> = mutate_file(text)
            .into_iter()
            .filter(|p| p.op == Operator::EarlyReturn)
            .map(|p| p.edits[0].mutated.clone())
            .collect();
        assert_eq!(
            muts,
            vec!["fn fill(&mut self, prefer: impl FnMut(&L) -> bool) { return;"]
        );
    }

    #[test]
    fn test_regions_and_assertions_are_never_mutated() {
        let marker = "#[cfg(test)]";
        let text = format!(
            "fn f() {{\n    let x = a == b;\n}}\n\n{marker}\nmod tests {{\n    fn t() {{\n        let y = a == b;\n    }}\n}}\n"
        );
        let cmp_lines = |text: &str| -> Vec<usize> {
            mutate_file(text)
                .into_iter()
                .filter(|p| p.op == Operator::CmpFlip)
                .map(|p| p.edits[0].line)
                .collect()
        };
        assert_eq!(cmp_lines(&text), vec![2], "only the pre-test line mutates");

        // A cfg(test)-gated helper mid-file is skipped, later code is not.
        let text = format!(
            "{marker}\nfn helper() {{\n    let x = a == b;\n}}\n\nfn real() {{\n    let y = c == d;\n}}\n"
        );
        assert_eq!(cmp_lines(&text), vec![7]);

        let text = "fn f() {\n    assert_eq!(a == b, c);\n}\n";
        assert!(cmp_lines(text).is_empty(), "assertions are never mutated");

        // Multi-line assertion arguments are oracle text too; code after
        // the macro's parens close is fair game again.
        let text = "fn f() {\n    debug_assert!(\n        a == b,\n        \"names the invariant\"\n    );\n    let x = c == d;\n}\n";
        assert_eq!(
            cmp_lines(text),
            vec![6],
            "assert continuation lines excluded, following code kept"
        );
    }
}
