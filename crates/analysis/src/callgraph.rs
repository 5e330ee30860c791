//! The fn-item parser: every `fn` item outside test modules as a
//! [`FnNode`].
//!
//! [`parse_nodes`] makes one pass over the literal-blanked lines that
//! [`walk::scan_source`](crate::walk::scan_source) produces and records
//! each function's enclosing `impl`/`trait` type, signature and body
//! lines. The protocol-spec and address-domain analyses read function
//! bodies only through it.

use crate::walk::scan_source;

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

/// Parses one source file into its [`FnNode`] table, in line order.
pub fn parse_nodes(rel_path: &str, text: &str) -> Vec<FnNode> {
    let lines = scan_source(text);
    let mut nodes = Vec::new();
    let mut depth = 0usize;
    // (self type, depth at which the block closes).
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
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
                            nodes.push(FnNode {
                                file: rel_path.to_string(),
                                line,
                                self_ty: impl_stack.last().map(|(ty, _)| ty.clone()),
                                name,
                                sig,
                                body: Vec::new(),
                            });
                            let idx = nodes.len() - 1;
                            fn_stack.push((idx, depth));
                            activated = Some(idx);
                        }
                        Some(Pending::Block { header }) => {
                            if let Some(ty) = block_type(&header) {
                                impl_stack.push((ty, depth));
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
                    while impl_stack.last().map(|(_, d)| *d) == Some(depth) {
                        impl_stack.pop();
                    }
                }
                // A body-less declaration (trait method signature).
                ';' => pending = None,
                _ => {}
            }
        }
        if !l.in_test {
            if let Some(idx) = activated.or(owner_at_start) {
                nodes[idx].body.push((l.line, code.to_string()));
            }
        }
    }
    nodes
}

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

/// Extracts the self type from an `impl`/`trait` header: the last path
/// segment of the type after `for` (trait impls), else the first type
/// after the keyword — generics stripped (`impl<'a> Decoder<'a>` →
/// `Decoder`, `impl Iterator for Decoder<'_>` → `Decoder`).
fn block_type(header: &str) -> Option<String> {
    let t = header.trim_start();
    let rest = if let Some(r) = t.strip_prefix("pub(crate) trait") {
        r
    } else if let Some(r) = t.strip_prefix("pub trait") {
        r
    } else if let Some(r) = t.strip_prefix("trait") {
        r
    } else {
        t.strip_prefix("impl")?
    };
    let rest = skip_generics(rest);
    // `impl Trait for Type {` — the self type is after the ` for `
    // (matched at angle depth 0 so `Vec<T> for` inside generics is safe;
    // after skip_generics the header's own parameter list is gone).
    let ty = first_path_segment_tail(after_for(rest).unwrap_or(rest));
    (!ty.is_empty()).then_some(ty)
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

/// Finds a ` for ` at angle depth 0 and returns the text after it.
fn after_for(s: &str) -> Option<&str> {
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
                return Some(&s[i + 3..]);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_free_fns_methods_and_trait_defaults() {
        let nodes = parse_nodes(
            "crates/x/src/lib.rs",
            "fn free_one() {}\n\
             impl Widget {\n    fn method_one(&self) {}\n}\n\
             impl Iterator for Widget {\n    fn next(&mut self) -> Option<u8> { None }\n}\n\
             trait Helper {\n    fn helper_default(&self) { free_one(); }\n    fn sig_only(&self);\n}\n",
        );
        let names: Vec<String> = nodes.iter().map(FnNode::qual_name).collect();
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
        let nodes = parse_nodes(
            "crates/x/src/lib.rs",
            "impl CacheHierarchy\n    for VrHierarchy\n{\n\
             \x20   fn access(\n        &mut self,\n        access: &MemAccess,\n    ) -> u32 {\n\
             \x20       0\n    }\n}\n",
        );
        assert_eq!(nodes.len(), 1, "{:?}", nodes);
        assert_eq!(nodes[0].qual_name(), "VrHierarchy::access");
        assert_eq!(nodes[0].line, 4, "line of the fn keyword");
        let sig = &nodes[0].sig;
        assert!(
            sig.contains("access: &MemAccess") && sig.trim_end().ends_with("-> u32"),
            "multiline signature is joined and cut at the body brace: {sig:?}"
        );
    }

    #[test]
    fn generic_impl_headers_resolve_their_self_type() {
        let nodes = parse_nodes(
            "crates/x/src/lib.rs",
            "impl<'a> Decoder<'a> {\n    fn new() {}\n}\n\
             impl Iterator for Decoder<'_> {\n    fn next(&mut self) {}\n}\n\
             impl<T> InvariantExpect<T> for Option<T> {\n    fn invariant_expect(self) {}\n}\n",
        );
        let names: Vec<String> = nodes.iter().map(FnNode::qual_name).collect();
        assert_eq!(
            names,
            vec!["Decoder::new", "Decoder::next", "Option::invariant_expect"]
        );
    }

    #[test]
    fn test_modules_contribute_no_nodes_or_edges() {
        let nodes = parse_nodes(
            "crates/x/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn test_helper() { live(); }\n}\n",
        );
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].name, "live");
    }

    #[test]
    fn raw_strings_do_not_fake_functions() {
        let nodes = parse_nodes(
            "crates/x/src/lib.rs",
            "fn real() {\n    let s = r#\"fn phantom() {}\"#;\n    let t = \"fn ghost() {}\";\n}\n",
        );
        let names: Vec<&str> = nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }
}
