//! Workspace discovery and source scanning: find the root, load tracked
//! sources, and turn a source file into literal-blanked code lines that
//! the structural lints (the fn-item parser foremost) can pattern
//! match without being fooled by comments, strings, or test modules.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::{contains_word, SourceFile, Workspace};

/// Directories never descended into. `vendor/` holds offline shims for
/// third-party crates (see vendor/README.md) and is exempt from the
/// workspace's own rules; `target/` is build output.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git"];

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

/// Loads every tracked `.rs` file under `root` (skipping [`SKIP_DIRS`])
/// plus `DESIGN.md`, the model checker's exercised-transition table, the
/// mutation and injection baselines, and the latest mutation and
/// injection reports, into an in-memory [`Workspace`].
///
/// # Errors
///
/// Propagates filesystem errors other than a missing optional document
/// (`DESIGN.md`, coverage table, baselines, reports).
pub fn load(root: &Path) -> io::Result<Workspace> {
    let mut sources = Vec::new();
    collect_rs(root, root, &mut sources)?;
    sources.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    let design_md = fs::read_to_string(root.join("DESIGN.md")).ok();
    let model_coverage = fs::read_to_string(root.join("crates/model/coverage.txt")).ok();
    let mutation_baseline = fs::read_to_string(root.join("crates/mutate/baseline.txt")).ok();
    let mutation_report = fs::read_to_string(root.join("target/mutation-report.txt")).ok();
    let injection_baseline = fs::read_to_string(root.join("crates/inject/baseline.txt")).ok();
    let injection_report = fs::read_to_string(root.join("target/injection-report.txt")).ok();
    let protocol_spec = fs::read_to_string(root.join("crates/analysis/protocol_spec.txt")).ok();
    Ok(Workspace {
        sources,
        design_md,
        model_coverage,
        mutation_baseline,
        mutation_report,
        injection_baseline,
        injection_report,
        protocol_spec,
    })
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                rel_path: rel,
                text: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

/// One scanned source line: the comment-stripped, literal-blanked code
/// text plus whether the line sits inside a `#[cfg(test)]` item.
///
/// This is the shared front end for lints that reason about code
/// *structure* (the fn-item parser foremost): string and char
/// literal contents — raw strings included — are blanked to spaces with
/// their delimiters kept, comments are blanked entirely, so brace
/// counting and textual pattern searches cannot be derailed by prose.
/// `in_test` implements the workspace-wide rule that test modules are
/// exempt from structural analysis, including nested `mod` blocks deep
/// inside a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedLine {
    /// 1-based line number in the original file.
    pub line: usize,
    /// The blanked code text (same length and token positions as the
    /// original line, minus comment and literal contents).
    pub code: String,
    /// True when the line belongs to a `#[cfg(test)]` item (the
    /// attribute line itself included).
    pub in_test: bool,
}

const CFG_TEST_MARKER: &str = "cfg(test)";

/// Scans `text` into [`ScannedLine`]s: blanks literals and comments,
/// then tracks brace depth to mark every line inside a `#[cfg(test)]`
/// item (a `mod`, `fn`, or any other braced item the attribute gates;
/// braceless gated items end at the `;`).
pub fn scan_source(text: &str) -> Vec<ScannedLine> {
    let blanked = blank_literals(text);
    let mut out = Vec::new();
    let mut depth = 0usize;
    // Depths at which an open `#[cfg(test)]` item's body will close.
    let mut test_close: Vec<usize> = Vec::new();
    let mut pending_cfg_test = false;
    for (idx, code) in blanked.lines().enumerate() {
        let mut in_test = !test_close.is_empty();
        let trimmed = code.trim_start();
        let is_attr = trimmed.starts_with("#[") || trimmed.starts_with("#![");
        if is_attr && trimmed.contains(CFG_TEST_MARKER) {
            pending_cfg_test = true;
        }
        if is_attr && pending_cfg_test {
            // The gating attribute and any attributes stacked under it.
            in_test = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if pending_cfg_test {
                        test_close.push(depth);
                        pending_cfg_test = false;
                        in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if test_close.last() == Some(&depth) {
                        test_close.pop();
                    }
                }
                ';' if pending_cfg_test && !is_attr => {
                    // A braceless gated item (`#[cfg(test)] use ...;`).
                    pending_cfg_test = false;
                    in_test = true;
                }
                _ => {}
            }
        }
        out.push(ScannedLine {
            line: idx + 1,
            code: code.to_string(),
            in_test,
        });
    }
    out
}

/// The unit variants of `enum <name>` declared in `text`, in
/// declaration order, plus the 1-based line of the declaration — empty
/// (and 0) when `text` declares no such enum.
pub fn enum_variants(text: &str, name: &str) -> (Vec<String>, usize) {
    let lines = scan_source(text);
    let decl = format!("enum {name}");
    let Some(at) = lines.iter().position(|l| contains_word(&l.code, &decl)) else {
        return (Vec::new(), 0);
    };
    let variants = lines[at + 1..]
        .iter()
        .map(|l| l.code.trim().trim_end_matches(','))
        .take_while(|code| *code != "}")
        .filter(|code| {
            code.starts_with(|c: char| c.is_ascii_uppercase())
                && code.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        })
        .map(str::to_string)
        .collect();
    (variants, at + 1)
}

/// Every identifier that directly follows `marker` in `text`: the
/// `Variant` of each `Enum::Variant` path when `marker` is `Enum::`.
pub fn path_idents<'a>(text: &'a str, marker: &'a str) -> impl Iterator<Item = String> + 'a {
    text.match_indices(marker).filter_map(move |(at, _)| {
        let ident: String = text[at + marker.len()..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        (!ident.is_empty()).then_some(ident)
    })
}

/// Replaces comment text and string/char literal contents with spaces,
/// preserving newlines, literal delimiters, and the byte positions of
/// all real code. Handles `//` and nested `/* */` comments, `"…"`
/// strings with escapes, raw strings `r"…"` / `r#"…"#` (and `br`
/// variants) across lines, char literals (escaped ones included), and
/// leaves lifetimes (`'a`) untouched.
fn blank_literals(text: &str) -> String {
    let b = text.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: u8| if c == b'\n' { b'\n' } else { b' ' };
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                out.push(b' ');
                i += 1;
            }
            continue;
        }
        // Nested block comment.
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw byte) string: r"…", r#"…"#, br##"…"##, …
        let prev_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        if !prev_ident && (c == b'r' || (c == b'b' && b.get(i + 1) == Some(&b'r'))) {
            let mut j = if c == b'b' { i + 2 } else { i + 1 };
            let hash_start = j;
            while b.get(j) == Some(&b'#') {
                j += 1;
            }
            let hashes = j - hash_start;
            if b.get(j) == Some(&b'"') {
                // Emit the opening delimiter as-is, blank the contents.
                out.extend_from_slice(&b[i..=j]);
                i = j + 1;
                while i < b.len() {
                    if b[i] == b'"'
                        && b[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&h| h == b'#')
                            .count()
                            == hashes
                    {
                        out.extend_from_slice(&b[i..i + 1 + hashes]);
                        i += 1 + hashes;
                        break;
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        // Ordinary (or byte) string.
        if c == b'"' {
            out.push(b'"');
            i += 1;
            while i < b.len() {
                match b[i] {
                    b'\\' => {
                        out.push(b' ');
                        if i + 1 < b.len() {
                            out.push(blank(b[i + 1]));
                        }
                        i += 2;
                    }
                    b'"' => {
                        out.push(b'"');
                        i += 1;
                        break;
                    }
                    other => {
                        out.push(blank(other));
                        i += 1;
                    }
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            if b.get(i + 1) == Some(&b'\\') {
                // Escaped char literal ('\n', '\'', '\u{7f}') — find the
                // closing quote before the end of the line.
                let mut j = i + 2;
                while j < b.len() && b[j] != b'\n' && b[j] != b'\'' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                if b.get(j) == Some(&b'\'') {
                    out.push(b'\'');
                    out.extend(std::iter::repeat_n(b' ', j - i - 1));
                    out.push(b'\'');
                    i = j + 1;
                    continue;
                }
            } else if b.get(i + 2) == Some(&b'\'') && b.get(i + 1) != Some(&b'\'') {
                // Plain char literal ('x', '{', '"').
                out.extend_from_slice(b"' '");
                i += 3;
                continue;
            }
            // A lifetime — emit as-is.
        }
        out.push(c);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_this_workspace() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let ws = load(&root).expect("load workspace");
        assert!(ws
            .sources
            .iter()
            .any(|f| f.rel_path == "crates/core/src/vr.rs"));
        assert!(
            !ws.sources.iter().any(|f| f.rel_path.starts_with("vendor/")),
            "vendor/ must be excluded"
        );
        assert!(ws.design_md.is_some(), "DESIGN.md loads");
        assert!(ws.protocol_spec.is_some(), "protocol spec loads");
    }

    #[test]
    fn enum_variants_reads_unit_variants_in_declaration_order() {
        let src = "// enum BusOp in prose\n#[derive(Debug)]\npub enum BusOp {\n    \
                   /// A read.\n    ReadMiss,\n    #[default]\n    Write_Back,\n    \
                   Data(u8),\n}\nenum BusOpKind {\n    X,\n}\n";
        let want = vec!["ReadMiss".to_string(), "Write_Back".to_string()];
        assert_eq!(enum_variants(src, "BusOp"), (want, 3));
        assert_eq!(enum_variants(src, "Missing"), (Vec::new(), 0));
    }

    #[test]
    fn path_idents_collects_every_variant_mention() {
        let code = "BusOp::ReadMiss | BusOp::Update => BusOp::";
        let got: Vec<String> = path_idents(code, "BusOp::").collect();
        assert_eq!(got, ["ReadMiss", "Update"]);
    }

    #[test]
    fn cfg_test_module_lines_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let lines = scan_source(src);
        let flags: Vec<bool> = lines.iter().map(|l| l.in_test).collect();
        assert_eq!(
            flags,
            vec![false, true, true, true, true, false],
            "{lines:#?}"
        );
    }

    #[test]
    fn nested_test_module_inside_live_module() {
        let src = "mod outer {\n    fn live() {}\n    #[cfg(test)]\n    mod tests {\n        fn t() {}\n    }\n    fn also_live() {}\n}\n";
        let lines = scan_source(src);
        assert!(!lines[1].in_test, "live fn in outer module");
        assert!(lines[3].in_test && lines[4].in_test && lines[5].in_test);
        assert!(!lines[6].in_test, "module continues after the test block");
        assert!(!lines[7].in_test);
    }

    #[test]
    fn stacked_attributes_and_gated_fn() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn only_for_tests() {\n    body();\n}\nfn live() {}\n";
        let lines = scan_source(src);
        assert!(lines[0].in_test && lines[1].in_test, "{lines:#?}");
        assert!(lines[2].in_test && lines[3].in_test && lines[4].in_test);
        assert!(!lines[5].in_test);
    }

    #[test]
    fn raw_strings_hide_braces_and_fake_items() {
        let src = "fn f() {\n    let s = r#\"fn fake() { vec![] }\"#;\n    let t = r\"} } {\";\n}\nfn g() {}\n";
        let lines = scan_source(src);
        assert!(!lines[1].code.contains("fake"), "{:?}", lines[1].code);
        assert!(!lines[1].code.contains("vec!"));
        assert!(!lines[2].code.contains('}'), "{:?}", lines[2].code);
        // Brace accounting survived the literal braces: g is not inside f.
        assert_eq!(lines[4].code.trim(), "fn g() {}");
    }

    #[test]
    fn strings_comments_chars_and_lifetimes_blank_correctly() {
        let src = "fn f<'a>(x: &'a str) {\n    let c = '{';\n    let e = '\\n';\n    let s = \"fn h() {\"; // fn i() {\n    /* fn j() { */\n}\n";
        let lines = scan_source(src);
        assert!(lines[0].code.contains("'a"), "lifetimes survive");
        assert!(!lines[1].code.contains('{'), "{:?}", lines[1].code);
        assert!(!lines[3].code.contains('h'), "{:?}", lines[3].code);
        assert!(!lines[3].code.contains('i'), "comment stripped");
        assert!(!lines[4].code.contains('j'), "block comment stripped");
        // The whole snippet balances: nothing is left open.
        let last = scan_source(&format!("{src}fn live() {{}}\n"));
        assert!(!last.last().expect("non-empty").in_test);
    }
}
