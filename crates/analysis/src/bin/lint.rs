//! Workspace lint driver: `cargo run -p vrcache-analysis --bin lint`.
//!
//! Walks every tracked `.rs` source (plus DESIGN.md, the model
//! checker's transition table, the mutation and injection baselines,
//! the protocol spec, and the latest mutation and injection reports),
//! runs the nine lint passes, prints
//! `file:line: [lint] message` diagnostics, and exits non-zero if
//! anything fired. `scripts/check.sh` runs this as part of the
//! pre-merge gate.
//!
//! Flags:
//!
//! * `--json` — emit the same diagnostics as one JSON object
//!   (`{"checked_files": N, "violations": [{file, line, lint,
//!   message}]}`) so CI can render them as annotations; the text
//!   output is unchanged by the flag's existence.
//! * `--list` — print the lint names, one per line, and exit.
//! * `--only <lint>` — run a single lint by name (iterate on one pass
//!   without paying for the other eight).
//! * `--write protocol` — re-pin `crates/analysis/protocol_spec.txt`
//!   from today's sources after printing its report.
//!   `scripts/check.sh` gates this behind a clean tier-1 run
//!   (`REPIN=protocol`).
//! * `--report <protocol|domain>` — print a report read-only: the
//!   per-hierarchy transition tables, or the flagged address flows and
//!   inferred raw-parameter domains.

use std::path::Path;
use std::process::ExitCode;

use vrcache_analysis::lints::domain as domain_lint;
use vrcache_analysis::{domain, protocol, run_all, run_named, walk, Diagnostic, Workspace, LINTS};

/// Escapes a string for a JSON string literal (quotes, backslashes,
/// control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_json(checked_files: usize, diags: &[Diagnostic]) -> String {
    let rows: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&d.file),
                d.line,
                json_escape(d.lint),
                json_escape(&d.message)
            )
        })
        .collect();
    format!(
        "{{\n  \"checked_files\": {},\n  \"violations\": [{}\n  ]\n}}\n",
        checked_files,
        if rows.is_empty() {
            String::new()
        } else {
            format!("\n{}", rows.join(",\n"))
        }
    )
}

/// `--report <protocol|domain>` prints a report; `--write protocol`
/// prints the protocol report and re-pins the spec.
fn report(root: &Path, ws: &Workspace, name: &str, write: bool) -> ExitCode {
    let fail = |why: &str| {
        eprintln!("lint: {why}");
        ExitCode::from(2)
    };
    match (name, write) {
        ("protocol", _) => {
            let surface = protocol::extract(ws);
            if surface.hiers.is_empty() {
                return fail("no hierarchy snoop resolves in this workspace; nothing to extract");
            }
            print!("{}", protocol::report(&surface));
            if write {
                let path = root.join(protocol::SPEC_PATH);
                if let Err(e) = std::fs::write(&path, protocol::render(&surface)) {
                    return fail(&format!("failed to write {path:?}: {e}"));
                }
                println!(
                    "lint: pinned {} row(s) to {}",
                    surface.rows.len(),
                    protocol::SPEC_PATH
                );
            }
        }
        ("domain", false) => {
            let analysis = domain::analyze(ws);
            if !analysis.active {
                return fail("no address newtype seeds this workspace; nothing to analyze");
            }
            print!("{}", domain_lint::report(&analysis));
        }
        (_, true) => return fail("only the protocol spec is pinned; use --write protocol"),
        (_, false) => return fail("no such report; use protocol or domain"),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut json = false;
    let mut only: Option<String> = None;
    // (`--write`?, report name) for `--write` / `--report`.
    let mut reported: Option<(bool, String)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => {
                for (name, _) in LINTS {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "--only" => {
                let Some(name) = args.next() else {
                    eprintln!("lint: --only needs a lint name (see --list)");
                    return ExitCode::from(2);
                };
                only = Some(name);
            }
            "--write" | "--report" => {
                let Some(name) = args.next() else {
                    eprintln!("lint: {arg} needs a name: protocol (or domain, for --report)");
                    return ExitCode::from(2);
                };
                reported = Some((arg == "--write", name));
            }
            other => {
                eprintln!(
                    "lint: unknown argument `{other}` (usage: lint [--json] [--list] \
                     [--only <lint>] [--write protocol] [--report <protocol|domain>])"
                );
                return ExitCode::from(2);
            }
        }
    }
    let cwd = std::env::current_dir().expect("current directory is readable");
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| Path::new(&d).to_path_buf())
        .unwrap_or_else(|_| cwd.clone());
    let Some(root) = walk::find_root(&start).or_else(|| walk::find_root(&cwd)) else {
        eprintln!("lint: no workspace root (Cargo.toml with [workspace]) above {start:?}");
        return ExitCode::from(2);
    };
    let ws = match walk::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("lint: failed to read workspace under {root:?}: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((write, name)) = &reported {
        return report(&root, &ws, name, *write);
    }
    let diags = match &only {
        None => run_all(&ws),
        Some(name) => match run_named(&ws, name) {
            Some(diags) => diags,
            None => {
                eprintln!(
                    "lint: no lint named `{name}`; available: {}",
                    LINTS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                );
                return ExitCode::from(2);
            }
        },
    };
    if json {
        print!("{}", render_json(ws.sources.len(), &diags));
        return if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        let names: Vec<&str> = match &only {
            None => LINTS.iter().map(|(n, _)| *n).collect(),
            Some(name) => vec![name.as_str()],
        };
        println!(
            "lint: clean — {} files checked ({})",
            ws.sources.len(),
            names.join(", ")
        );
        ExitCode::SUCCESS
    } else {
        println!("lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
