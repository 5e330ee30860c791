//! Workspace lint driver: `cargo run -p vrcache-analysis --bin lint`.
//!
//! Walks every tracked `.rs` source (plus DESIGN.md, the model
//! checker's transition table, the mutation, injection,
//! protocol-spec, and address-domain baselines, and the latest mutation
//! and injection reports), runs the nine lint passes, prints
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
//! * `--write <protocol|domain>` — re-pin one baseline from today's
//!   sources (`crates/analysis/protocol_spec.txt` or
//!   `domain_baseline.txt`) after printing its report.
//!   `scripts/check.sh` gates this behind a clean tier-1 run
//!   (`REPIN=<name>`).
//! * `--report <protocol|domain>` — print the report without touching
//!   the baseline: the per-hierarchy transition tables, or the flagged
//!   address flows and inferred raw-parameter domains.

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

/// One pinned baseline as today's sources would render it.
struct Pin {
    report: String,
    path: &'static str,
    body: String,
    rows: usize,
}

/// Computes the report and the rendered baseline named `name`, or the
/// reason nothing can be pinned here.
fn pin(ws: &Workspace, name: &str) -> Result<Pin, &'static str> {
    match name {
        "protocol" => {
            let surface = protocol::extract(ws);
            if surface.hiers.is_empty() {
                return Err("no hierarchy snoop resolves in this workspace; nothing to extract");
            }
            Ok(Pin {
                report: protocol::report(&surface),
                path: protocol::SPEC_PATH,
                body: protocol::render(&surface),
                rows: surface.rows.len(),
            })
        }
        "domain" => {
            let analysis = domain::analyze(ws);
            if !analysis.active {
                return Err("no address newtype seeds this workspace; nothing to analyze");
            }
            Ok(Pin {
                report: domain_lint::report(&analysis),
                path: domain_lint::RATCHET.path,
                body: domain_lint::RATCHET.render(&analysis.flags),
                rows: analysis.flags.len(),
            })
        }
        _ => Err("no such baseline; use protocol or domain"),
    }
}

/// `--report <name>` prints the report; `--write <name>` prints it and
/// re-pins the baseline file.
fn repin(root: &Path, ws: &Workspace, name: &str, write: bool) -> ExitCode {
    let pinned = match pin(ws, name) {
        Ok(pinned) => pinned,
        Err(why) => {
            eprintln!("lint: {why}");
            return ExitCode::from(2);
        }
    };
    print!("{}", pinned.report);
    if write {
        let path = root.join(pinned.path);
        if let Err(e) = std::fs::write(&path, pinned.body) {
            eprintln!("lint: failed to write {path:?}: {e}");
            return ExitCode::from(2);
        }
        println!("lint: pinned {} row(s) to {}", pinned.rows, pinned.path);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut json = false;
    let mut only: Option<String> = None;
    // (`--write`?, baseline name) for `--write` / `--report`.
    let mut pinned: Option<(bool, String)> = None;
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
                    eprintln!("lint: {arg} needs a baseline name: protocol or domain");
                    return ExitCode::from(2);
                };
                pinned = Some((arg == "--write", name));
            }
            other => {
                eprintln!(
                    "lint: unknown argument `{other}` (usage: lint [--json] [--list] \
                     [--only <lint>] [--write <baseline>] [--report <baseline>])"
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
    if let Some((write, name)) = &pinned {
        return repin(&root, &ws, name, *write);
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
