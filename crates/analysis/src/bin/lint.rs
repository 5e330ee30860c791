//! Workspace lint driver: `cargo run -p vrcache-analysis --bin lint`.
//!
//! Walks every tracked `.rs` source (plus DESIGN.md, the model
//! checker's transition table, the mutation, injection, hot-path,
//! protocol-spec, and address-domain baselines, and the latest mutation
//! and injection reports), runs the eleven lint passes, prints
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
//!   without paying for the other ten).
//! * `--write-hotpath-baseline` — re-pin
//!   `crates/analysis/hotpath_baseline.txt` from today's hot-set scan
//!   and print the per-crate attribution report. `scripts/check.sh`
//!   gates this behind a clean tier-1 run (`REPIN=hotpath`).
//! * `--hotpath-report` — print the attribution report without
//!   touching the baseline.
//! * `--write-protocol-spec` — re-pin
//!   `crates/analysis/protocol_spec.txt` from today's extracted
//!   transition surface. `scripts/check.sh` gates this behind a clean
//!   tier-1 run (`REPIN=protocol`).
//! * `--protocol-report` — print the per-hierarchy transition tables
//!   without touching the pinned spec.
//! * `--write-domain-baseline` — re-pin
//!   `crates/analysis/domain_baseline.txt` from today's address-domain
//!   analysis and print the flow report. `scripts/check.sh` gates this
//!   behind a clean tier-1 run (`REPIN=domain`).
//! * `--domain-report` — print the flagged flows and inferred
//!   raw-parameter domains without touching the baseline.

use std::path::Path;
use std::process::ExitCode;

use vrcache_analysis::lints::{domain as domain_lint, hotpath};
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

/// Scans the hot set and either writes the pinned baseline (`write`) or
/// just prints the attribution report.
fn hotpath_scan(root: &Path, ws: &Workspace, write: bool) -> ExitCode {
    let scan = hotpath::scan(ws);
    if !scan.active {
        eprintln!("lint: no hot root resolves in this workspace; nothing to scan");
        return ExitCode::from(2);
    }
    print!("{}", hotpath::attribution(&scan));
    if write {
        let path = root.join("crates/analysis/hotpath_baseline.txt");
        if let Err(e) = std::fs::write(&path, hotpath::render_baseline(&scan)) {
            eprintln!("lint: failed to write {path:?}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "lint: pinned {} baseline row(s) to crates/analysis/hotpath_baseline.txt",
            scan.sites.len()
        );
    }
    ExitCode::SUCCESS
}

/// Extracts the protocol surface and either writes the pinned spec
/// (`write`) or prints the per-hierarchy report.
fn protocol_scan(root: &Path, ws: &Workspace, write: bool) -> ExitCode {
    let surface = protocol::extract(ws);
    if surface.hiers.is_empty() {
        eprintln!("lint: no hierarchy snoop resolves in this workspace; nothing to extract");
        return ExitCode::from(2);
    }
    if write {
        let path = root.join("crates/analysis/protocol_spec.txt");
        if let Err(e) = std::fs::write(&path, protocol::render(&surface)) {
            eprintln!("lint: failed to write {path:?}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "lint: pinned {} transition row(s) to crates/analysis/protocol_spec.txt",
            surface.rows.len()
        );
    } else {
        print!("{}", protocol::report(&surface));
    }
    ExitCode::SUCCESS
}

/// Runs the address-domain analysis and either writes the pinned
/// baseline (`write`) or just prints the flow report.
fn domain_scan(root: &Path, ws: &Workspace, write: bool) -> ExitCode {
    let analysis = domain::analyze(ws);
    if !analysis.active {
        eprintln!("lint: no address newtype seeds this workspace; nothing to analyze");
        return ExitCode::from(2);
    }
    print!("{}", domain_lint::report(&analysis));
    if write {
        let path = root.join("crates/analysis/domain_baseline.txt");
        if let Err(e) = std::fs::write(&path, domain_lint::render_baseline(&analysis)) {
            eprintln!("lint: failed to write {path:?}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "lint: pinned {} baseline row(s) to crates/analysis/domain_baseline.txt",
            analysis.flags.len()
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut json = false;
    let mut only: Option<String> = None;
    let mut write_hotpath = false;
    let mut hotpath_report = false;
    let mut write_protocol = false;
    let mut protocol_report = false;
    let mut write_domain = false;
    let mut domain_report = false;
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
            "--write-hotpath-baseline" => write_hotpath = true,
            "--hotpath-report" => hotpath_report = true,
            "--write-protocol-spec" => write_protocol = true,
            "--protocol-report" => protocol_report = true,
            "--write-domain-baseline" => write_domain = true,
            "--domain-report" => domain_report = true,
            other => {
                eprintln!(
                    "lint: unknown argument `{other}` (usage: lint [--json] [--list] \
                     [--only <lint>] [--hotpath-report] [--write-hotpath-baseline] \
                     [--protocol-report] [--write-protocol-spec] \
                     [--domain-report] [--write-domain-baseline])"
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
    if write_hotpath || hotpath_report {
        return hotpath_scan(&root, &ws, write_hotpath);
    }
    if write_protocol || protocol_report {
        return protocol_scan(&root, &ws, write_protocol);
    }
    if write_domain || domain_report {
        return domain_scan(&root, &ws, write_domain);
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
