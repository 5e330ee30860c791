//! `vrcache-inject` — the fault-injection campaign runner.
//!
//! ```text
//! cargo run --release -p vrcache-inject -- --campaign smoke
//! cargo run --release -p vrcache-inject -- --campaign pairs-smoke --jobs 4
//! cargo run --release -p vrcache-inject -- --campaign nightly --write-baseline
//! ```
//!
//! Runs fan out over `--jobs` workers of the deterministic
//! `vrcache-exec` substrate; everything on stdout (summary, report
//! file) is byte-identical for any worker count, while per-run progress
//! lines stream to stderr in completion order. The single campaigns
//! (`smoke`/`full`) sweep one fault per run; the compositional
//! campaigns (`pairs-smoke`/`pairs-full`) sweep ordered fault pairs;
//! `shapes` replays single and pair smoke sets across the pinned
//! workload-shape grid, and `nightly` is all three full sweeps in one
//! report. Every run replays a reviewed workload shape (the default or
//! a grid entry), so every parity-off SDC route is baselined.
//!
//! Exit status: `0` when the sweep upholds the robustness contract
//! (no protection-on SDC, every parity-off SDC allowlisted with a
//! reviewed justification, every fault kind and data-protection
//! scheme exercised where the campaign covers them), `1` when a
//! contract check fails, `2` on usage errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vrcache::config::DataProtection;
use vrcache_exec::{human_duration, parse_jobs, resolve_jobs};
use vrcache_inject::baseline::{self, Baseline};
use vrcache_inject::campaign::id_shape;
use vrcache_inject::{find_root, report, Campaign};

struct Args {
    campaign: String,
    filter: String,
    jobs: Option<usize>,
    report_path: Option<PathBuf>,
    write_baseline: bool,
    list: bool,
}

fn usage() -> String {
    "usage: vrcache-inject --campaign <name> [options]\n\
     \n\
     campaigns:\n\
     \x20 smoke        single faults, one point/seed per kind\n\
     \x20 full         single faults, the whole point/seed matrix\n\
     \x20 pairs-smoke  ordered fault pairs over a reduced kind set\n\
     \x20 pairs-full   ordered pairs over the whole fault table\n\
     \x20 shapes       smoke singles + smoke pairs across the pinned shape grid\n\
     \x20 nightly      full + pairs-full + shapes in one report\n\
     \n\
     options:\n\
     \x20 --campaign <name>         which sweep to run (default smoke)\n\
     \x20 --filter <substring>      run only row ids containing <substring>\n\
     \x20 --jobs <n>                worker threads (default: host parallelism, max 16);\n\
     \x20                           the report is byte-identical for any value\n\
     \x20 --report <path>           report destination (default target/injection-report.txt)\n\
     \x20 --write-baseline          regenerate crates/inject/baseline.txt from this run's\n\
     \x20                           parity-off SDC set (keeps existing justifications,\n\
     \x20                           suggests route-class texts for new ids)\n\
     \x20 --list                    print row ids without running\n"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        campaign: String::new(),
        filter: String::new(),
        jobs: None,
        report_path: None,
        write_baseline: false,
        list: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--campaign" => args.campaign = value("--campaign")?,
            "--filter" => args.filter = value("--filter")?,
            "--jobs" => args.jobs = Some(parse_jobs(&value("--jobs")?)?),
            "--report" => args.report_path = Some(PathBuf::from(value("--report")?)),
            "--write-baseline" => args.write_baseline = true,
            "--list" => args.list = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument: {other}\n\n{}", usage())),
        }
    }
    if args.campaign.is_empty() {
        args.campaign = "smoke".to_string();
    }
    Ok(args)
}

fn build_campaign(name: &str) -> Result<Campaign, String> {
    match name {
        "smoke" => Ok(Campaign::smoke()),
        "full" => Ok(Campaign::full()),
        "pairs-smoke" => Ok(Campaign::pairs_smoke()),
        "pairs-full" => Ok(Campaign::pairs_full()),
        "shapes" => Ok(Campaign::shapes()),
        "nightly" => Ok(Campaign::nightly()),
        other => Err(format!(
            "unknown campaign '{other}' (want smoke, full, pairs-smoke, pairs-full, \
             shapes or nightly)"
        )),
    }
}

/// Suggested justification for a freshly observed SDC id: single ids
/// use the reviewed route-class text for their kind, pair ids the
/// composition text, and shape-keyed ids the base suggestion tagged
/// with the shape it reproduced under.
fn suggest_justification(id: &str) -> Option<String> {
    let (base, shape_key) = match id_shape(id) {
        Some(_) => {
            let (head, last) = id.rsplit_once('/')?;
            (head, Some(&last[1..]))
        }
        None => (id, None),
    };
    let kinds = base.split('/').nth(1)?;
    let text = if let Some((first, second)) = kinds.split_once('+') {
        format!(
            "unprotected {first}+{second} composition: with parity and data protection \
             off neither fault can be detected, and the ordered pair leaves a stale \
             value live for the verification tail (the single-route pins explain each \
             component)"
        )
    } else {
        baseline::kind_justification(kinds)?.to_string()
    };
    Some(match shape_key {
        Some(key) => format!("{text} [reproduced under the {key} workload shape]"),
        None => text,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let campaign = match build_campaign(&args.campaign) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.list {
        for spec in &campaign.specs {
            let id = spec.id();
            if args.filter.is_empty() || id.contains(&args.filter) {
                println!("{id}");
            }
        }
        return ExitCode::SUCCESS;
    }

    let Some(root) = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))) else {
        eprintln!("cannot locate the workspace root");
        return ExitCode::from(2);
    };

    let jobs = resolve_jobs(args.jobs, campaign.specs.len());
    eprintln!("inject: campaign '{}' with {jobs} worker(s)", campaign.name);

    // Injected faults are *supposed* to trip assertions; keep the
    // campaign's own output readable by silencing the per-panic
    // backtraces (every panic is still caught and classified).
    std::panic::set_hook(Box::new(|_| {}));
    let result = campaign.run(&args.filter, jobs, |p| {
        eprintln!(
            "inject: [{}/{}] {} {} in {}",
            p.done,
            p.total,
            p.row.id(),
            p.row.result.outcome.label(),
            human_duration(p.duration)
        );
    });
    let _ = std::panic::take_hook();

    println!("campaign '{}': {} runs", result.name, result.rows.len());
    for (outcome, count) in result.counts() {
        println!("  {:<20} {}", outcome.label(), count);
    }

    let report_path = args
        .report_path
        .unwrap_or_else(|| root.join("target").join("injection-report.txt"));
    if let Some(parent) = report_path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("cannot create {}: {e}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&report_path, report::render(&result)) {
        eprintln!("cannot write {}: {e}", report_path.display());
        return ExitCode::FAILURE;
    }
    println!("report: {}", report_path.display());

    let baseline_path = root.join("crates").join("inject").join("baseline.txt");
    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap_or_default();
    let baseline = match Baseline::parse(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("FAIL: {} is malformed: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };

    let sdc_off = result.sdc_ids(Some(false));

    if args.write_baseline {
        let text = baseline::render_template(&sdc_off, &baseline, &|id| suggest_justification(id));
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "baseline: wrote {} entries to {}",
            sdc_off.len(),
            baseline_path.display()
        );
    }

    let mut failed = false;

    // Contract 1: with the protection machinery on (metadata parity,
    // and for data faults parity or SECDED), nothing is silent. Ever.
    // This holds for any workload shape and for every fault plan —
    // singles and ordered pairs alike: containment must compose.
    let sdc_on = result.sdc_ids(Some(true));
    if !sdc_on.is_empty() {
        failed = true;
        eprintln!("FAIL: silent data corruption with protection ON:");
        for id in &sdc_on {
            eprintln!("  {id}");
        }
    }

    // Contract 2: every parity-off SDC route is allowlisted and
    // explained.
    if !args.write_baseline {
        let unpinned: Vec<&String> = sdc_off.iter().filter(|id| !baseline.contains(id)).collect();
        if !unpinned.is_empty() {
            failed = true;
            eprintln!("FAIL: unreviewed parity-off SDC routes (run --write-baseline and explain):");
            for id in unpinned {
                eprintln!("  {id}");
            }
        }
    }

    // Contract 3: the baseline never allowlists a parity-on id.
    let bad_baseline = baseline.parity_on_ids();
    if !bad_baseline.is_empty() {
        failed = true;
        eprintln!("FAIL: baseline allowlists parity-on ids:");
        for id in bad_baseline {
            eprintln!("  {id}");
        }
    }

    // Contract 4 (unfiltered campaigns whose plans span the whole fault
    // table): every fault kind corrupted something somewhere — a kind
    // that never applies is dead weight in the fault model. Reduced
    // kind sets (pairs-smoke) skip this.
    if args.filter.is_empty() && campaign.covers_all_kinds() {
        let unexercised = result.unexercised_kinds();
        if !unexercised.is_empty() {
            failed = true;
            eprintln!("FAIL: fault kinds never exercised:");
            for kind in unexercised {
                eprintln!("  {}", kind.label());
            }
        }
    }

    // Contract 5: every data-protection scheme the campaign enumerates
    // must see a landed data fault — an unexercised protection scheme
    // is a dead knob whose classification claims mean nothing.
    let covers_protections = DataProtection::ALL
        .iter()
        .all(|p| campaign.specs.iter().any(|s| s.protection == *p));
    if args.filter.is_empty() && covers_protections {
        let unexercised = result.unexercised_protections();
        if !unexercised.is_empty() {
            failed = true;
            eprintln!("FAIL: data-protection schemes never exercised by a landed data fault:");
            for p in unexercised {
                eprintln!("  {}", p.label());
            }
        }
    }

    // Stale baseline entries are informational only: the SDC set differs
    // between debug and release builds (debug assertions turn several
    // silent routes into loud ones) and between campaigns; the baseline
    // pins the union of the nightly matrix.
    let stale: Vec<&baseline::BaselineEntry> = baseline
        .entries
        .iter()
        .filter(|e| !sdc_off.contains(&e.id))
        .collect();
    if !stale.is_empty() && args.filter.is_empty() {
        println!(
            "note: {} baseline entr{} did not reach SDC in this run (expected outside \
             the nightly matrix)",
            stale.len(),
            if stale.len() == 1 { "y" } else { "ies" }
        );
    }

    if failed {
        return ExitCode::FAILURE;
    }
    println!("injection campaign clean");
    ExitCode::SUCCESS
}
