//! Calibration report: measured hit ratios of every preset trace across the
//! paper's size ladder, side by side for the V-R and R-R organizations.
//!
//! ```text
//! cargo run --release -p vrcache-bench --bin calibrate -- [scale]
//! ```
//!
//! `scale` is in (0, 1], 0.05 when omitted. Used while tuning the synthetic
//! workloads against the paper's Tables 6 and 7; kept as a tool so
//! recalibration after generator changes is one command.

use std::fmt::Write as _;
use std::process::ExitCode;

use vrcache_bench::emit;
use vrcache_mem::access::AccessKind;
use vrcache_sim::experiments::{paper_config, run_kind, ExperimentCtx, LARGE_PAIRS, SMALL_PAIRS};
use vrcache_sim::system::HierarchyKind;
use vrcache_trace::presets::TracePreset;

fn main() -> ExitCode {
    let scale = match std::env::args().nth(1) {
        None => 0.05,
        Some(arg) => match arg.parse::<f64>() {
            Ok(s) if s > 0.0 && s <= 1.0 => s,
            _ => {
                eprintln!("error: scale must be a number in (0, 1], got `{arg}`");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut ctx = ExperimentCtx::new(scale);
    let mut out = format!("calibration at scale {scale}\n\n");
    for preset in TracePreset::ALL {
        let trace = ctx.trace(preset).clone();
        for pair in LARGE_PAIRS.iter().chain(SMALL_PAIRS.iter()) {
            let vr = run_kind(&trace, &paper_config(*pair), HierarchyKind::Vr);
            let rr = run_kind(&trace, &paper_config(*pair), HierarchyKind::RrInclusive);
            let l1 = vr.summary.l1;
            let _ = writeln!(
                out,
                "{preset:<7} {:>5}/{:>4}K: h1VR={:.3} h1RR={:.3} h2VR={:.3} h2RR={:.3} | r {:.3} w {:.3} i {:.3}",
                if pair.0 >= 1024 { format!("{}K", pair.0 / 1024) } else { ".5K".into() },
                pair.1 / 1024,
                vr.summary.h1,
                rr.summary.h1,
                vr.summary.h2_local,
                rr.summary.h2_local,
                l1.class(AccessKind::DataRead).hit_ratio(),
                l1.class(AccessKind::DataWrite).hit_ratio(),
                l1.class(AccessKind::InstrFetch).hit_ratio(),
            );
        }
    }
    match emit(&out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
