//! Tables 6 and 7: hit ratios of V-R vs R-R hierarchies.
//!
//! For every trace and (L1, L2) size pair, the same trace is replayed on a
//! V-R system and on an R-R (inclusive) system and the level-1 and *local*
//! level-2 hit ratios are collected. The paper's headline observations:
//!
//! * with rare context switches (thor, pops) `h1VR ≈ h1RR`;
//! * with frequent switches (abaqus) `h1VR < h1RR` by a few points (the
//!   V-cache flushes), growing with the V-cache size;
//! * for sub-page first levels (Table 7) the ratios are nearly identical.

use std::thread;

use vrcache_trace::presets::TracePreset;
use vrcache_trace::trace::Trace;

use super::{paper_config, run_kind, ExperimentCtx};
use crate::report::{ratio, TableReport};
use crate::system::HierarchyKind;

/// Hit ratios of both organizations for one (trace, size pair) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitRatioCell {
    /// First-level hit ratio, V-R.
    pub h1_vr: f64,
    /// First-level hit ratio, R-R.
    pub h1_rr: f64,
    /// Local second-level hit ratio, V-R.
    pub h2_vr: f64,
    /// Local second-level hit ratio, R-R.
    pub h2_rr: f64,
}

/// One trace's worth of cells, in size-pair order.
#[derive(Debug, Clone)]
pub struct HitRatioRow {
    /// The trace.
    pub preset: TracePreset,
    /// One cell per size pair.
    pub cells: Vec<HitRatioCell>,
}

/// Runs the hit-ratio grid for the given size pairs over all three traces.
/// Runs the V-R and R-R simulations of each cell in parallel.
pub fn hit_ratio_grid(ctx: &mut ExperimentCtx, pairs: &[(u64, u64)]) -> Vec<HitRatioRow> {
    // Materialize traces first (generation mutates the cache).
    let traces: Vec<(TracePreset, Trace)> = TracePreset::ALL
        .iter()
        .map(|p| (*p, ctx.trace(*p).clone()))
        .collect();
    traces
        .iter()
        .map(|(preset, trace)| {
            let cells = thread::scope(|s| {
                let handles: Vec<_> = pairs
                    .iter()
                    .map(|pair| {
                        let cfg = paper_config(*pair);
                        s.spawn(move || {
                            let vr = run_kind(trace, &cfg, HierarchyKind::Vr).summary;
                            let rr = run_kind(trace, &cfg, HierarchyKind::RrInclusive).summary;
                            HitRatioCell {
                                h1_vr: vr.h1,
                                h1_rr: rr.h1,
                                h2_vr: vr.h2_local,
                                h2_rr: rr.h2_local,
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panic"))
                    .collect()
            });
            HitRatioRow {
                preset: *preset,
                cells,
            }
        })
        .collect()
}

/// Renders the grid the way the paper lays out Tables 6 and 7: one column
/// per (trace, size) combination, rows `h1VR`, `h1RR`, `h2VR`, `h2RR`.
pub fn render(title: &str, pairs: &[(u64, u64)], rows: &[HitRatioRow]) -> TableReport {
    let mut headers = vec!["ratio".to_string()];
    for row in rows {
        for pair in pairs {
            headers.push(format!("{} {}", row.preset, super::pair_label(*pair)));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = TableReport::new(title, header_refs);
    type Extract = fn(&HitRatioCell) -> f64;
    let extract: [(&str, Extract); 4] = [
        ("h1VR", |c| c.h1_vr),
        ("h1RR", |c| c.h1_rr),
        ("h2VR", |c| c.h2_vr),
        ("h2RR", |c| c.h2_rr),
    ];
    for (label, f) in extract {
        let mut cells = vec![label.to_string()];
        for row in rows {
            for c in &row.cells {
                cells.push(ratio(f(c)));
            }
        }
        t.row(cells);
    }
    t
}

/// Regenerates Table 6 (4K–16K first levels). The measured grid covers
/// all three traces and is memoized on the context, so a figure's chart
/// reuses the grid its table computed. `Artifact::render` gives each
/// artifact a fresh context, though, so each of Figures 4–6 simulates
/// the whole three-trace grid to use one trace's row.
pub fn table6(ctx: &mut ExperimentCtx) -> (TableReport, Vec<HitRatioRow>) {
    if ctx.table6_rows.is_none() {
        let rows = hit_ratio_grid(ctx, &super::LARGE_PAIRS);
        ctx.table6_rows = Some(rows);
    }
    let rows = ctx.table6_rows.clone().expect("just computed");
    (
        render("Table 6: hit ratios", &super::LARGE_PAIRS, &rows),
        rows,
    )
}

/// Regenerates Table 7 (.5K–2K first levels).
pub fn table7(ctx: &mut ExperimentCtx) -> (TableReport, Vec<HitRatioRow>) {
    let rows = hit_ratio_grid(ctx, &super::SMALL_PAIRS);
    (
        render(
            "Table 7: hit ratios for small first-level caches",
            &super::SMALL_PAIRS,
            &rows,
        ),
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes_and_monotonicity() {
        let mut ctx = ExperimentCtx::new(0.004);
        let pairs = [(4 * 1024, 64 * 1024), (16 * 1024, 256 * 1024)];
        let rows = hit_ratio_grid(&mut ctx, &pairs);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.cells.len(), 2);
            for c in &row.cells {
                for v in [c.h1_vr, c.h1_rr, c.h2_vr, c.h2_rr] {
                    assert!((0.0..=1.0).contains(&v));
                }
            }
            // Bigger L1 must not lower h1 materially.
            assert!(
                row.cells[1].h1_vr >= row.cells[0].h1_vr - 0.02,
                "{}: {} -> {}",
                row.preset,
                row.cells[0].h1_vr,
                row.cells[1].h1_vr
            );
        }
    }

    #[test]
    fn abaqus_vr_pays_for_context_switches() {
        let mut ctx = ExperimentCtx::new(0.02);
        let pairs = [(16 * 1024, 256 * 1024)];
        let rows = hit_ratio_grid(&mut ctx, &pairs);
        let abaqus = rows
            .iter()
            .find(|r| r.preset == TracePreset::Abaqus)
            .unwrap();
        let c = abaqus.cells[0];
        assert!(
            c.h1_rr >= c.h1_vr,
            "physical L1 must not lose to flushed virtual L1: vr {} rr {}",
            c.h1_vr,
            c.h1_rr
        );
        // And the thor/pops gap stays small.
        let thor = rows.iter().find(|r| r.preset == TracePreset::Thor).unwrap();
        let t = thor.cells[0];
        assert!(
            (t.h1_rr - t.h1_vr).abs() < 0.02,
            "rare switches: vr {} rr {}",
            t.h1_vr,
            t.h1_rr
        );
    }

    #[test]
    fn render_matches_paper_layout() {
        let rows = vec![HitRatioRow {
            preset: TracePreset::Thor,
            cells: vec![HitRatioCell {
                h1_vr: 0.925,
                h1_rr: 0.925,
                h2_vr: 0.692,
                h2_rr: 0.691,
            }],
        }];
        let t = render("Table 6", &[(4 * 1024, 64 * 1024)], &rows);
        assert_eq!(t.len(), 4);
        assert_eq!(t.cell(0, 0), Some("h1VR"));
        assert_eq!(t.cell(0, 1), Some(".925"));
        assert_eq!(t.cell(2, 1), Some(".692"));
    }
}
