#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Shared helpers for the benchmark harness and the binaries.

use std::io::{self, Write};

use vrcache_sim::experiments::{self, ExperimentCtx};
use vrcache_sim::report::TableReport;

/// Writes a command's whole output to stdout. A reader that closed the
/// pipe early (`vrsim inspect | head -1`) chose to stop, so a broken pipe
/// is `Ok`; any other write error is `Err("writing stdout: …")`.
pub fn emit(out: &str) -> Result<(), String> {
    let mut stdout = io::stdout().lock();
    match stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(format!("writing stdout: {e}")),
        _ => Ok(()),
    }
}

/// Every artifact of the paper's evaluation that the harness can
/// regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Artifact {
    /// Table 1: writes due to procedure calls.
    Table1,
    /// Table 2: inter-write intervals (write-through view).
    Table2,
    /// Table 3: write intervals with write-back + swapped-valid.
    Table3,
    /// Table 5: trace characteristics.
    Table5,
    /// Table 6: hit ratios, 4K–16K first levels.
    Table6,
    /// Table 7: hit ratios, .5K–2K first levels.
    Table7,
    /// Figure 4: access time vs slow-down (thor).
    Fig4,
    /// Figure 5: access time vs slow-down (pops).
    Fig5,
    /// Figure 6: access time vs slow-down (abaqus).
    Fig6,
    /// Tables 8–10: split vs unified first level.
    Tables8To10,
    /// Tables 11–13: coherence messages to the first level.
    Tables11To13,
    /// Section 2: inclusion-invalidation count for pops.
    Inclusion,
    /// Section 2 design-choice ablations: write policy and context-switch
    /// handling.
    Ablations,
    /// The paper's stated future work: shielding vs processor count.
    Scaling,
    /// Memory traffic vs second-level size (the paper's headline claim for
    /// the large R-cache).
    Traffic,
    /// Footnote 1 measured: V-R vs Goodman's single-level dual-tag cache.
    SingleLevel,
    /// Section 2's inclusion bound in action: inclusion invalidations vs
    /// second-level associativity.
    Assoc,
    /// Section 3's "works for other protocols" claim: invalidation vs
    /// update coherence.
    Protocols,
}

impl Artifact {
    /// Every artifact, in paper order.
    pub const ALL: [Artifact; 18] = [
        Artifact::Table1,
        Artifact::Table2,
        Artifact::Table3,
        Artifact::Table5,
        Artifact::Table6,
        Artifact::Table7,
        Artifact::Fig4,
        Artifact::Fig5,
        Artifact::Fig6,
        Artifact::Tables8To10,
        Artifact::Tables11To13,
        Artifact::Inclusion,
        Artifact::Ablations,
        Artifact::Scaling,
        Artifact::Traffic,
        Artifact::SingleLevel,
        Artifact::Assoc,
        Artifact::Protocols,
    ];

    /// Parses a command-line name (`table6`, `fig5`, `inclusion`, ...).
    pub fn parse(name: &str) -> Option<Artifact> {
        Some(match name.to_ascii_lowercase().as_str() {
            "table1" => Artifact::Table1,
            "table2" => Artifact::Table2,
            "table3" => Artifact::Table3,
            "table5" => Artifact::Table5,
            "table6" => Artifact::Table6,
            "table7" => Artifact::Table7,
            "fig4" | "figure4" => Artifact::Fig4,
            "fig5" | "figure5" => Artifact::Fig5,
            "fig6" | "figure6" => Artifact::Fig6,
            "table8" | "table9" | "table10" | "tables8-10" => Artifact::Tables8To10,
            "table11" | "table12" | "table13" | "tables11-13" => Artifact::Tables11To13,
            "inclusion" => Artifact::Inclusion,
            "ablations" | "ablation" => Artifact::Ablations,
            "scaling" => Artifact::Scaling,
            "traffic" => Artifact::Traffic,
            "single-level" | "goodman" => Artifact::SingleLevel,
            "assoc" => Artifact::Assoc,
            "protocols" => Artifact::Protocols,
            _ => return None,
        })
    }

    /// Regenerates this artifact, returning its rendered tables.
    pub fn run(self, ctx: &mut ExperimentCtx) -> Vec<TableReport> {
        use vrcache_sim::experiments::{
            ablation, access_time, assoc, coherence, hit_ratios, protocols, scaling, single_level,
            split_id, table5, tables_write, traffic,
        };
        use vrcache_trace::presets::TracePreset;
        match self {
            Artifact::Table1 => vec![tables_write::table1(ctx)],
            Artifact::Table2 => vec![tables_write::table2(ctx)],
            Artifact::Table3 => vec![tables_write::table3(ctx)],
            Artifact::Table5 => vec![table5::table5(ctx)],
            Artifact::Table6 => vec![hit_ratios::table6(ctx).0],
            Artifact::Table7 => vec![hit_ratios::table7(ctx).0],
            Artifact::Fig4 | Artifact::Fig5 | Artifact::Fig6 => {
                let (preset, no) = match self {
                    Artifact::Fig4 => (TracePreset::Thor, 4),
                    Artifact::Fig5 => (TracePreset::Pops, 5),
                    _ => (TracePreset::Abaqus, 6),
                };
                let (_, rows) = hit_ratios::table6(ctx);
                let fig = access_time::figure(preset, &experiments::LARGE_PAIRS, &rows, 10.0, 20);
                let mut tables = vec![access_time::render(&fig, no)];
                let mut xo = TableReport::new(
                    format!("Figure {no} cross-over points ({preset})"),
                    vec!["sizes", "crossover %"],
                );
                for (pair, x) in fig.crossovers() {
                    xo.row(vec![
                        experiments::pair_label(pair),
                        x.map(|v| format!("{v:.1}")).unwrap_or_else(|| ">10".into()),
                    ]);
                }
                tables.push(xo);
                tables
            }
            Artifact::Tables8To10 => split_id::tables_8_9_10(ctx),
            Artifact::Tables11To13 => coherence::tables_11_12_13(ctx),
            Artifact::Inclusion => {
                let n = coherence::inclusion_invalidation_count(ctx);
                let mut t = TableReport::new(
                    "Section 2: inclusion invalidations (pops, 16K 2-way / 256K 2-way, 16B blocks)",
                    vec!["quantity", "value"],
                );
                t.row(vec!["inclusion invalidations".into(), n.to_string()]);
                vec![t]
            }
            Artifact::Ablations => {
                let wp = ablation::write_policy_ablation(ctx);
                let cs = ablation::context_switch_ablation(ctx);
                vec![
                    ablation::render_write_policy(&wp),
                    ablation::render_context_switch(&cs),
                ]
            }
            Artifact::Scaling => {
                // Scale the per-CPU volume with the context's scale knob.
                let refs_per_cpu = ((800_000.0 * ctx.scale()) as u64).max(5_000);
                let points = scaling::scaling_study(refs_per_cpu, &[2, 4, 8, 16]);
                vec![scaling::render(&points)]
            }
            Artifact::Traffic => vec![traffic::traffic_table(ctx)],
            Artifact::SingleLevel => vec![single_level::single_level_table(ctx)],
            Artifact::Assoc => {
                let points = assoc::assoc_sweep(ctx, TracePreset::Pops);
                vec![assoc::render(TracePreset::Pops, &points)]
            }
            Artifact::Protocols => vec![protocols::protocols_table(ctx)],
        }
    }

    /// Renders a figure artifact's curves as an ASCII chart (terminal
    /// companion to the series tables).
    pub fn chart(self, ctx: &mut ExperimentCtx) -> Option<String> {
        use vrcache_sim::experiments::{access_time, hit_ratios};
        use vrcache_sim::report::ascii_chart;
        use vrcache_trace::presets::TracePreset;
        let preset = match self {
            Artifact::Fig4 => TracePreset::Thor,
            Artifact::Fig5 => TracePreset::Pops,
            Artifact::Fig6 => TracePreset::Abaqus,
            _ => return None,
        };
        let (_, rows) = hit_ratios::table6(ctx);
        let fig = access_time::figure(preset, &experiments::LARGE_PAIRS, &rows, 10.0, 20);
        // Chart the largest configuration (the paper's most interesting).
        let (_, pts) = fig.curves.last()?;
        let vr: Vec<(f64, f64)> = pts.iter().map(|p| (p.slowdown_pct, p.t_vr)).collect();
        let rr: Vec<(f64, f64)> = pts.iter().map(|p| (p.slowdown_pct, p.t_rr)).collect();
        Some(ascii_chart(&[("Vr", &vr), ("Rr", &rr)], 60, 16))
    }

    /// Renders this artifact's full repro output — tables, then the
    /// optional chart — exactly as the `repro` binary prints it. Each
    /// render uses a fresh [`ExperimentCtx`] (a pure memo over the
    /// deterministic trace generators), so the bytes are a pure function
    /// of `(artifact, scale)`: the unit of work `repro --jobs N` fans
    /// out without changing its output.
    pub fn render(self, scale: f64) -> String {
        use std::fmt::Write as _;
        let mut ctx = ExperimentCtx::new(scale);
        let mut out = String::new();
        for table in self.run(&mut ctx) {
            let _ = writeln!(out, "{table}");
        }
        if let Some(chart) = self.chart(&mut ctx) {
            let _ = writeln!(out, "```text\n{chart}```\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(Artifact::parse("table6"), Some(Artifact::Table6));
        assert_eq!(Artifact::parse("FIG5"), Some(Artifact::Fig5));
        assert_eq!(Artifact::parse("tables11-13"), Some(Artifact::Tables11To13));
        assert_eq!(Artifact::parse("nope"), None);
        assert_eq!(Artifact::parse("ablations"), Some(Artifact::Ablations));
        assert_eq!(Artifact::ALL.len(), 18);
    }

    #[test]
    fn cheap_artifacts_run_at_tiny_scale() {
        let mut ctx = ExperimentCtx::new(0.002);
        for a in [Artifact::Table1, Artifact::Table2, Artifact::Table5] {
            let tables = a.run(&mut ctx);
            assert!(!tables.is_empty());
            assert!(!tables[0].is_empty());
        }
    }

    /// The repro binary's fan-out, in miniature: rendering artifacts
    /// through the exec substrate and concatenating in artifact order
    /// must be byte-identical for any worker count.
    #[test]
    fn worker_count_never_changes_the_render() {
        let artifacts = [Artifact::Table1, Artifact::Table2, Artifact::Table5];
        let render_all = |jobs: usize| -> String {
            vrcache_exec::run_cells(jobs, &artifacts, |_, a| a.render(0.002))
                .into_iter()
                .map(|cell| cell.result.expect("cheap artifacts render cleanly"))
                .collect()
        };
        let baseline = render_all(1);
        assert!(baseline.contains("Table 1"), "sanity: rendered something");
        for jobs in [2, 8] {
            assert_eq!(
                render_all(jobs),
                baseline,
                "jobs={jobs} must render byte-identical output"
            );
        }
    }
}
