//! One module per table and figure of the paper's evaluation.
//!
//! Every experiment takes an [`ExperimentCtx`], which caches the generated
//! traces (they are reused across many configurations) and carries the
//! volume scale: `1.0` reproduces the paper-sized traces, smaller values
//! give proportionally faster runs for tests and smoke checks.

pub mod ablation;
pub mod access_time;
pub mod assoc;
pub mod coherence;
pub mod hit_ratios;
pub mod protocols;
pub mod scaling;
pub mod single_level;
pub mod split_id;
pub mod table5;
pub mod tables_write;
pub mod traffic;

use std::collections::BTreeMap;

use vrcache::config::HierarchyConfig;
use vrcache::events::HierarchyEvents;
use vrcache::hierarchy::CacheHierarchy;
use vrcache_mem::access::CpuId;
use vrcache_trace::presets::TracePreset;
use vrcache_trace::trace::Trace;

use crate::system::{HierarchyKind, RunSummary, System};

/// The (L1 bytes, L2 bytes) pairs of the paper's Tables 6, 8–13.
pub const LARGE_PAIRS: [(u64, u64); 3] = [
    (4 * 1024, 64 * 1024),
    (8 * 1024, 128 * 1024),
    (16 * 1024, 256 * 1024),
];

/// The small-first-level pairs of Table 7.
pub const SMALL_PAIRS: [(u64, u64); 3] =
    [(512, 64 * 1024), (1024, 128 * 1024), (2 * 1024, 256 * 1024)];

/// The block size used throughout the evaluation.
pub const BLOCK_BYTES: u64 = 16;

/// Formats a size pair the way the paper labels its columns (`4K/64K`).
pub fn pair_label(pair: (u64, u64)) -> String {
    fn side(v: u64) -> String {
        if v >= 1024 && v.is_multiple_of(1024) {
            format!("{}K", v / 1024)
        } else {
            format!(".{}K", v * 10 / 1024 / 10) // paper writes .5K for 512
        }
    }
    let l1 = if pair.0 < 1024 {
        ".5K".to_string()
    } else {
        side(pair.0)
    };
    format!("{l1}/{}", side(pair.1))
}

/// Shared context: cached traces and the volume scale.
pub struct ExperimentCtx {
    scale: f64,
    traces: BTreeMap<TracePreset, Trace>,
    /// Memoized Table 6 grid, all three traces: reused by later calls
    /// on this context only (a figure's chart after its table), never
    /// across the fresh contexts `Artifact::render` builds.
    pub(crate) table6_rows: Option<Vec<hit_ratios::HitRatioRow>>,
}

impl ExperimentCtx {
    /// Creates a context generating traces at `scale` of their paper size.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    pub fn new(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        ExperimentCtx {
            scale,
            traces: BTreeMap::new(),
            table6_rows: None,
        }
    }

    /// The volume scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The (cached) trace for `preset`.
    pub fn trace(&mut self, preset: TracePreset) -> &Trace {
        let scale = self.scale;
        self.traces
            .entry(preset)
            .or_insert_with(|| preset.generate_scaled(scale))
    }
}

/// The result of one full simulation: the aggregate summary plus each
/// processor's event counters.
pub struct KindRun {
    /// Aggregate hit ratios and statistics.
    pub summary: RunSummary,
    /// Per-CPU event counters, indexed by CPU.
    pub events: Vec<HierarchyEvents>,
    /// Per-CPU split (instruction, data) L1 statistics, when the first
    /// level is split.
    pub split_stats: Vec<
        Option<(
            vrcache_cache::stats::CacheStats,
            vrcache_cache::stats::CacheStats,
        )>,
    >,
}

/// Runs `trace` on a fresh system of the given kind and configuration.
///
/// # Panics
///
/// Panics if the simulation reports a coherence or invariant violation —
/// experiments must run on a correct simulator or not at all.
pub fn run_kind(trace: &Trace, cfg: &HierarchyConfig, kind: HierarchyKind) -> KindRun {
    let mut sys = System::new(kind, trace.cpus(), cfg);
    let summary = sys
        .run_trace(trace)
        .unwrap_or_else(|e| panic!("{kind} simulation failed: {e}"));
    sys.check_invariants()
        .unwrap_or_else(|e| panic!("{kind} invariants failed: {e}"));
    let events = (0..trace.cpus())
        .map(|c| sys.events(CpuId::new(c)).clone())
        .collect();
    let split_stats = (0..trace.cpus())
        .map(|c| sys.hierarchy(CpuId::new(c)).l1_split_stats())
        .collect();
    KindRun {
        summary,
        events,
        split_stats,
    }
}

/// Builds the standard direct-mapped configuration for a size pair.
///
/// # Panics
///
/// Panics on invalid geometry (cannot happen for the paper's pairs).
pub fn paper_config(pair: (u64, u64)) -> HierarchyConfig {
    HierarchyConfig::direct_mapped(pair.0, pair.1, BLOCK_BYTES).expect("paper size pairs are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_labels_match_paper() {
        assert_eq!(pair_label((4 * 1024, 64 * 1024)), "4K/64K");
        assert_eq!(pair_label((16 * 1024, 256 * 1024)), "16K/256K");
        assert_eq!(pair_label((512, 64 * 1024)), ".5K/64K");
        assert_eq!(pair_label((2 * 1024, 256 * 1024)), "2K/256K");
    }

    #[test]
    fn ctx_caches_traces() {
        let mut ctx = ExperimentCtx::new(0.002);
        let a = ctx.trace(TracePreset::Pops).summary();
        let b = ctx.trace(TracePreset::Pops).summary();
        assert_eq!(a, b);
        assert_eq!(ctx.traces.len(), 1);
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn bad_scale_panics() {
        let _ = ExperimentCtx::new(0.0);
    }

    #[test]
    fn run_kind_smoke() {
        let mut ctx = ExperimentCtx::new(0.002);
        let trace = ctx.trace(TracePreset::Thor).clone();
        let run = run_kind(&trace, &paper_config(LARGE_PAIRS[0]), HierarchyKind::Vr);
        assert_eq!(run.events.len(), 4);
        assert!(run.summary.h1 > 0.0);
    }
}
