#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Deterministic fault-injection campaigns for the V/R hierarchy.
//!
//! The paper's organization concentrates correctness in small pieces of
//! linking metadata — r-pointers, v-pointers, inclusion/buffer/vdirty
//! bits — whose silent corruption breaks synonym resolution, inclusion
//! filtering, or coherence without any immediate crash. This crate
//! answers the robustness question experimentally: **which single-bit
//! faults does the hierarchy mask, which does modeled parity detect and
//! recover, and which reach silent data corruption?**
//!
//! A *campaign* sweeps fault plans — a single fault per run, or an
//! ordered **pair** of faults for the compositional campaigns — over
//! every hierarchy organization and the protection axis (metadata
//! parity off/on, and for plans touching the data arrays the
//! [`DataProtection`](vrcache::config::DataProtection) scheme: none,
//! per-word parity, or SECDED). Each fault is injected at a
//! deterministic `(seed, access-index)` point of a synthetic workload
//! (the default [`WorkloadShape`] or an entry of the pinned shape
//! grid), and the run is replayed against the flat
//! [`VersionOracle`](vrcache_bus::oracle::VersionOracle)/memory oracle.
//! Each injection is classified ([`Outcome`]):
//!
//! * **masked** — the run completed, nothing noticed, no stale read:
//!   the corrupted state was dead or re-derived before use;
//! * **detected-recovered** — parity (or a bus NACK) fired and the run
//!   still completed with no stale read;
//! * **detected-corrected** — SECDED corrected a flipped data bit in
//!   place; the run completed with no stale read and no discard;
//! * **detected-fatal** — the fault was noticed but the run could not
//!   continue correctly: a machine check, a panic, or a stale read
//!   *after* detection (fails loudly, never silently);
//! * **sdc** — a stale read with **zero** detection events: silent data
//!   corruption, the outcome the parity model exists to eliminate;
//! * **not-applicable** — the organization has no live target for this
//!   kind at the chosen point (e.g. an r-pointer in a physical L1).
//!
//! The report (`target/injection-report.txt`) is byte-deterministic:
//! two consecutive runs of the same campaign on the same build are
//! identical for any `--jobs` value. The SDC set with parity **off**
//! on the pinned shapes is allowlisted in `crates/inject/baseline.txt`
//! (every entry a reviewed, explained corruption route); the
//! `injection-baseline` lint in `vrcache-analysis` and this crate's own
//! exit status keep it honest. With protection **on** the expected SDC
//! set is empty — for single faults *and* for every ordered pair: a
//! pair of individually contained faults must stay contained, and any
//! protection-on SDC fails the run unconditionally.
//!
//! [`FaultKind::ALL`]: vrcache::fault::FaultKind::ALL

use std::path::{Path, PathBuf};

pub mod baseline;
pub mod campaign;
pub mod harness;
pub mod report;
pub mod workload;

pub use campaign::{
    id_shape, Campaign, CampaignResult, PlannedFault, RowProgress, Spec, SHAPE_GRID,
};
pub use harness::{Outcome, RunResult};
pub use workload::WorkloadShape;

/// Walks upward from `start` to the workspace root (the first directory
/// whose `Cargo.toml` declares `[workspace]`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_root_locates_the_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root above the crate");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").is_dir());
    }
}
