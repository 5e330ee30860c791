//! Event counters kept by every hierarchy.
//!
//! These are the quantities the paper's evaluation reads off the simulator:
//! coherence messages reaching the first level (Tables 11–13), synonym
//! resolutions, inclusion invalidations (the Section 2 "only 21 needed"
//! claim), swapped write-backs and their inter-arrival intervals (Table 3).

use core::fmt;
use serde::{Deserialize, Serialize};
use vrcache_trace::analysis::IntervalHistogram;

/// Counters accumulated by a hierarchy over a simulation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HierarchyEvents {
    // ---- coherence messages to L1 (Tables 11–13) ----
    /// `flush(v-pointer)` messages: a bus read-miss found the block
    /// modified in the V-cache.
    pub flush_v: u64,
    /// `invalidate(v-pointer)` messages: a bus invalidation reached a
    /// V-cache copy.
    pub inval_v: u64,
    /// `flush(buffer)` messages: a bus read-miss found the block in the
    /// write buffer.
    pub flush_buffer: u64,
    /// `invalidate(buffer)` messages: a bus invalidation hit the write
    /// buffer.
    pub inval_buffer: u64,
    /// `update(v-pointer)` messages: an update-protocol broadcast refreshed
    /// a V-cache copy in place.
    pub update_v: u64,
    /// Update broadcasts that superseded an entry in the write buffer.
    pub update_buffer: u64,
    /// First-level disturbances caused by inclusion-violating second-level
    /// replacements (each V-cache child invalidated counts once).
    pub inclusion_invalidations: u64,
    /// For the no-inclusion R-R baseline: foreign bus transactions that had
    /// to be forwarded to the first level because the second level cannot
    /// prove absence.
    pub unfiltered_snoops: u64,

    // ---- synonyms ----
    /// Synonym resolved in place (same set): re-tag, cancel write-back.
    pub synonym_sameset: u64,
    /// Synonym moved between sets.
    pub synonym_move: u64,

    // ---- context switching (Table 3) ----
    /// Context switches observed.
    pub context_switches: u64,
    /// V-cache lines marked swapped-valid across all switches.
    pub lines_swapped: u64,
    /// Write-backs of swapped-valid lines (the incremental write-backs the
    /// swapped-valid bit buys).
    pub swapped_writebacks: u64,

    // ---- write-back traffic ----
    /// Dirty first-level evictions pushed to the write buffer.
    pub l1_writebacks: u64,
    /// Dirty second-level evictions written to memory.
    pub l2_writebacks: u64,
    /// Intervals (in this CPU's references) between successive first-level
    /// write-backs — Table 3's histogram.
    pub writeback_intervals: IntervalHistogram,
    /// Intervals between successive *swapped* write-backs.
    pub swapped_writeback_intervals: IntervalHistogram,

    // ---- TLB ----
    /// TLB misses: the one count of them (the TLB keeps no books of its
    /// own). V-R and Goodman consume the TLB only on a first-level miss.
    pub tlb_misses: u64,

    // ---- parity detection and recovery ----
    /// Parity-detected faults recovered by treat-as-miss: the corrupted
    /// (clean) state was discarded and will simply be refetched. Not
    /// part of [`l1_coherence_messages`](Self::l1_coherence_messages) —
    /// these are fault-recovery actions, not protocol traffic.
    pub parity_refetches: u64,
    /// Parity-detected faults on dirty data or linking metadata that
    /// degraded to an invalidate-children machine check: the hierarchy
    /// stays structurally sound but modified data may have been lost, so
    /// the run must be declared failed (loudly, never silently).
    pub parity_machine_checks: u64,
    /// Single-bit data-array upsets corrected in place by SECDED
    /// (`DataProtection::Secded`): the stored word was repaired from its
    /// syndrome, no refetch and no data loss. Like the parity counters,
    /// not protocol traffic.
    pub secded_corrections: u64,

    // ---- ablation counters ----
    /// Dirty lines written back *at switch time* under the eager-flush
    /// ablation (zero under the paper's swapped-valid scheme).
    pub eager_flush_writebacks: u64,
    /// Writes forwarded to the second level under the write-through
    /// ablation.
    pub wt_writes_forwarded: u64,
}

impl HierarchyEvents {
    /// Total coherence messages that disturbed the first level — the
    /// quantity in the paper's Tables 11–13. For hierarchies with
    /// inclusion this is the flush/invalidate/buffer message count plus
    /// inclusion invalidations; for the no-inclusion baseline it is the
    /// unfiltered snoop count (every foreign transaction interrogates L1).
    pub fn l1_coherence_messages(&self) -> u64 {
        self.flush_v
            + self.inval_v
            + self.flush_buffer
            + self.inval_buffer
            + self.update_v
            + self.update_buffer
            + self.inclusion_invalidations
            + self.unfiltered_snoops
    }

    /// Total synonym resolutions.
    pub fn synonyms(&self) -> u64 {
        self.synonym_sameset + self.synonym_move
    }
}

impl fmt::Display for HierarchyEvents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "l1-coh {} (flushV {}, invalV {}, flushB {}, invalB {}, incl-inval {}, unfiltered {}) | \
             synonyms {} ({} sameset, {} move) | switches {} ({} swapped wb) | wb {} l1 / {} l2",
            self.l1_coherence_messages(),
            self.flush_v,
            self.inval_v,
            self.flush_buffer,
            self.inval_buffer,
            self.inclusion_invalidations,
            self.unfiltered_snoops,
            self.synonyms(),
            self.synonym_sameset,
            self.synonym_move,
            self.context_switches,
            self.swapped_writebacks,
            self.l1_writebacks,
            self.l2_writebacks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherence_total_sums_components() {
        let e = HierarchyEvents {
            flush_v: 1,
            inval_v: 2,
            flush_buffer: 3,
            inval_buffer: 4,
            update_v: 7,
            update_buffer: 8,
            inclusion_invalidations: 5,
            unfiltered_snoops: 6,
            ..Default::default()
        };
        assert_eq!(e.l1_coherence_messages(), 36);
    }

    #[test]
    fn synonyms_total() {
        let e = HierarchyEvents {
            synonym_sameset: 3,
            synonym_move: 4,
            ..Default::default()
        };
        assert_eq!(e.synonyms(), 7);
    }

    #[test]
    fn display_is_informative() {
        let e = HierarchyEvents::default();
        let s = e.to_string();
        assert!(s.contains("l1-coh"));
        assert!(s.contains("synonyms"));
        assert!(s.contains("switches"));
    }
}
