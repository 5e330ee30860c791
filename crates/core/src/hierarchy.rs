//! The common interface of the V-R hierarchy and the R-R baselines.

use vrcache_bus::oracle::{CoherenceViolation, VersionOracle};
use vrcache_bus::txn::BusTransaction;
use vrcache_cache::geometry::BlockId;
use vrcache_cache::stats::CacheStats;
use vrcache_cache::write_buffer::WriteBufferStats;
use vrcache_mem::access::CpuId;
use vrcache_mem::addr::{Asid, Vpn};
use vrcache_trace::record::MemAccess;

use crate::bus_api::{SnoopReply, SystemBus};
use crate::events::HierarchyEvents;
use crate::invariant::InvariantViolation;

/// A snapshot of one hierarchy's coherence standing on a second-level
/// block, as seen from outside (model checking and protocol-coverage
/// tooling). This is the "state" axis of the coherence state × bus event
/// transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockPresence {
    /// No copy of the block anywhere in this hierarchy.
    Absent,
    /// A copy held without write permission.
    Shared,
    /// A copy held with exclusive write permission.
    Private,
}

impl BlockPresence {
    /// Stable lower-case label used in coverage tables.
    pub fn label(self) -> &'static str {
        match self {
            BlockPresence::Absent => "absent",
            BlockPresence::Shared => "shared",
            BlockPresence::Private => "private",
        }
    }
}

/// How a V-cache miss that hit in the R-cache found its data already
/// resident under another virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynonymKind {
    /// The copy was in the same first-level set: re-tagged in place, any
    /// pending write-back cancelled.
    SameSet,
    /// The copy was in a different set: invalidated there and moved.
    Move,
}

/// What one processor reference did to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The reference hit in the first level.
    pub l1_hit: bool,
    /// Whether the second level hit; `None` when the first level hit (the
    /// R-cache and TLB accesses are aborted).
    pub l2_hit: Option<bool>,
    /// Synonym resolution performed, if any.
    pub synonym: Option<SynonymKind>,
    /// Whether the second-level TLB hit; `None` when it was not consulted.
    pub tlb_hit: Option<bool>,
}

impl AccessOutcome {
    /// An L1 hit (everything else aborted).
    pub fn hit_l1() -> Self {
        AccessOutcome {
            l1_hit: true,
            l2_hit: None,
            synonym: None,
            tlb_hit: None,
        }
    }
}

/// A per-processor two-level cache hierarchy attached to the shared bus.
///
/// Implementations: [`VrHierarchy`](crate::vr::VrHierarchy) (the paper's
/// proposal) and [`RrHierarchy`](crate::rr::RrHierarchy) (the physical
/// baselines, with or without inclusion).
pub trait CacheHierarchy: Send {
    /// Services one processor reference. `bus` is consulted on second-level
    /// misses and coherence upgrades; `oracle` verifies data freshness.
    ///
    /// # Errors
    ///
    /// Returns a [`CoherenceViolation`] if the processor observed stale
    /// data — always a bug in the protocol implementation, never a normal
    /// outcome.
    fn access(
        &mut self,
        access: &MemAccess,
        bus: &mut dyn SystemBus,
        oracle: &mut VersionOracle,
    ) -> Result<AccessOutcome, CoherenceViolation>;

    /// Notifies the hierarchy of a context switch on its processor.
    fn context_switch(&mut self, from: Asid, to: Asid);

    /// Services a TLB shootdown: the operating system is changing the
    /// translation of `(asid, vpn)`. The hierarchy must drop the TLB entry
    /// and retire any first-level blocks cached under that *virtual* page
    /// (their physical linkage is about to go stale); dirty data lands in
    /// the second level, where the paper says TLB coherence belongs.
    /// Returns the number of first-level lines disturbed.
    fn tlb_shootdown(&mut self, asid: Asid, vpn: Vpn, bus: &mut dyn SystemBus) -> u32;

    /// Services a foreign bus transaction (called by the system bus for
    /// every transaction issued by *another* processor).
    fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply;

    /// This hierarchy's coherence standing on a second-level `block`
    /// (physical, second-level granularity). Purely observational — used by
    /// the model checker to label exercised transitions and to check the
    /// single-writer rule.
    fn coh_presence(&self, block: BlockId) -> BlockPresence;

    /// This hierarchy's processor.
    fn cpu(&self) -> CpuId;

    /// Aggregate first-level statistics (I + D merged for a split level).
    fn l1_stats(&self) -> CacheStats;

    /// Split first-level statistics `(instruction, data)`, if the first
    /// level is split.
    fn l1_split_stats(&self) -> Option<(CacheStats, CacheStats)>;

    /// Second-level statistics. `hits/(hits+misses)` here is the *local*
    /// second-level hit ratio (the `h2` of the paper's equation).
    fn l2_stats(&self) -> CacheStats;

    /// Event counters.
    fn events(&self) -> &HierarchyEvents;

    /// Statistics of the write buffer between the levels.
    fn write_buffer_stats(&self) -> WriteBufferStats;

    /// Verifies the structural invariants (inclusion, pointer symmetry,
    /// at-most-one V copy per physical block, buffer-bit/write-buffer
    /// agreement). Callers arm it: `System::with_invariant_checks` for
    /// every organization, the model checker after every event.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    fn check_invariants(&self) -> Result<(), InvariantViolation>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_l1_shape() {
        let o = AccessOutcome::hit_l1();
        assert!(o.l1_hit);
        assert_eq!(o.l2_hit, None);
        assert_eq!(o.synonym, None);
        assert_eq!(o.tlb_hit, None);
    }
}
