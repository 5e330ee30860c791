//! The bus-attached machine: N private hierarchies on one snooping bus
//! over a version-checked main memory.
//!
//! Each slot holds an [`Org`], built by [`Org::new`]: the one place a
//! [`HierarchyKind`] becomes a hierarchy. [`Machine::with_bus`] is the
//! one place a hierarchy is lifted out of its slot to issue on a
//! [`SnoopingBus`] over all the others. The trace-driven
//! [`System`](crate::system::System), the model checker's `World` and
//! the fault-injection harness (which wraps the bus it is handed) all
//! replay through it. A DMA device issues on the same bus with
//! [`Machine::issue_as`], so every hierarchy filters I/O exactly as it
//! filters a foreign processor.

use vrcache::bus_api::{BusRequest, BusResponse, SnoopReply, SystemBus};
use vrcache::config::HierarchyConfig;
use vrcache::events::HierarchyEvents;
use vrcache::fault::{FaultKind, FaultPort, FaultRecord};
use vrcache::goodman::GoodmanHierarchy;
use vrcache::hierarchy::{AccessOutcome, BlockPresence, CacheHierarchy};
use vrcache::invariant::InvariantViolation;
use vrcache::rr::{InclusionMode, RrHierarchy};
use vrcache::vr::VrHierarchy;
use vrcache_bus::memory::MainMemory;
use vrcache_bus::oracle::{CoherenceViolation, VersionOracle};
use vrcache_bus::stats::BusStats;
use vrcache_bus::txn::BusTransaction;
use vrcache_cache::geometry::BlockId;
use vrcache_cache::stats::CacheStats;
use vrcache_cache::write_buffer::WriteBufferStats;
use vrcache_mem::access::CpuId;
use vrcache_mem::addr::{Asid, Vpn};
use vrcache_trace::record::MemAccess;

use crate::snoop::{SnoopObserver, SnoopingBus};
use crate::system::HierarchyKind;

/// One processor's hierarchy, of any organization the paper compares
/// (both R-R flavours are one variant: the mode is the hierarchy's own).
#[derive(Debug)]
pub enum Org {
    /// The paper's virtual-real hierarchy.
    Vr(VrHierarchy),
    /// The real-real baseline, with or without inclusion.
    Rr(RrHierarchy),
    /// Goodman's single-level dual-tag virtual cache.
    Goodman(GoodmanHierarchy),
}

/// Runs `$body` with `$h` bound to the hierarchy inside `$org`.
macro_rules! each {
    ($org:expr, $h:ident => $body:expr) => {
        match $org {
            Org::Vr($h) => $body,
            Org::Rr($h) => $body,
            Org::Goodman($h) => $body,
        }
    };
}

impl Org {
    /// A fresh hierarchy of organization `kind` for `cpu` under `cfg`.
    pub fn new(kind: HierarchyKind, cpu: CpuId, cfg: &HierarchyConfig) -> Org {
        let rr = |mode| Org::Rr(RrHierarchy::new(cpu, cfg, mode));
        match kind {
            HierarchyKind::Vr => Org::Vr(VrHierarchy::new(cpu, cfg)),
            HierarchyKind::RrInclusive => rr(InclusionMode::Inclusive),
            HierarchyKind::RrNonInclusive => rr(InclusionMode::NonInclusive),
            HierarchyKind::GoodmanSingleLevel => Org::Goodman(GoodmanHierarchy::new(cpu, cfg)),
        }
    }

    /// Injects one fault of `kind`, the target picked by `seed`: the
    /// organization's own [`FaultPort`].
    pub fn inject_fault(&mut self, kind: FaultKind, seed: u64) -> Option<FaultRecord> {
        each!(self, h => h.inject_fault(kind, seed))
    }
}

/// A copy overwritten in place with `clone_from` reuses the buffers of
/// the hierarchy it held, when that was of the same organization.
impl Clone for Org {
    fn clone(&self) -> Self {
        match self {
            Org::Vr(h) => Org::Vr(h.clone()),
            Org::Rr(h) => Org::Rr(h.clone()),
            Org::Goodman(h) => Org::Goodman(h.clone()),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Org::Vr(h), Org::Vr(from)) => h.clone_from(from),
            (Org::Rr(h), Org::Rr(from)) => h.clone_from(from),
            (Org::Goodman(h), Org::Goodman(from)) => h.clone_from(from),
            (this, from) => *this = from.clone(),
        }
    }
}

impl CacheHierarchy for Org {
    fn access(
        &mut self,
        access: &MemAccess,
        bus: &mut dyn SystemBus,
        oracle: &mut VersionOracle,
    ) -> Result<AccessOutcome, CoherenceViolation> {
        each!(self, h => h.access(access, bus, oracle))
    }

    fn context_switch(&mut self, from: Asid, to: Asid) {
        each!(self, h => h.context_switch(from, to))
    }

    fn tlb_shootdown(&mut self, asid: Asid, vpn: Vpn, bus: &mut dyn SystemBus) -> u32 {
        each!(self, h => h.tlb_shootdown(asid, vpn, bus))
    }

    fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
        each!(self, h => h.snoop(txn))
    }

    fn coh_presence(&self, block: BlockId) -> BlockPresence {
        each!(self, h => h.coh_presence(block))
    }

    fn cpu(&self) -> CpuId {
        each!(self, h => h.cpu())
    }

    fn l1_stats(&self) -> CacheStats {
        each!(self, h => h.l1_stats())
    }

    fn l1_split_stats(&self) -> Option<(CacheStats, CacheStats)> {
        each!(self, h => h.l1_split_stats())
    }

    fn l2_stats(&self) -> CacheStats {
        each!(self, h => h.l2_stats())
    }

    fn events(&self) -> &HierarchyEvents {
        each!(self, h => h.events())
    }

    fn write_buffer_stats(&self) -> WriteBufferStats {
        each!(self, h => h.write_buffer_stats())
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        each!(self, h => h.check_invariants())
    }
}

/// Per-CPU hierarchies on one snooping bus, with the shared memory, the
/// coherence oracle and the bus counters. Slot `i` holds CPU `i`.
pub struct Machine {
    slots: Vec<Option<Box<Org>>>,
    /// The flat main memory behind the bus.
    pub memory: MainMemory,
    /// The sequentially-consistent reference every read is checked against.
    pub oracle: VersionOracle,
    /// Bus traffic counters.
    pub bus_stats: BusStats,
    subblocks: u32,
}
vrcache_mem::clone_fields!(Machine {
    slots,
    memory,
    oracle,
    bus_stats,
    subblocks,
});

impl Machine {
    /// A machine of `cpus` fresh hierarchies of organization `kind` under
    /// `cfg`, with pristine memory.
    pub fn new(kind: HierarchyKind, cpus: u16, cfg: &HierarchyConfig) -> Self {
        Machine {
            slots: (0..cpus)
                .map(|c| Some(Box::new(Org::new(kind, CpuId::new(c), cfg))))
                .collect(),
            memory: MainMemory::new(),
            oracle: VersionOracle::new(),
            bus_stats: BusStats::default(),
            subblocks: cfg.subblocks(),
        }
    }

    /// Number of processors.
    pub fn cpus(&self) -> usize {
        self.slots.len()
    }

    /// L1-sized granules per bus block.
    pub fn subblocks(&self) -> u32 {
        self.subblocks
    }

    /// Runs `f` on `cpu`'s hierarchy with a bus over every other
    /// hierarchy (reporting to `observer`, if any) and the oracle — the
    /// one take/put. `None` when `cpu` is out of range.
    #[inline]
    pub fn with_bus<R>(
        &mut self,
        cpu: CpuId,
        observer: Option<&mut dyn SnoopObserver>,
        f: impl FnOnce(&mut Org, &mut SnoopingBus<'_, Org>, &mut VersionOracle) -> R,
    ) -> Option<R> {
        let mut h = self.slots.get_mut(cpu.index())?.take()?;
        let mut bus = SnoopingBus::new(
            cpu,
            &mut self.slots,
            &mut self.memory,
            &mut self.bus_stats,
            self.subblocks,
        );
        if let Some(observer) = observer {
            bus = bus.with_observer(observer);
        }
        let result = f(&mut h, &mut bus, &mut self.oracle);
        self.slots[cpu.index()] = Some(h);
        Some(result)
    }

    /// One processor reference on the issuing CPU's hierarchy. `None`
    /// when the access names a CPU outside the machine.
    #[inline]
    pub fn access(
        &mut self,
        access: &MemAccess,
        observer: Option<&mut dyn SnoopObserver>,
    ) -> Option<Result<AccessOutcome, CoherenceViolation>> {
        self.with_bus(access.cpu, observer, |h, bus, oracle| {
            h.access(access, bus, oracle)
        })
    }

    /// Issues `request` on behalf of a non-processor `agent` (a DMA
    /// device): every hierarchy snoops it, as for a foreign processor.
    pub fn issue_as(&mut self, agent: CpuId, request: BusRequest) -> BusResponse {
        SnoopingBus::new(
            agent,
            &mut self.slots,
            &mut self.memory,
            &mut self.bus_stats,
            self.subblocks,
        )
        .issue(request)
    }

    /// Every hierarchy, in CPU order.
    pub fn iter(&self) -> impl Iterator<Item = &Org> + '_ {
        self.slots.iter().flatten().map(|h| &**h)
    }

    /// One processor's hierarchy, or `None` when `cpu` is out of range.
    pub fn get(&self, cpu: CpuId) -> Option<&Org> {
        self.slots.get(cpu.index())?.as_deref()
    }

    /// One processor's hierarchy, mutably.
    pub fn get_mut(&mut self, cpu: CpuId) -> Option<&mut Org> {
        self.slots.get_mut(cpu.index())?.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrcache::config::DataProtection;
    use vrcache_mem::access::AccessKind;
    use vrcache_mem::addr::{PhysAddr, VirtAddr};

    /// Reads eight lines, writing two of them first; every read is
    /// checked against the version oracle.
    fn replay(m: &mut Machine) {
        for (i, kind) in (0..10u64).map(|i| match i {
            0 | 1 => (i * 2, AccessKind::DataWrite),
            _ => (i - 2, AccessKind::DataRead),
        }) {
            let access = MemAccess {
                cpu: CpuId::new(0),
                asid: Asid::new(1),
                kind,
                vaddr: VirtAddr::new(0x1000 + i * 0x10),
                paddr: PhysAddr::new(0x9000 + i * 0x10),
            };
            let outcome = m.access(&access, None).expect("cpu 0 is present");
            outcome.expect("reads see the newest data");
        }
    }

    #[test]
    fn every_organization_scrubs_data_words_through_the_shared_path() {
        for dp in [DataProtection::Parity, DataProtection::Secded] {
            let cfg = HierarchyConfig::direct_mapped(256, 4096, 16)
                .unwrap()
                .with_data_protection(dp);
            for kind in [FaultKind::VDataBit, FaultKind::RDataBit] {
                for org in HierarchyKind::ALL {
                    let mut m = Machine::new(org, 1, &cfg);
                    replay(&mut m);
                    let h = m.get_mut(CpuId::new(0)).unwrap();
                    let Some(rec) = h.inject_fault(kind, 5) else {
                        assert_eq!((org.id(), kind), ("goodman", FaultKind::RDataBit));
                        continue;
                    };
                    assert_eq!(rec.kind, kind);
                    replay(&mut m);
                    let h = m.get(CpuId::new(0)).unwrap();
                    let ev = h.events();
                    let detected = ev.parity_refetches + ev.parity_machine_checks;
                    let case = format!("{} {kind} {dp:?}: {}", org.id(), rec.detail);
                    if dp == DataProtection::Secded {
                        assert_eq!((ev.secded_corrections, detected), (1, 0), "{case}");
                    } else {
                        assert_eq!((ev.secded_corrections, detected), (0, 1), "{case}");
                    }
                    h.check_invariants().expect(&case);
                }
            }
        }
    }
}
