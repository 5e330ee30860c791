//! The snooping bus: the one place a transaction leaves its issuing
//! hierarchy and visits everyone else.
//!
//! [`SnoopingBus`] is generic over the hierarchy type, so the
//! [`Machine`](crate::machine::Machine)'s [`Org`](crate::machine::Org)
//! slots and any other slice of boxed hierarchies ride the same bus
//! semantics; `Machine::with_bus` builds one per transaction. An
//! optional [`SnoopObserver`] sees every snoop delivery together with the
//! snooper's coherence standing *before* the transaction — exactly the
//! (state, bus event) pair of a protocol transition table, which is how
//! the model checker records which transitions a run actually exercised.

use vrcache::bus_api::{
    BusRequest, BusResponse, GranuleData, GranuleVersions, SnoopReply, SystemBus,
};
use vrcache::hierarchy::{BlockPresence, CacheHierarchy};
use vrcache_bus::memory::MainMemory;
use vrcache_bus::stats::BusStats;
use vrcache_bus::txn::{BusOp, BusTransaction};
use vrcache_cache::geometry::BlockId;
use vrcache_mem::access::CpuId;

/// Witness of every snoop the bus delivers.
///
/// `before` is the snooping hierarchy's [`BlockPresence`] on the
/// transaction's block sampled immediately before the snoop is serviced —
/// the row of the coherence transition table the snooper is about to take.
pub trait SnoopObserver {
    /// Called once per (transaction, snooping hierarchy) pair.
    fn on_snoop(
        &mut self,
        snooper: CpuId,
        before: BlockPresence,
        txn: &BusTransaction,
        reply: &SnoopReply,
    );

    /// Called once per transaction issued, before any snoop is delivered.
    fn on_issue(&mut self, source: CpuId, op: BusOp) {
        let _ = (source, op);
    }
}

/// The snooping-bus implementation handed to a hierarchy during an access:
/// it walks every *other* hierarchy and the shared memory. The issuer's
/// own slot in `others` is `None` for the duration (`Machine::with_bus`
/// lifts it out); a DMA agent's bus walks every slot.
pub struct SnoopingBus<'a, H: CacheHierarchy + ?Sized> {
    source: CpuId,
    others: &'a mut [Option<Box<H>>],
    memory: &'a mut MainMemory,
    stats: &'a mut BusStats,
    subblocks: u32,
    observer: Option<&'a mut dyn SnoopObserver>,
}

impl<'a, H: CacheHierarchy + ?Sized> SnoopingBus<'a, H> {
    /// Builds a bus for one transaction's lifetime.
    pub fn new(
        source: CpuId,
        others: &'a mut [Option<Box<H>>],
        memory: &'a mut MainMemory,
        stats: &'a mut BusStats,
        subblocks: u32,
    ) -> Self {
        SnoopingBus {
            source,
            others,
            memory,
            stats,
            subblocks,
            observer: None,
        }
    }

    /// Attaches a transition observer.
    #[must_use]
    pub fn with_observer(mut self, observer: &'a mut dyn SnoopObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Delivers `txn` to every other hierarchy, reporting whether any had
    /// a copy and what a dirty owner supplied.
    fn snoop_all(&mut self, txn: &BusTransaction) -> (bool, Option<GranuleData>) {
        let mut shared = false;
        let mut supplied: Option<GranuleData> = None;
        for h in self.others.iter_mut().flatten() {
            let reply = match self.observer.as_deref_mut() {
                // The presence probe walks the hierarchy: only an
                // observer needs it.
                Some(obs) => {
                    let before = h.coh_presence(txn.block);
                    let reply = h.snoop(txn);
                    obs.on_snoop(h.cpu(), before, txn, &reply);
                    reply
                }
                None => h.snoop(txn),
            };
            shared |= reply.has_copy;
            if let Some(s) = reply.supplied {
                debug_assert!(supplied.is_none(), "two owners supplied the same block");
                supplied = Some(s);
            }
        }
        (shared, supplied)
    }

    /// Fetch path shared by read-miss and read-modified-write.
    fn fetch(&mut self, op: BusOp, block: BlockId) -> BusResponse {
        let txn = BusTransaction::new(op, self.source, block);
        let (shared, supplied) = self.snoop_all(&txn);
        // A dirty owner updates memory as it supplies.
        if let Some(granules) = &supplied {
            for (g, v) in granules {
                self.memory.write(*g, *v);
            }
        }
        self.stats.record(op, supplied.is_some());
        let base = block.raw() * u64::from(self.subblocks);
        let granule_versions = (0..u64::from(self.subblocks))
            .map(|i| self.memory.read(BlockId::new(base + i)))
            .collect();
        BusResponse {
            shared_elsewhere: shared,
            granule_versions,
        }
    }
}

impl<H: CacheHierarchy + ?Sized> SystemBus for SnoopingBus<'_, H> {
    fn issue(&mut self, request: BusRequest) -> BusResponse {
        if let Some(obs) = self.observer.as_deref_mut() {
            let op = match &request {
                BusRequest::ReadMiss { .. } => BusOp::ReadMiss,
                BusRequest::ReadModifiedWrite { .. } => BusOp::ReadModifiedWrite,
                BusRequest::Invalidate { .. } => BusOp::Invalidate,
                BusRequest::WriteBack { .. } => BusOp::WriteBack,
                BusRequest::Update { .. } => BusOp::Update,
            };
            obs.on_issue(self.source, op);
        }
        match request {
            BusRequest::ReadMiss { block, .. } => self.fetch(BusOp::ReadMiss, block),
            BusRequest::ReadModifiedWrite { block, .. } => {
                self.fetch(BusOp::ReadModifiedWrite, block)
            }
            BusRequest::Invalidate { block } => {
                let txn = BusTransaction::new(BusOp::Invalidate, self.source, block);
                let _ = self.snoop_all(&txn);
                self.stats.record(BusOp::Invalidate, false);
                BusResponse::default()
            }
            BusRequest::WriteBack { block, granules } => {
                for (g, v) in granules {
                    self.memory.write(g, v);
                }
                self.stats.record(BusOp::WriteBack, false);
                let txn = BusTransaction::new(BusOp::WriteBack, self.source, block);
                let _ = self.snoop_all(&txn);
                BusResponse::default()
            }
            BusRequest::Update {
                block,
                granule,
                version,
            } => {
                let txn = BusTransaction::update(self.source, block, granule, version);
                let (shared, _) = self.snoop_all(&txn);
                self.stats.record(BusOp::Update, false);
                BusResponse {
                    shared_elsewhere: shared,
                    granule_versions: GranuleVersions::default(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::system::HierarchyKind;
    use vrcache::config::HierarchyConfig;
    use vrcache_mem::access::AccessKind;
    use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
    use vrcache_trace::record::MemAccess;

    struct Recorder(Vec<(CpuId, BlockPresence, BusOp)>);

    impl SnoopObserver for Recorder {
        fn on_snoop(
            &mut self,
            snooper: CpuId,
            before: BlockPresence,
            txn: &BusTransaction,
            _reply: &SnoopReply,
        ) {
            self.0.push((snooper, before, txn.op));
        }
    }

    #[test]
    fn observer_sees_pre_snoop_presence() {
        let cfg = HierarchyConfig::direct_mapped(256, 4096, 16).unwrap();
        let mut machine = Machine::new(HierarchyKind::Vr, 2, &cfg);
        let mut rec = Recorder(Vec::new());

        let access = |cpu: u16, kind: AccessKind| MemAccess {
            cpu: CpuId::new(cpu),
            asid: Asid::new(1),
            kind,
            vaddr: VirtAddr::new(0x1000),
            paddr: PhysAddr::new(0x9000),
        };

        // CPU 0 writes: CPU 1 is snooped while absent. Then CPU 1 reads
        // the same block: CPU 0 is snooped while private.
        for (cpu, kind) in [(0, AccessKind::DataWrite), (1, AccessKind::DataRead)] {
            machine
                .access(&access(cpu, kind), Some(&mut rec))
                .unwrap()
                .unwrap();
        }

        assert!(rec
            .0
            .iter()
            .any(|&(c, p, _)| c == CpuId::new(1) && p == BlockPresence::Absent));
        assert!(rec.0.iter().any(|&(c, p, o)| c == CpuId::new(0)
            && p == BlockPresence::Private
            && o == BusOp::ReadMiss));
    }
}
