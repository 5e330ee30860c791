//! A single-level dual-tag virtual cache — Goodman's scheme.
//!
//! The paper's introduction cites "dual tag sets, one virtual and one
//! physical, for each cache entry" (Goodman, ASPLOS-II 1987; also the VMP
//! design) as the existing way to build coherent virtual caches, and
//! footnote 1 positions the V-R organization as *moving Goodman's real
//! directory into the second-level cache*. This module implements the
//! single-level scheme so the comparison can be measured rather than
//! asserted:
//!
//! * one virtually-indexed cache per processor, each line carrying both a
//!   virtual tag (the lookup key) and a physical tag (the *real
//!   directory*, mirrored here as a reverse index with the state bits),
//! * the real directory snoops the bus and detects synonyms without
//!   disturbing the virtual side unless an invalidation or flush is truly
//!   required,
//! * **no second level**: every miss is a bus transaction and every dirty
//!   eviction a memory write-back — the memory-traffic and miss-latency
//!   shortcoming the two-level organization fixes.
//!
//! Context switches use the same swapped-valid trick as the V-cache (the
//! kindest possible reading of the single-level scheme), so the measured
//! differences are attributable to the missing second level, not to a
//! strawman flush policy.

use vrcache_bus::oracle::{CoherenceViolation, Version, VersionOracle};
use vrcache_bus::txn::{BusOp, BusTransaction};
use vrcache_cache::geometry::{BlockId, BlockMap, BlockRun, CacheGeometry};
use vrcache_cache::stats::CacheStats;
use vrcache_cache::write_buffer::WriteBufferStats;
use vrcache_mem::access::CpuId;
use vrcache_mem::addr::{Asid, Vpn};
use vrcache_mem::tlb::Tlb;
use vrcache_trace::record::MemAccess;

use crate::bus_api::{BusRequest, GranuleData, SnoopReply, SystemBus};
use crate::config::HierarchyConfig;
use crate::events::HierarchyEvents;
use crate::fault::{
    self, FaultKind, FaultPort, FaultRecord, Poison, Protection, Scrub, ScrubParts,
};
use crate::hierarchy::{AccessOutcome, BlockPresence, CacheHierarchy, SynonymKind};
use crate::inline::InlineVec;
use crate::invariant::{InvariantExpect, InvariantViolation};
use crate::rcache::ChildCache;
use crate::vcache::{VCache, VMeta};

/// Goodman-style single-level dual-tag virtual cache.
///
/// Uses the `l1` geometry of its [`HierarchyConfig`]; the `l2` geometry
/// only defines the bus transaction granularity (shared with the other
/// organizations on the same bus).
#[derive(Debug)]
pub struct GoodmanHierarchy {
    cpu: CpuId,
    l1: VCache,
    /// The real directory: physical granule -> virtual block of the (sole)
    /// cached copy, and whether it is held private (exclusive). In
    /// hardware this is the second, physical tag store with its state
    /// bits.
    directory: BlockMap<(BlockId, bool)>,
    tlb: Tlb,
    events: HierarchyEvents,
    granule_geo: CacheGeometry,
    bus_geo: CacheGeometry,
    page: vrcache_mem::page::PageSize,
    refs: u64,
    last_wb_at: Option<u64>,
    /// Modeled parity (dual tag stores, TLB) and data protection, with
    /// outstanding syndromes.
    protection: Protection,
}
vrcache_mem::clone_fields!(GoodmanHierarchy {
    cpu,
    l1,
    directory,
    tlb,
    events,
    granule_geo,
    bus_geo,
    page,
    refs,
    last_wb_at,
    protection,
});

impl GoodmanHierarchy {
    /// Builds the single-level hierarchy for `cpu`.
    ///
    /// # Panics
    ///
    /// Panics for configurations the single-level scheme does not model
    /// (split or write-through first level, non-default context-switch
    /// policies) — it always uses a unified write-back cache with the
    /// swapped-valid switch handling, the kindest reading of the scheme.
    pub fn new(cpu: CpuId, cfg: &HierarchyConfig) -> Self {
        assert_eq!(
            cfg.l1_org,
            crate::config::L1Organization::Unified,
            "the single-level scheme models a unified cache"
        );
        assert_eq!(
            cfg.l1_write_policy,
            crate::config::L1WritePolicy::WriteBack,
            "the single-level scheme models a write-back cache"
        );
        assert_eq!(
            cfg.context_switch_policy,
            crate::config::ContextSwitchPolicy::SwappedValid,
            "the single-level scheme uses swapped-valid switch handling"
        );
        assert_eq!(
            cfg.protocol,
            crate::config::CoherenceProtocol::Invalidation,
            "the single-level scheme implements the invalidation protocol only"
        );
        GoodmanHierarchy {
            cpu,
            l1: VCache::new(cfg.l1, cfg.l1_policy, cfg.seed ^ 0x9),
            // Sized for a full cache, so no insert ever grows it.
            directory: BlockMap::with_capacity_and_hasher(
                cfg.l1.blocks() as usize,
                Default::default(),
            ),
            tlb: Tlb::new(cfg.tlb),
            events: HierarchyEvents::default(),
            granule_geo: cfg.l1,
            bus_geo: cfg.l2,
            page: cfg.page,
            refs: 0,
            last_wb_at: None,
            protection: Protection::new(cfg),
        }
    }

    /// The cache.
    pub fn cache(&self) -> &VCache {
        &self.l1
    }

    /// Whether the real directory holds exclusive write permission for
    /// `granule` (first-level physical block). Observational — exposed for
    /// state snapshots in the model checker.
    pub fn granule_private(&self, granule: BlockId) -> bool {
        self.directory
            .get(&granule)
            .is_some_and(|&(_, private)| private)
    }

    /// Every entry of the real directory as `(granule, virtual block,
    /// private)`, in no particular order. Observational, like
    /// [`GoodmanHierarchy::granule_private`].
    pub fn directory(&self) -> impl Iterator<Item = (BlockId, BlockId, bool)> + '_ {
        self.directory
            .iter()
            .map(|(&granule, &(v_block, private))| (granule, v_block, private))
    }

    /// Mutable access to the TLB, the event counters and the cache, for
    /// tests that perturb a hierarchy's state directly (what a model
    /// checker's state key may leave out). Nothing keeps the invariants
    /// across such an edit.
    pub fn parts_mut(&mut self) -> (&mut Tlb, &mut HierarchyEvents, &mut VCache) {
        (&mut self.tlb, &mut self.events, &mut self.l1)
    }

    fn bus_block_of(&self, p1: BlockId) -> BlockId {
        self.granule_geo.block_in(p1, &self.bus_geo)
    }

    fn granules_of(&self, bus_block: BlockId) -> BlockRun {
        self.bus_geo.subblocks_of(&self.granule_geo, bus_block)
    }

    fn subblocks(&self) -> u32 {
        self.bus_geo.subblocks_per_block(&self.granule_geo)
    }

    /// Retires an evicted line: dirty data goes straight to memory (there
    /// is no second level to absorb it).
    fn retire(&mut self, line: vrcache_cache::array::Line<VMeta>, bus: &mut dyn SystemBus) {
        let p1 = line.meta.p_block;
        self.directory.remove(&p1);
        if line.meta.dirty {
            self.events.l1_writebacks += 1;
            self.events
                .writeback_intervals
                .note_event_at(&mut self.last_wb_at, self.refs);
            if line.meta.swapped {
                self.events.swapped_writebacks += 1;
            }
            bus.issue(BusRequest::WriteBack {
                block: self.bus_block_of(p1),
                granules: [(p1, line.meta.version)].into_iter().collect(),
            });
        }
    }

    fn obtain_write_permission(&mut self, p1: BlockId, bus: &mut dyn SystemBus) {
        if !self.granule_private(p1) {
            bus.issue(BusRequest::Invalidate {
                block: self.bus_block_of(p1),
            });
            if let Some(entry) = self.directory.get_mut(&p1) {
                entry.1 = true;
            }
        }
    }
}

// ---- modeled parity: the single-level recovery policy and fault port ----
impl Scrub for GoodmanHierarchy {
    fn scrub_parts(&mut self) -> ScrubParts<'_> {
        // No second level, and no write buffer: no injection ever
        // records an L2-data or write-buffer syndrome here.
        ScrubParts {
            protection: &mut self.protection,
            tlb: &mut self.tlb,
            events: &mut self.events,
            l2: None,
        }
    }

    /// Recovers a poisoned cache line: both tag stores must agree, so the
    /// line and its real-directory entry are discarded together.
    fn scrub_l1_line(&mut self, kind: FaultKind, _child: ChildCache, key: BlockId) {
        let Some(line) = self.l1.invalidate(key) else {
            self.events.parity_refetches += 1;
            return;
        };
        self.directory.remove(&line.meta.p_block);
        if matches!(kind, FaultKind::VTagFlip | FaultKind::VDataBit) && !line.meta.dirty {
            self.events.parity_refetches += 1;
        } else {
            self.events.parity_machine_checks += 1;
        }
    }

    /// The real directory's state bit for `granule` faulted: demoting to
    /// shared is always safe (the next write re-arbitrates for
    /// exclusivity over the bus).
    fn scrub_l2_line(&mut self, _kind: FaultKind, granule: BlockId) {
        if let Some(entry) = self.directory.get_mut(&granule) {
            entry.1 = false;
        }
        self.events.parity_refetches += 1;
    }

    fn l1_word(&mut self, _child: ChildCache, key: BlockId) -> Option<&mut Version> {
        Some(&mut self.l1.peek_mut(key)?.meta.version)
    }
}

impl FaultPort for GoodmanHierarchy {
    fn inject_fault(&mut self, kind: FaultKind, seed: u64) -> Option<FaultRecord> {
        let prot = &mut self.protection;
        match kind {
            FaultKind::VTagFlip => prot.inject_tag_flip(self.l1.array_mut(), seed, "line"),
            FaultKind::VStateFlip => prot.inject_state_flip(self.l1.array_mut(), seed, "line"),
            FaultKind::RPointerFlip => {
                // The real directory entry (physical tag) faults: it now
                // points at a virtual block that holds no such line.
                let key = fault::pick_line(self.l1.iter(), seed)?;
                let p_block = self.l1.peek(key)?.meta.p_block;
                let wrong = fault::flip_tag_bit(key, self.l1.geometry().set_bits());
                self.directory.entry(p_block).or_insert((wrong, false)).0 = wrong;
                // Parity on the physical tag store names the entry; the
                // line it should point at is recovered through it.
                prot.record_meta(Poison::L1Line {
                    kind,
                    child: ChildCache::Data,
                    key,
                });
                Some(FaultRecord {
                    kind,
                    detail: format!("real directory {p_block} -> {wrong} (was {key})"),
                })
            }
            FaultKind::CohStateFlip => {
                // Prefer granting bogus exclusivity (shared -> private):
                // the demotion direction only costs a redundant upgrade.
                let directory = &mut self.directory;
                let candidates = self.l1.iter().map(|l| {
                    let shared = !directory.get(&l.meta.p_block).is_some_and(|e| e.1);
                    ((l.block, l.meta.p_block), shared)
                });
                let (key, granule) = fault::pick_preferring(candidates, seed)?;
                let old = directory.get(&granule).is_some_and(|e| e.1);
                if let Some(entry) = directory.get_mut(&granule) {
                    entry.1 = !old;
                }
                prot.record_meta(Poison::L2Line { kind, p2: granule });
                Some(FaultRecord {
                    kind,
                    detail: format!("line {key} granule {granule} private {old} -> {}", !old),
                })
            }
            FaultKind::TlbEntryFlip => prot.inject_tlb_flip(&mut self.tlb, seed),
            FaultKind::VDataBit => prot.inject_data_bit(self.l1.array_mut(), seed, "line"),
            // No second level, no subentries, no write buffer — and no
            // second-level data array for RDataBit to hit.
            FaultKind::RInclusionFlip
            | FaultKind::RBufferFlip
            | FaultKind::RVdirtyFlip
            | FaultKind::VPointerFlip
            | FaultKind::WriteBufferDrop
            | FaultKind::RDataBit
            | FaultKind::BusDropTxn
            | FaultKind::BusDuplicateTxn
            | FaultKind::BusLostInvalidate => None,
        }
    }
}

impl CacheHierarchy for GoodmanHierarchy {
    fn access(
        &mut self,
        access: &MemAccess,
        bus: &mut dyn SystemBus,
        oracle: &mut VersionOracle,
    ) -> Result<AccessOutcome, CoherenceViolation> {
        debug_assert_eq!(access.cpu, self.cpu);
        self.scrub_poison();
        self.refs += 1;
        let vblock = self.granule_geo.vblock_of(access.vaddr);
        let p1 = self.granule_geo.pblock_of(access.paddr);

        // ---- virtual-tag lookup ----
        if let Some(meta) = self.l1.lookup(vblock).map(|l| l.meta) {
            debug_assert_eq!(meta.p_block, p1, "stale virtual mapping");
            self.l1.stats_mut().record(access.kind, true);
            if access.kind.is_write() {
                if !meta.dirty {
                    self.obtain_write_permission(p1, bus);
                }
                let v = oracle.on_write(self.cpu, p1);
                let line = self.l1.peek_mut(vblock).invariant_expect("just hit");
                line.meta.dirty = true;
                line.meta.version = v;
            } else {
                oracle.check_read(self.cpu, p1, meta.version)?;
            }
            return Ok(AccessOutcome::hit_l1());
        }
        self.l1.stats_mut().record(access.kind, false);

        // Translation (needed on every miss; Goodman also keeps the TLB off
        // the hit path).
        let vpn = self.page.vpn_of(access.vaddr);
        let ppn = self.page.ppn_of(access.paddr);
        let tlb_hit = self.tlb.translate(access.asid, vpn, ppn);
        self.events.tlb_misses += u64::from(!tlb_hit);

        if let Some(sw) = self.l1.take_swapped(vblock) {
            self.retire(sw, bus);
        }

        // ---- real-directory lookup: synonym? ----
        let synonym = if let Some(&(old_vblock, private)) = self.directory.get(&p1) {
            let same_set =
                self.l1.geometry().set_of(old_vblock) == self.l1.geometry().set_of(vblock);
            let old = self
                .l1
                .invalidate(old_vblock)
                .invariant_expect("real directory points at a resident line");
            debug_assert_eq!(old.meta.p_block, p1);
            let out = self.l1.fill(
                vblock,
                VMeta {
                    p_block: p1,
                    dirty: old.meta.dirty,
                    swapped: false,
                    version: old.meta.version,
                },
            );
            if let Some(victim) = out.evicted {
                self.retire(victim, bus);
            }
            self.directory.insert(p1, (vblock, private));
            if same_set {
                self.events.synonym_sameset += 1;
                Some(SynonymKind::SameSet)
            } else {
                self.events.synonym_move += 1;
                Some(SynonymKind::Move)
            }
        } else {
            // ---- true miss: fetch over the bus (no second level) ----
            let request = if access.kind.is_write() {
                BusRequest::ReadModifiedWrite {
                    block: self.bus_block_of(p1),
                    subblocks: self.subblocks(),
                }
            } else {
                BusRequest::ReadMiss {
                    block: self.bus_block_of(p1),
                    subblocks: self.subblocks(),
                }
            };
            let resp = bus.issue(request);
            let si = self.bus_geo.subblock_index(&self.granule_geo, p1) as usize;
            let version = resp.granule_versions[si];
            let private = access.kind.is_write() || !resp.shared_elsewhere;
            let out = self.l1.fill(
                vblock,
                VMeta {
                    p_block: p1,
                    dirty: false,
                    swapped: false,
                    version,
                },
            );
            if let Some(victim) = out.evicted {
                self.retire(victim, bus);
            }
            self.directory.insert(p1, (vblock, private));
            None
        };

        if access.kind.is_write() {
            if synonym.is_some() {
                self.obtain_write_permission(p1, bus);
            }
            let v = oracle.on_write(self.cpu, p1);
            let line = self.l1.peek_mut(vblock).invariant_expect("just installed");
            line.meta.dirty = true;
            line.meta.version = v;
        } else {
            let version = self
                .l1
                .peek(vblock)
                .invariant_expect("just installed")
                .meta
                .version;
            oracle.check_read(self.cpu, p1, version)?;
        }

        Ok(AccessOutcome {
            l1_hit: false,
            l2_hit: Some(false), // there is no second level to hit
            synonym,
            tlb_hit: Some(tlb_hit),
        })
    }

    fn context_switch(&mut self, _from: Asid, _to: Asid) {
        self.scrub_poison();
        self.events.context_switches += 1;
        self.events.lines_swapped += self.l1.mark_all_swapped();
    }

    fn tlb_shootdown(&mut self, asid: Asid, vpn: Vpn, bus: &mut dyn SystemBus) -> u32 {
        self.scrub_poison();
        self.tlb.flush_asid_vpn(asid, vpn);
        // Without a second level, the shot-down page's dirty lines must be
        // written back to memory over the bus.
        // Only the resident lines of the page are visited, in ascending
        // block order.
        let blocks_per_page = self.page.bytes() / self.granule_geo.block_bytes();
        let first_vblock = vpn.raw() * blocks_per_page;
        let mut doomed: InlineVec<BlockId, 8> = self
            .l1
            .iter()
            .map(|line| line.block)
            .filter(|block| {
                block
                    .raw()
                    .checked_sub(first_vblock)
                    .is_some_and(|i| i < blocks_per_page)
            })
            .collect();
        doomed.sort_unstable();
        for &key in &doomed {
            let line = self
                .l1
                .invalidate(key)
                .invariant_expect("a listed line is resident");
            self.retire(line, bus);
        }
        doomed.len() as u32
    }

    fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
        debug_assert_ne!(txn.source, self.cpu);
        self.scrub_poison();
        let mut reply = SnoopReply::default();
        if txn.op == BusOp::WriteBack {
            return reply;
        }
        if txn.op == BusOp::Update {
            debug_assert!(false, "update protocol is a V-R-only configuration");
            return reply;
        }
        let granules = self.granules_of(txn.block);
        let mut supplied = GranuleData::default();
        for g in granules {
            let Some(&(vblock, _)) = self.directory.get(&g) else {
                continue;
            };
            reply.has_copy = true;
            match txn.op {
                BusOp::ReadMiss => {
                    self.directory.insert(g, (vblock, false));
                    let line = self
                        .l1
                        .peek_mut(vblock)
                        .invariant_expect("real directory points at a resident line");
                    if line.meta.dirty {
                        // flush(v): the only time the virtual side is
                        // disturbed by a read.
                        self.events.flush_v += 1;
                        reply.l1_messages += 1;
                        line.meta.dirty = false;
                        supplied.push((g, line.meta.version));
                    }
                }
                BusOp::Invalidate | BusOp::ReadModifiedWrite => {
                    // RMW is read + invalidate; supply dirty data first.
                    let line = self
                        .l1
                        .invalidate(vblock)
                        .invariant_expect("real directory points at a resident line");
                    if txn.op == BusOp::ReadModifiedWrite && line.meta.dirty {
                        self.events.flush_v += 1;
                        reply.l1_messages += 1;
                        supplied.push((g, line.meta.version));
                    }
                    self.events.inval_v += 1;
                    reply.l1_messages += 1;
                    self.directory.remove(&g);
                }
                BusOp::WriteBack | BusOp::Update => unreachable!("handled above"),
            }
        }
        if !supplied.is_empty() {
            reply.supplied = Some(supplied);
        }
        reply
    }

    fn coh_presence(&self, block: BlockId) -> BlockPresence {
        // The real directory tracks granules; summarise at the bus-block
        // granularity the snooper sees: exclusive if any granule is held
        // private, present if any granule is cached at all.
        let mut present = false;
        for g in self.granules_of(block) {
            match self.directory.get(&g) {
                Some((_, true)) => return BlockPresence::Private,
                Some(_) => present = true,
                None => {}
            }
        }
        if present {
            BlockPresence::Shared
        } else {
            BlockPresence::Absent
        }
    }

    fn cpu(&self) -> CpuId {
        self.cpu
    }

    fn l1_stats(&self) -> CacheStats {
        *self.l1.stats()
    }

    fn l1_split_stats(&self) -> Option<(CacheStats, CacheStats)> {
        None
    }

    fn l2_stats(&self) -> CacheStats {
        // No second level: zero lookups (hit_ratio() reports 1.0 on an
        // empty record; the h2 term of the access-time equation is moot
        // because every L1 miss pays the memory latency).
        CacheStats::default()
    }

    fn events(&self) -> &HierarchyEvents {
        &self.events
    }

    fn write_buffer_stats(&self) -> WriteBufferStats {
        WriteBufferStats::default()
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        // The real directory and the virtual tags must be a bijection.
        for line in self.l1.iter() {
            match self.directory.get(&line.meta.p_block) {
                Some((v, _)) if *v == line.block => {}
                Some((v, _)) => {
                    return Err(InvariantViolation::other(format!(
                        "real directory maps {:?} to {:?}, cache holds it at {:?}",
                        line.meta.p_block, v, line.block
                    )));
                }
                None => {
                    return Err(InvariantViolation::other(format!(
                        "cached block {:?} missing from the real directory",
                        line.meta.p_block
                    )));
                }
            }
        }
        if self.directory.len() != self.l1.occupancy() {
            return Err(InvariantViolation::other(format!(
                "real directory has {} entries for {} cached lines",
                self.directory.len(),
                self.l1.occupancy()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::LoopbackBus;
    use vrcache_mem::access::AccessKind;
    use vrcache_mem::addr::{PhysAddr, VirtAddr};

    fn cfg() -> HierarchyConfig {
        HierarchyConfig::direct_mapped(256, 4096, 16).unwrap()
    }

    struct Rig {
        h: GoodmanHierarchy,
        bus: LoopbackBus,
        oracle: VersionOracle,
    }

    impl Rig {
        fn new() -> Rig {
            Rig::with(&cfg())
        }

        fn with(cfg: &HierarchyConfig) -> Rig {
            Rig {
                h: GoodmanHierarchy::new(CpuId::new(0), cfg),
                bus: LoopbackBus::new(),
                oracle: VersionOracle::new(),
            }
        }

        fn go(&mut self, kind: AccessKind, va: u64, pa: u64) -> AccessOutcome {
            let out = self
                .h
                .access(
                    &MemAccess {
                        cpu: CpuId::new(0),
                        asid: Asid::new(1),
                        kind,
                        vaddr: VirtAddr::new(va),
                        paddr: PhysAddr::new(pa),
                    },
                    &mut self.bus,
                    &mut self.oracle,
                )
                .unwrap();
            self.h.check_invariants().unwrap();
            out
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut r = Rig::new();
        let out = r.go(AccessKind::DataRead, 0x1000, 0x9000);
        assert!(!out.l1_hit);
        assert_eq!(out.l2_hit, Some(false), "no second level exists");
        assert!(r.go(AccessKind::DataRead, 0x1000, 0x9000).l1_hit);
    }

    #[test]
    fn granule_private_tracks_write_permission() {
        let mut r = Rig::new();
        let g = cfg().l1.block_of(0x9000);
        assert!(!r.h.granule_private(g), "nothing is cached yet");
        r.go(AccessKind::DataWrite, 0x1000, 0x9000);
        assert!(
            r.h.granule_private(g),
            "a completed write holds exclusive permission"
        );
    }

    #[test]
    fn rmw_snoop_supplies_dirty_data_and_invalidate_does_not() {
        // Read-modified-write is read + invalidate: the dirty copy must be
        // flushed onto the bus before the invalidation takes it. A plain
        // invalidation only targets clean copies and supplies nothing.
        let mut r = Rig::new();
        r.go(AccessKind::DataWrite, 0x1000, 0x9000);
        let bus_block = r.h.bus_block_of(cfg().l1.block_of(0x9000));
        let reply = r.h.snoop(&BusTransaction::new(
            BusOp::ReadModifiedWrite,
            CpuId::new(1),
            bus_block,
        ));
        assert!(reply.has_copy);
        assert!(reply.supplied.is_some(), "dirty data rides the RMW reply");
        assert_eq!(r.h.events().flush_v, 1);
        assert_eq!(r.h.events().inval_v, 1);

        let mut r = Rig::new();
        r.go(AccessKind::DataWrite, 0x1000, 0x9000);
        let reply = r.h.snoop(&BusTransaction::new(
            BusOp::Invalidate,
            CpuId::new(1),
            bus_block,
        ));
        assert!(reply.has_copy);
        assert!(
            reply.supplied.is_none(),
            "an invalidation drops the data without supplying it"
        );
        assert_eq!(r.h.events().flush_v, 0);
        assert_eq!(r.h.events().inval_v, 1);
    }

    #[test]
    fn synonym_kind_distinguishes_same_set_from_move() {
        let mut r = Rig::new();
        // Blocks 0x100 and 0x200 both land in set 0 of the 16-set array.
        r.go(AccessKind::DataRead, 0x1000, 0x9000);
        let out = r.go(AccessKind::DataRead, 0x2000, 0x9000);
        assert_eq!(out.synonym, Some(SynonymKind::SameSet));
        assert_eq!(r.h.events().synonym_sameset, 1);
        assert_eq!(r.h.events().synonym_move, 0);

        // Blocks 0x101 (set 1) and 0x202 (set 2): the copy must move.
        r.go(AccessKind::DataRead, 0x1010, 0x9010);
        let out = r.go(AccessKind::DataRead, 0x2020, 0x9010);
        assert_eq!(out.synonym, Some(SynonymKind::Move));
        assert_eq!(r.h.events().synonym_move, 1);
    }

    #[test]
    fn synonym_resolution_installs_a_visible_line() {
        let mut r = Rig::new();
        r.go(AccessKind::DataWrite, 0x1000, 0x9000);
        assert!(r.go(AccessKind::DataRead, 0x2000, 0x9000).synonym.is_some());
        // The re-installed line is live, not swapped: the very next access
        // under the new name must hit without touching the bus.
        assert!(r.go(AccessKind::DataRead, 0x2000, 0x9000).l1_hit);
    }

    #[test]
    fn shootdown_retires_both_ends_of_the_page() {
        let mut r = Rig::new();
        // First and last block of the 4 KiB page at vpn 1 — the boundary
        // cases of the retirement walk.
        r.go(AccessKind::DataRead, 0x1000, 0x9000);
        r.go(AccessKind::DataRead, 0x1ff0, 0x9ff0);
        let vpn = r.h.page.vpn_of(VirtAddr::new(0x1000));
        let disturbed = r.h.tlb_shootdown(Asid::new(1), vpn, &mut r.bus);
        assert_eq!(disturbed, 2, "page-edge blocks must both be retired");
    }

    /// A loopback bus that logs every written-back granule in order.
    #[derive(Default)]
    struct LoggingBus {
        inner: LoopbackBus,
        written: Vec<BlockId>,
    }

    impl SystemBus for LoggingBus {
        fn issue(&mut self, request: BusRequest) -> crate::bus_api::BusResponse {
            if let BusRequest::WriteBack { granules, .. } = &request {
                self.written.extend(granules.iter().map(|&(g, _)| g));
            }
            self.inner.issue(request)
        }
    }

    /// The page walk as it was before it visited only resident lines:
    /// probe every block of the page in ascending order. The reference
    /// the resident-line walk must match.
    fn probe_walk(h: &mut GoodmanHierarchy, asid: Asid, vpn: Vpn, bus: &mut LoggingBus) -> u32 {
        h.scrub_poison();
        h.tlb.flush_asid_vpn(asid, vpn);
        let blocks_per_page = h.page.bytes() / h.granule_geo.block_bytes();
        let first_vblock = vpn.raw() * blocks_per_page;
        let mut disturbed = 0;
        for i in 0..blocks_per_page {
            if let Some(line) = h.l1.invalidate(BlockId::new(first_vblock + i)) {
                disturbed += 1;
                h.retire(line, bus);
            }
        }
        disturbed
    }

    #[test]
    fn shootdown_walk_removes_exactly_the_page_in_block_order() {
        // Fully associative, so nothing below is evicted before the
        // shootdown; the page's lines are filled last-block first, so a
        // walk in fill order would write back out of block order.
        let l1 = CacheGeometry::new(256, 16, 16).unwrap();
        let l2 = CacheGeometry::direct_mapped(4096, 16).unwrap();
        let cfg = HierarchyConfig::new(l1, l2, vrcache_mem::page::PageSize::SIZE_4K).unwrap();
        let mut r = Rig::with(&cfg);
        r.go(AccessKind::DataWrite, 0x1ff0, 0x9050); // last block
        r.go(AccessKind::DataRead, 0x1fe0, 0x9040);
        r.go(AccessKind::DataWrite, 0x2000, 0x9060); // next page
        r.go(AccessKind::DataWrite, 0x1010, 0x9030);
        r.go(AccessKind::DataWrite, 0x1000, 0x9020); // first block
        r.go(AccessKind::DataWrite, 0x0ff0, 0x9010); // previous page

        let asid = Asid::new(1);
        let vpn = r.h.page.vpn_of(VirtAddr::new(0x1000));
        let mut reference = r.h.clone();
        let mut reference_bus = LoggingBus::default();
        let expected = probe_walk(&mut reference, asid, vpn, &mut reference_bus);
        let mut bus = LoggingBus::default();
        let disturbed = r.h.tlb_shootdown(asid, vpn, &mut bus);
        r.h.check_invariants().unwrap();

        assert_eq!(disturbed, 4);
        assert_eq!(disturbed, expected);
        assert_eq!(
            bus.written,
            vec![
                l1.block_of(0x9020),
                l1.block_of(0x9030),
                l1.block_of(0x9050)
            ],
            "dirty lines write back in ascending block order"
        );
        assert_eq!(bus.written, reference_bus.written);
        assert_eq!(format!("{:?}", r.h), format!("{reference:?}"));
        let mut resident: Vec<BlockId> = r.h.l1.iter().map(|l| l.block).collect();
        resident.sort_unstable();
        assert_eq!(resident, vec![l1.block_of(0x0ff0), l1.block_of(0x2000)]);
    }

    #[test]
    fn only_swapped_lines_count_as_swapped_writebacks() {
        let mut r = Rig::new();
        r.go(AccessKind::DataWrite, 0x1000, 0x9000);
        // Same-set conflict evicts the dirty line while it is still live.
        r.go(AccessKind::DataRead, 0x1100, 0xa100);
        assert_eq!(r.h.events().l1_writebacks, 1);
        assert_eq!(
            r.h.events().swapped_writebacks,
            0,
            "a live dirty eviction is an ordinary write-back"
        );
        r.go(AccessKind::DataWrite, 0x1100, 0xa100);
        r.h.context_switch(Asid::new(1), Asid::new(2));
        // The marked line is invisible now; re-touching it retires the
        // swapped dirty copy first.
        r.go(AccessKind::DataRead, 0x1100, 0xa100);
        assert_eq!(r.h.events().l1_writebacks, 2);
        assert_eq!(r.h.events().swapped_writebacks, 1);
    }

    #[test]
    fn real_directory_resolves_synonyms_locally() {
        let mut r = Rig::new();
        r.go(AccessKind::DataWrite, 0x1000, 0x9000);
        let fetches_before = r.bus.stats().total();
        let out = r.go(AccessKind::DataRead, 0x2000, 0x9000);
        assert!(out.synonym.is_some());
        assert_eq!(
            r.bus.stats().total(),
            fetches_before,
            "synonym resolution must not touch the bus"
        );
        // Single copy rule.
        assert!(!r.go(AccessKind::DataRead, 0x1000, 0x9000).l1_hit);
    }

    #[test]
    fn dirty_eviction_writes_straight_to_memory() {
        let mut r = Rig::new();
        r.go(AccessKind::DataWrite, 0x1000, 0x9000);
        r.go(AccessKind::DataRead, 0x1100, 0x9100); // same set, evicts
        assert_eq!(r.h.events().l1_writebacks, 1);
        assert_eq!(r.bus.stats().count(BusOp::WriteBack), 1);
        // Data survives in memory.
        let out = r.go(AccessKind::DataRead, 0x1000, 0x9000);
        assert!(!out.l1_hit);
    }

    #[test]
    fn context_switch_swaps_lines() {
        let mut r = Rig::new();
        r.go(AccessKind::DataWrite, 0x1000, 0x9000);
        r.h.context_switch(Asid::new(1), Asid::new(2));
        assert_eq!(r.h.events().lines_swapped, 1);
        let out = r.go(AccessKind::DataRead, 0x1000, 0x9000);
        assert!(!out.l1_hit, "swapped lines invisible");
    }

    // ---- fault injection, parity detection and recovery ----

    fn parity_rig() -> Rig {
        Rig {
            h: GoodmanHierarchy::new(CpuId::new(0), &cfg().with_parity()),
            bus: LoopbackBus::new(),
            oracle: VersionOracle::new(),
        }
    }

    fn warm(r: &mut Rig) {
        for i in 0..6u64 {
            r.go(AccessKind::DataRead, 0x1000 + i * 0x10, 0x9000 + i * 0x10);
        }
    }

    #[test]
    fn clean_tag_flip_refetches_and_directory_stays_bijective() {
        let mut r = parity_rig();
        warm(&mut r);
        let rec = r.h.inject_fault(FaultKind::VTagFlip, 1).expect("target");
        assert_eq!(rec.kind, FaultKind::VTagFlip);
        r.go(AccessKind::DataRead, 0x1080, 0x9080);
        assert_eq!(r.h.events().parity_refetches, 1);
        r.h.check_invariants().unwrap();
    }

    #[test]
    fn real_directory_pointer_flip_machine_checks() {
        let mut r = parity_rig();
        warm(&mut r);
        r.h.inject_fault(FaultKind::RPointerFlip, 2)
            .expect("target");
        r.go(AccessKind::DataRead, 0x1080, 0x9080);
        assert_eq!(r.h.events().parity_machine_checks, 1);
        r.h.check_invariants().unwrap();
    }

    #[test]
    fn coh_state_flip_demotes_to_shared() {
        let mut r = parity_rig();
        r.go(AccessKind::DataWrite, 0x1000, 0x9000);
        let g = cfg().l1.block_of(0x9000);
        assert!(r.h.granule_private(g));
        r.h.inject_fault(FaultKind::CohStateFlip, 0)
            .expect("target");
        r.go(AccessKind::DataRead, 0x1080, 0x9080);
        assert_eq!(r.h.events().parity_refetches, 1);
        assert!(!r.h.granule_private(g), "recovery demotes to shared");
        r.h.check_invariants().unwrap();
    }

    #[test]
    fn coh_state_flip_prefers_granting_exclusivity() {
        // Three private lines; a foreign read demotes the middle one.
        let mut r = parity_rig();
        for i in 0..3u64 {
            r.go(AccessKind::DataRead, 0x1000 + i * 0x10, 0x9000 + i * 0x10);
        }
        let g = cfg().l1.block_of(0x9010);
        let block = r.h.bus_block_of(g);
        r.h.snoop(&BusTransaction::new(BusOp::ReadMiss, CpuId::new(1), block));
        assert!(!r.h.granule_private(g));
        for seed in 0..3 {
            let mut h = r.h.clone();
            let rec = h
                .inject_fault(FaultKind::CohStateFlip, seed)
                .expect("target");
            assert!(
                rec.detail.ends_with("private false -> true"),
                "{}",
                rec.detail
            );
            assert!(h.granule_private(g), "seed {seed} flips the shared line");
        }
    }

    #[test]
    fn tlb_flip_recovers_by_rewalk() {
        let mut r = parity_rig();
        warm(&mut r);
        r.h.inject_fault(FaultKind::TlbEntryFlip, 0)
            .expect("target");
        r.go(AccessKind::DataRead, 0x1080, 0x9080);
        assert_eq!(r.h.events().parity_refetches, 1);
        r.h.check_invariants().unwrap();
    }

    #[test]
    fn structure_less_kinds_have_no_target() {
        let mut r = parity_rig();
        warm(&mut r);
        for kind in [
            FaultKind::RInclusionFlip,
            FaultKind::RBufferFlip,
            FaultKind::RVdirtyFlip,
            FaultKind::VPointerFlip,
            FaultKind::WriteBufferDrop,
            FaultKind::BusDropTxn,
        ] {
            assert!(r.h.inject_fault(kind, 0).is_none(), "{kind}");
        }
    }
}
