//! The two-level virtual-real hierarchy — the paper's Section 3 algorithm.
//!
//! One [`VrHierarchy`] models the private cache hierarchy of one processor:
//! a virtually-addressed first level (unified, or split I/D), a write-back
//! buffer, a physically-addressed second level holding the reverse
//! translation state, and a second-level TLB. The implementation follows
//! the paper's operational description step by step:
//!
//! * **read/write hit in V-cache** — serve locally; a write hit on a clean
//!   block first obtains the *invack* (invalidating other copies over the
//!   bus if the R-cache state is shared) and sets the R-cache's vdirty bit;
//! * **miss in V-cache** — the TLB translation (which proceeded in parallel)
//!   is consumed, the replaced V block is handed to the write buffer (dirty)
//!   or its inclusion bit is cleared (clean), and the R-cache is probed:
//!   * *hit with the inclusion bit set* — a **synonym**: if the copy lives
//!     in the same V-cache set it is re-tagged in place (*sameset*; any
//!     pending write-back is cancelled), otherwise it is moved (*move*);
//!   * *hit without it* — the R-cache supplies the data and records the
//!     v-pointer;
//!   * *miss* — a bus read-miss (or read-modified-write) fetches the block;
//!     the R-cache victim is chosen with inclusion-clear preference, falling
//!     back to an *inclusion invalidation*;
//! * **context switch** — every valid V line is marked *swapped-valid*;
//!   its write-back happens lazily at replacement time (Table 3);
//! * **bus-induced** — read-misses trigger `flush(v-pointer)` /
//!   `flush(buffer)` only when the V-cache or buffer actually holds modified
//!   data; invalidations propagate to the V-cache only when the inclusion
//!   bit is set. Everything else is absorbed by the R-cache — the shielding
//!   measured in Tables 11–13.

use vrcache_bus::oracle::{CoherenceViolation, Version, VersionOracle};
use vrcache_bus::txn::{BusOp, BusTransaction};
use vrcache_cache::array::Line;
use vrcache_cache::geometry::{BlockId, CacheGeometry};
use vrcache_cache::stats::CacheStats;
use vrcache_cache::write_buffer::WriteBuffer;
use vrcache_mem::access::{AccessKind, CpuId};
use vrcache_mem::addr::{Asid, Vpn};
use vrcache_mem::tlb::Tlb;
use vrcache_trace::record::MemAccess;

use crate::bus_api::{BusRequest, SnoopReply, SystemBus};
use crate::config::{
    CoherenceProtocol, ContextSwitchPolicy, HierarchyConfig, L1Organization, L1WritePolicy,
};
use crate::events::HierarchyEvents;
use crate::fault::{
    self, FaultKind, FaultPort, FaultRecord, Poison, Protection, Scrub, ScrubParts,
};
use crate::hierarchy::{AccessOutcome, BlockPresence, CacheHierarchy, SynonymKind};
use crate::invariant::{self, InvariantChecker, InvariantExpect, InvariantViolation};
use crate::rcache::{ChildCache, CohState, RCache, RMeta};
use crate::vcache::{VCache, VMeta};

/// The paper's two-level virtual-real cache hierarchy for one processor.
#[derive(Debug, Clone)]
pub struct VrHierarchy {
    cpu: CpuId,
    /// Unified V-cache, or the D half of a split first level.
    l1d: VCache,
    /// The I half of a split first level.
    l1i: Option<VCache>,
    l2: RCache,
    wb: WriteBuffer<Version>,
    tlb: Tlb,
    events: HierarchyEvents,
    /// Geometry used for physical L1-granule block ids (block size of L1).
    granule_geo: CacheGeometry,
    /// Page size (determines TLB indexing).
    page: vrcache_mem::page::PageSize,
    write_policy: L1WritePolicy,
    cs_policy: ContextSwitchPolicy,
    protocol: CoherenceProtocol,
    drain_period: u64,
    /// Reference clock (this CPU's references), for interval histograms.
    refs: u64,
    last_wb_at: Option<u64>,
    last_swapped_wb_at: Option<u64>,
    checker: InvariantChecker,
    /// Modeled parity and data protection, with outstanding syndromes.
    protection: Protection,
}

impl VrHierarchy {
    /// Builds the hierarchy for `cpu` from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if a split configuration's halves are not valid geometries,
    /// or if the update protocol is combined with a write-through first
    /// level (write-through already broadcasts every store downward; the
    /// combination is not a design point the paper discusses).
    pub fn new(cpu: CpuId, cfg: &HierarchyConfig) -> Self {
        assert!(
            !(cfg.protocol == CoherenceProtocol::Update
                && cfg.l1_write_policy == L1WritePolicy::WriteThrough),
            "update protocol + write-through first level is not modeled"
        );
        let (l1d, l1i) = match cfg.l1_org {
            L1Organization::Unified => (VCache::new(cfg.l1, cfg.l1_policy, cfg.seed ^ 0xD), None),
            L1Organization::Split => {
                let Ok(half) = cfg.split_half_geometry() else {
                    panic!("split halves must be valid geometries")
                };
                (
                    VCache::new(half, cfg.l1_policy, cfg.seed ^ 0xD),
                    Some(VCache::new(half, cfg.l1_policy, cfg.seed ^ 0x1)),
                )
            }
        };
        VrHierarchy {
            cpu,
            l1d,
            l1i,
            l2: RCache::new(cfg.l2, cfg.l1, cfg.l2_policy, cfg.seed ^ 0x2),
            wb: WriteBuffer::new(cfg.write_buffer),
            tlb: Tlb::new(cfg.tlb),
            events: HierarchyEvents::default(),
            granule_geo: cfg.l1,
            page: cfg.page,
            write_policy: cfg.l1_write_policy,
            cs_policy: cfg.context_switch_policy,
            protocol: cfg.protocol,
            drain_period: cfg.wb_drain_period.max(1),
            refs: 0,
            last_wb_at: None,
            last_swapped_wb_at: None,
            checker: InvariantChecker::new(cfg.runtime_checks),
            protection: Protection::new(cfg),
        }
    }

    /// How many automatic invariant verifications have run (zero while
    /// [`runtime_checks`](crate::config::HierarchyConfig::runtime_checks)
    /// is disarmed).
    pub fn invariant_checks(&self) -> u64 {
        self.checker.checks()
    }

    /// Runs the armed checker after the operation named by `context`.
    fn verify_after(&mut self, context: &'static str) {
        if !self.checker.enabled() {
            return;
        }
        let view = invariant::HierarchyView {
            data: &self.l1d,
            instr: self.l1i.as_ref(),
            l2: &self.l2,
            wb: &self.wb,
        };
        self.checker.verify(&view, context);
    }

    /// Mutable access to the raw parts, for corruption-injection tests of
    /// the invariant checker.
    #[cfg(test)]
    pub(crate) fn corrupt_parts(
        &mut self,
    ) -> (&mut VCache, &mut RCache, &mut WriteBuffer<Version>) {
        (&mut self.l1d, &mut self.l2, &mut self.wb)
    }

    /// The V-cache (unified/data front).
    pub fn vcache(&self) -> &VCache {
        &self.l1d
    }

    /// The instruction V-cache of a split first level.
    pub fn icache(&self) -> Option<&VCache> {
        self.l1i.as_ref()
    }

    /// The R-cache.
    pub fn rcache(&self) -> &RCache {
        &self.l2
    }

    /// The write buffer between the levels.
    pub fn write_buffer(&self) -> &WriteBuffer<Version> {
        &self.wb
    }

    /// The second-level TLB.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// The V-cache lookup key for a virtual address: the virtual block id,
    /// with the ASID packed into the high bits under the
    /// [`ContextSwitchPolicy::AsidTags`] alternative. The packing leaves
    /// the set-index bits untouched, so placement is identical to the
    /// untagged organization — only tag matching becomes process-aware.
    fn v_key(&self, asid: Asid, vaddr_raw: u64) -> BlockId {
        let vblock = self.granule_geo.block_of(vaddr_raw);
        match self.cs_policy {
            ContextSwitchPolicy::AsidTags => {
                BlockId::new(vblock.raw() | (u64::from(asid.raw()) << 48))
            }
            _ => vblock,
        }
    }

    fn route(&self, kind: AccessKind) -> ChildCache {
        if self.l1i.is_some() && kind.is_instruction() {
            ChildCache::Instr
        } else {
            ChildCache::Data
        }
    }

    fn front_mut(&mut self, child: ChildCache) -> &mut VCache {
        match child {
            ChildCache::Data => &mut self.l1d,
            ChildCache::Instr => self
                .l1i
                .as_mut()
                .invariant_expect("instruction route requires a split first level"),
        }
    }

    fn front(&self, child: ChildCache) -> &VCache {
        match child {
            ChildCache::Data => &self.l1d,
            ChildCache::Instr => self
                .l1i
                .as_ref()
                .invariant_expect("instruction route requires a split first level"),
        }
    }

    /// Completes a pending write-back: the buffered data lands in the
    /// R-cache, whose copy becomes dirty with respect to memory.
    fn complete_writeback(&mut self, block: BlockId, version: Version) {
        let p2 = self.l2.l2_block_of(block);
        let si = self.l2.sub_index(block);
        let line = self
            .l2
            .peek_mut(p2)
            .invariant_expect("buffer bit implies a resident R-cache parent");
        let sub = &mut line.meta.subs[si];
        debug_assert!(sub.buffer, "completing a write-back without a buffer bit");
        sub.buffer = false;
        sub.version = version;
        line.meta.rdirty = true;
    }

    /// Handles a replaced (evicted) V-cache line: clean lines just clear
    /// the inclusion bit; dirty lines enter the write buffer and set the
    /// buffer bit (the paper's replacement signal).
    fn handle_v_victim(&mut self, victim: Line<VMeta>) {
        let p1 = victim.meta.p_block;
        let p2 = self.l2.l2_block_of(p1);
        let si = self.l2.sub_index(p1);
        {
            let line = self
                .l2
                .peek_mut(p2)
                .invariant_expect("inclusion property: V victim must have an R parent");
            let sub = &mut line.meta.subs[si];
            debug_assert!(sub.inclusion, "V victim's inclusion bit was not set");
            debug_assert_eq!(sub.v_block, victim.block, "v-pointer out of sync");
            debug_assert_eq!(sub.vdirty, victim.meta.dirty, "vdirty out of sync");
            sub.inclusion = false;
            sub.vdirty = false;
            if victim.meta.dirty {
                sub.buffer = true;
            }
        }
        if victim.meta.dirty {
            self.events.l1_writebacks += 1;
            self.events.writeback_intervals.note_event();
            if let Some(prev) = self.last_wb_at {
                self.events
                    .writeback_intervals
                    .record((self.refs - prev).max(1));
            }
            self.last_wb_at = Some(self.refs);
            if victim.meta.swapped {
                self.events.swapped_writebacks += 1;
                self.events.swapped_writeback_intervals.note_event();
                if let Some(prev) = self.last_swapped_wb_at {
                    self.events
                        .swapped_writeback_intervals
                        .record((self.refs - prev).max(1));
                }
                self.last_swapped_wb_at = Some(self.refs);
            }
            if let Some(forced) = self.wb.push(p1, victim.meta.version, self.refs) {
                // Buffer full: the oldest write-back completes immediately
                // (processor stall, counted by the buffer's statistics).
                self.complete_writeback(forced.block, forced.payload);
            }
        }
    }

    /// Handles a replaced R-cache line: any upstream state (write-buffer
    /// entries, V-cache children) is folded in first — the fallback case is
    /// the paper's *inclusion invalidation* — and the line is written back
    /// to memory if dirty.
    fn handle_r_victim(&mut self, victim: Line<RMeta>, bus: &mut dyn SystemBus) {
        let p2 = victim.block;
        let mut meta = victim.meta;
        let granules = self.l2.granules_of(p2);
        for (i, sub) in meta.subs.iter_mut().enumerate() {
            if sub.buffer {
                let e = self
                    .wb
                    .force_complete(granules[i])
                    .invariant_expect("buffer bit implies a pending write");
                sub.version = e.payload;
                sub.buffer = false;
                meta.rdirty = true;
            }
            if sub.inclusion {
                // Inclusion invalidation: the relaxed replacement rule had
                // to evict a block still present in the V-cache.
                self.events.inclusion_invalidations += 1;
                let line = self
                    .front_mut(sub.child)
                    .invalidate(sub.v_block)
                    .invariant_expect("inclusion bit implies a V-cache child");
                debug_assert_eq!(line.meta.p_block, granules[i]);
                if line.meta.dirty {
                    sub.version = line.meta.version;
                    meta.rdirty = true;
                }
                sub.inclusion = false;
                sub.vdirty = false;
            }
        }
        if meta.rdirty {
            self.events.l2_writebacks += 1;
            bus.issue(BusRequest::WriteBack {
                block: p2,
                granules: granules
                    .iter()
                    .zip(meta.subs.iter())
                    .map(|(g, s)| (*g, s.version))
                    .collect(),
            });
        }
    }

    /// Installs `vblock` into the `child` front with the given physical
    /// granule, version and dirtiness, updating the parent subentry's
    /// linkage. Any evicted victim is handled.
    fn install_in_v(
        &mut self,
        child: ChildCache,
        vblock: BlockId,
        p1: BlockId,
        version: Version,
        dirty: bool,
    ) {
        let out = self.front_mut(child).fill(
            vblock,
            VMeta {
                p_block: p1,
                dirty,
                swapped: false,
                version,
            },
        );
        if let Some(victim) = out.evicted {
            self.handle_v_victim(victim);
        }
        let p2 = self.l2.l2_block_of(p1);
        let si = self.l2.sub_index(p1);
        let line = self
            .l2
            .peek_mut(p2)
            .invariant_expect("install requires a resident R parent");
        let sub = &mut line.meta.subs[si];
        sub.inclusion = true;
        sub.v_block = vblock;
        sub.child = child;
        sub.vdirty = dirty;
    }

    /// Obtains write permission for granule `p1` (whose parent is resident):
    /// invalidates other cached copies if the line is shared and marks the
    /// line private. The callers mark vdirty (write-back) or route the data
    /// through the buffer (write-through) themselves.
    fn obtain_write_permission(&mut self, p1: BlockId, bus: &mut dyn SystemBus) {
        let p2 = self.l2.l2_block_of(p1);
        let shared = {
            let line = self
                .l2
                .peek_mut(p2)
                .invariant_expect("write permission requires a resident R parent");
            line.meta.state == CohState::Shared
        };
        if shared {
            bus.issue(BusRequest::Invalidate { block: p2 });
            let line = self.l2.peek_mut(p2).invariant_expect("still resident");
            line.meta.state = CohState::Private;
        }
    }

    /// Update-protocol write: broadcast the new version of `p1` to every
    /// sharer; if nobody answered, the line quietly becomes private and
    /// future writes stay off the bus.
    fn broadcast_update(&mut self, p1: BlockId, v: Version, bus: &mut dyn SystemBus) {
        let p2 = self.l2.l2_block_of(p1);
        let resp = bus.issue(BusRequest::Update {
            block: p2,
            granule: p1,
            version: v,
        });
        if !resp.shared_elsewhere {
            let line = self.l2.peek_mut(p2).invariant_expect("resident");
            line.meta.state = CohState::Private;
        }
    }

    /// Performs the local bookkeeping of a processor write to granule `p1`
    /// (parent resident): coherence permission or broadcast according to
    /// the protocol, vdirty, and the dirty/version update of the V line.
    fn perform_write(
        &mut self,
        child: ChildCache,
        vblock: BlockId,
        p1: BlockId,
        already_exclusive: bool,
        bus: &mut dyn SystemBus,
        oracle: &mut VersionOracle,
    ) {
        let p2 = self.l2.l2_block_of(p1);
        let si = self.l2.sub_index(p1);
        let v = oracle.on_write(self.cpu, p1);
        match self.protocol {
            CoherenceProtocol::Invalidation => {
                if !already_exclusive {
                    self.obtain_write_permission(p1, bus);
                }
            }
            CoherenceProtocol::Update => {
                let shared = self
                    .l2
                    .peek(p2)
                    .map(|l| l.meta.state == CohState::Shared)
                    .unwrap_or(false);
                if shared {
                    self.broadcast_update(p1, v, bus);
                }
            }
        }
        let line = self.l2.peek_mut(p2).invariant_expect("resident");
        line.meta.subs[si].vdirty = true;
        let vline = self
            .front_mut(child)
            .peek_mut(vblock)
            .invariant_expect("line resident");
        vline.meta.dirty = true;
        vline.meta.version = v;
    }

    /// Forwards a write-through store of granule `p1` (version `v`) toward
    /// the second level via the (coalescing) write buffer.
    fn forward_write_through(&mut self, p1: BlockId, v: Version) {
        self.events.wt_writes_forwarded += 1;
        let p2 = self.l2.l2_block_of(p1);
        let si = self.l2.sub_index(p1);
        {
            let line = self.l2.peek_mut(p2).invariant_expect("resident parent");
            line.meta.subs[si].buffer = true;
        }
        if let Some(forced) = self.wb.push_coalescing(p1, v, self.refs) {
            self.complete_writeback(forced.block, forced.payload);
        }
    }

    fn snoop_read(&mut self, p2: BlockId) -> SnoopReply {
        let Some(line) = self.l2.peek_mut(p2) else {
            return SnoopReply::default();
        };
        let mut reply = SnoopReply {
            has_copy: true,
            ..SnoopReply::default()
        };
        let mut any_dirty = line.meta.rdirty;
        // Collect the flush work first to keep borrows short.
        let mut flush_v: Vec<(usize, ChildCache, BlockId)> = Vec::new();
        let mut flush_buf: Vec<usize> = Vec::new();
        for (i, sub) in line.meta.subs.iter().enumerate() {
            if sub.vdirty {
                debug_assert!(sub.inclusion, "vdirty without inclusion");
                flush_v.push((i, sub.child, sub.v_block));
            }
            if sub.buffer {
                flush_buf.push(i);
            }
        }
        let granules = self.l2.granules_of(p2);
        for (i, child, v_block) in flush_v {
            self.events.flush_v += 1;
            reply.l1_messages += 1;
            let version = {
                let vline = self
                    .front_mut(child)
                    .peek_mut(v_block)
                    .invariant_expect("vdirty implies a V-cache child");
                debug_assert!(vline.meta.dirty);
                vline.meta.dirty = false;
                vline.meta.version
            };
            let line = self.l2.peek_mut(p2).invariant_expect("resident");
            line.meta.subs[i].version = version;
            line.meta.subs[i].vdirty = false;
            any_dirty = true;
        }
        for i in flush_buf {
            self.events.flush_buffer += 1;
            reply.l1_messages += 1;
            let e = self
                .wb
                .coherence_take(granules[i])
                .invariant_expect("buffer bit implies a pending write");
            let line = self.l2.peek_mut(p2).invariant_expect("resident");
            line.meta.subs[i].version = e.payload;
            line.meta.subs[i].buffer = false;
            any_dirty = true;
        }
        let line = self.l2.peek_mut(p2).invariant_expect("resident");
        line.meta.state = CohState::Shared;
        if any_dirty {
            line.meta.rdirty = false;
            reply.supplied = Some(
                granules
                    .iter()
                    .zip(line.meta.subs.iter())
                    .map(|(g, s)| (*g, s.version))
                    .collect(),
            );
        }
        reply
    }

    /// Applies an update-protocol broadcast: the local copies of `granule`
    /// (R-cache subentry, V-cache child, buffered write) are refreshed to
    /// `version`; ownership moves to the updater.
    fn snoop_update(&mut self, p2: BlockId, granule: BlockId, version: Version) -> SnoopReply {
        let si = self.l2.sub_index(granule);
        let Some(line) = self.l2.peek_mut(p2) else {
            return SnoopReply::default();
        };
        let mut reply = SnoopReply {
            has_copy: true,
            ..SnoopReply::default()
        };
        let sub = &mut line.meta.subs[si];
        sub.version = version;
        sub.vdirty = false;
        // Write-back duty transfers to the updater (all sharers hold
        // identical data under a broadcast protocol).
        line.meta.rdirty = false;
        line.meta.state = CohState::Shared;
        let (incl, child, v_block, buffered) = {
            let sub = &line.meta.subs[si];
            (sub.inclusion, sub.child, sub.v_block, sub.buffer)
        };
        if incl {
            self.events.update_v += 1;
            reply.l1_messages += 1;
            let vline = self
                .front_mut(child)
                .peek_mut(v_block)
                .invariant_expect("inclusion bit implies a V child");
            vline.meta.version = version;
            vline.meta.dirty = false;
        }
        if buffered {
            // The buffered older write is superseded by the broadcast.
            self.events.update_buffer += 1;
            reply.l1_messages += 1;
            let taken = self.wb.coherence_take(granule);
            debug_assert!(taken.is_some(), "buffer bit implies a pending write");
            let line = self.l2.peek_mut(p2).invariant_expect("resident");
            line.meta.subs[si].buffer = false;
        }
        reply
    }

    fn snoop_invalidate(&mut self, p2: BlockId) -> SnoopReply {
        let Some(line) = self.l2.invalidate(p2) else {
            return SnoopReply::default();
        };
        let mut reply = SnoopReply {
            has_copy: true,
            ..SnoopReply::default()
        };
        let granules = self.l2.granules_of(p2);
        for (i, sub) in line.meta.subs.iter().enumerate() {
            // A processor-issued invalidation only ever targets clean
            // shared copies (a dirty copy is exclusive), but a DMA write
            // may land on a dirty block — its data is simply superseded
            // and dropped along with the line.
            if sub.inclusion {
                self.events.inval_v += 1;
                reply.l1_messages += 1;
                let removed = self.front_mut(sub.child).invalidate(sub.v_block);
                debug_assert!(removed.is_some(), "inclusion bit implies a V child");
            }
            if sub.buffer {
                self.events.inval_buffer += 1;
                reply.l1_messages += 1;
                let taken = self.wb.coherence_take(granules[i]);
                debug_assert!(taken.is_some(), "buffer bit implies a pending write");
            }
        }
        reply
    }
}

impl CacheHierarchy for VrHierarchy {
    fn access(
        &mut self,
        access: &MemAccess,
        bus: &mut dyn SystemBus,
        oracle: &mut VersionOracle,
    ) -> Result<AccessOutcome, CoherenceViolation> {
        debug_assert_eq!(access.cpu, self.cpu, "access routed to the wrong CPU");
        self.scrub_poison();
        self.refs += 1;
        // The write buffer drains in parallel with processor execution: one
        // pending write-back completes per drain period (the second level
        // retires one write per t2/t1 first-level cycles).
        if self.refs.is_multiple_of(self.drain_period) {
            if let Some(e) = self.wb.drain_one() {
                self.complete_writeback(e.block, e.payload);
            }
        }

        let child = self.route(access.kind);
        let vblock = self.v_key(access.asid, access.vaddr.raw());
        let p1 = self.granule_geo.pblock_of(access.paddr);
        let p2 = self.l2.l2_block_of(p1);

        // ---- first level ----
        let l1_hit = {
            let front = self.front_mut(child);
            match front.lookup(vblock) {
                Some(line) => {
                    debug_assert_eq!(
                        line.meta.p_block, p1,
                        "virtual block resolved to a different physical block"
                    );
                    Some(line.meta)
                }
                None => None,
            }
        };
        if let Some(meta) = l1_hit {
            self.front_mut(child).stats_mut().record(access.kind, true);
            if access.kind.is_write() {
                match self.write_policy {
                    L1WritePolicy::WriteBack => {
                        // Under invalidation, a dirty line is already
                        // exclusive; under the update protocol exclusivity
                        // is re-checked against the R-cache state on every
                        // write (sharers persist).
                        self.perform_write(child, vblock, p1, meta.dirty, bus, oracle);
                    }
                    L1WritePolicy::WriteThrough => {
                        debug_assert!(!meta.dirty, "write-through lines stay clean");
                        self.obtain_write_permission(p1, bus);
                        let v = oracle.on_write(self.cpu, p1);
                        let line = self
                            .front_mut(child)
                            .peek_mut(vblock)
                            .invariant_expect("line just hit");
                        line.meta.version = v;
                        self.forward_write_through(p1, v);
                    }
                }
            } else {
                oracle.check_read(self.cpu, p1, meta.version)?;
            }
            self.verify_after("access");
            return Ok(AccessOutcome::hit_l1());
        }
        self.front_mut(child).stats_mut().record(access.kind, false);

        // ---- TLB (probed in parallel; its result is consumed only now) ----
        let vpn = self.page.vpn_of(access.vaddr);
        let ppn = self.page.ppn_of(access.paddr);
        let tlb_hit = self.tlb.lookup(access.asid, vpn).is_some();
        if !tlb_hit {
            self.events.tlb_misses += 1;
            self.tlb.fill(access.asid, vpn, ppn);
        }

        // A swapped line may occupy this very slot key; retire it first.
        if let Some(sw) = self.front_mut(child).take_swapped(vblock) {
            self.handle_v_victim(sw);
        }

        // Write-through, no-write-allocate: a write miss never loads the
        // first level; the store goes straight down.
        if access.kind.is_write() && self.write_policy == L1WritePolicy::WriteThrough {
            let l2_hit = self.write_through_miss(p1, p2, bus);
            self.l2.stats_mut().record(access.kind, l2_hit);
            let v = oracle.on_write(self.cpu, p1);
            self.forward_write_through(p1, v);
            self.verify_after("access");
            return Ok(AccessOutcome {
                l1_hit: false,
                l2_hit: Some(l2_hit),
                synonym: None,
                tlb_hit: Some(tlb_hit),
            });
        }

        // ---- second level ----
        // Only the addressed sub-block's entry is consulted below, and
        // `SubEntry` is `Copy` — extracting it avoids cloning the whole
        // `RMeta` (and its subs vector) on every access.
        let si = self.l2.sub_index(p1);
        let l2_sub = self.l2.lookup(p2).map(|l| l.meta.subs[si]);
        let (l2_hit, synonym) = match l2_sub {
            Some(sub) => {
                self.l2.stats_mut().record(access.kind, true);

                // Newest data may be in the write buffer: fold it in first.
                if sub.buffer {
                    let e = self
                        .wb
                        .force_complete(p1)
                        .invariant_expect("buffer bit implies a pending write");
                    self.complete_writeback_into(p2, si, e.payload);
                }

                let synonym = if sub.inclusion {
                    debug_assert!(
                        sub.v_block != vblock || sub.child != child,
                        "a resident same-key child would have been an L1 hit"
                    );
                    let same_set = sub.child == child
                        && self.front(child).geometry().set_of(sub.v_block)
                            == self.front(child).geometry().set_of(vblock);
                    let old = self
                        .front_mut(sub.child)
                        .invalidate(sub.v_block)
                        .invariant_expect("inclusion bit implies a V child");
                    debug_assert_eq!(old.meta.p_block, p1, "synonym points elsewhere");
                    if same_set {
                        self.events.synonym_sameset += 1;
                        // Re-tag in place: the freed way absorbs the block,
                        // so no replacement (and no write-back) happens.
                        let out = self.front_mut(child).fill(
                            vblock,
                            VMeta {
                                p_block: p1,
                                dirty: old.meta.dirty,
                                swapped: false,
                                version: old.meta.version,
                            },
                        );
                        debug_assert!(out.evicted.is_none(), "sameset must not evict");
                        self.relink(p2, si, vblock, child, old.meta.dirty);
                        Some(SynonymKind::SameSet)
                    } else {
                        self.events.synonym_move += 1;
                        self.install_in_v(child, vblock, p1, old.meta.version, old.meta.dirty);
                        Some(SynonymKind::Move)
                    }
                } else {
                    // Plain data supply from the R-cache.
                    let version =
                        self.l2.peek(p2).invariant_expect("resident").meta.subs[si].version;
                    self.install_in_v(child, vblock, p1, version, false);
                    None
                };
                (true, synonym)
            }
            None => {
                self.l2.stats_mut().record(access.kind, false);
                // The invalidation protocol turns a write miss into a
                // read-modified-write (fetch + invalidate); the update
                // protocol fetches normally and broadcasts the new data
                // afterwards, leaving sharers in place.
                let rmw =
                    access.kind.is_write() && self.protocol == CoherenceProtocol::Invalidation;
                let request = if rmw {
                    BusRequest::ReadModifiedWrite {
                        block: p2,
                        subblocks: self.l2.subblocks(),
                    }
                } else {
                    BusRequest::ReadMiss {
                        block: p2,
                        subblocks: self.l2.subblocks(),
                    }
                };
                let resp = bus.issue(request);
                let state = if rmw || !resp.shared_elsewhere {
                    CohState::Private
                } else {
                    CohState::Shared
                };
                let meta = RMeta::fetched(state, &resp.granule_versions);
                let version = meta.subs[si].version;
                let out = self.l2.fill(p2, meta);
                if let Some(victim) = out.evicted {
                    self.handle_r_victim(victim, bus);
                }
                self.install_in_v(child, vblock, p1, version, false);
                (false, None)
            }
        };

        // ---- perform the processor's read or write ----
        if access.kind.is_write() {
            // After an L2 miss under invalidation, the read-modified-write
            // already made us exclusive; every other case re-checks.
            let already_exclusive = !l2_hit && self.protocol == CoherenceProtocol::Invalidation;
            self.perform_write(child, vblock, p1, already_exclusive, bus, oracle);
        } else {
            let version = self
                .front(child)
                .peek(vblock)
                .invariant_expect("just installed")
                .meta
                .version;
            oracle.check_read(self.cpu, p1, version)?;
        }

        self.verify_after("access");
        Ok(AccessOutcome {
            l1_hit: false,
            l2_hit: Some(l2_hit),
            synonym,
            tlb_hit: Some(tlb_hit),
        })
    }

    fn context_switch(&mut self, _from: Asid, _to: Asid) {
        self.scrub_poison();
        self.events.context_switches += 1;
        match self.cs_policy {
            ContextSwitchPolicy::SwappedValid => {
                self.events.lines_swapped += self.l1d.mark_all_swapped();
                if let Some(i) = self.l1i.as_mut() {
                    self.events.lines_swapped += i.mark_all_swapped();
                }
            }
            ContextSwitchPolicy::AsidTags => {
                // Tags disambiguate processes; nothing to do at a switch.
            }
            ContextSwitchPolicy::EagerFlush => {
                // The naive scheme: every line is invalidated now and every
                // dirty line written back now, in one burst.
                let mut lines: Vec<Line<VMeta>> = self.l1d.drain_all();
                if let Some(i) = self.l1i.as_mut() {
                    lines.extend(i.drain_all());
                }
                for line in lines {
                    let p1 = line.meta.p_block;
                    let p2 = self.l2.l2_block_of(p1);
                    let si = self.l2.sub_index(p1);
                    let rline = self
                        .l2
                        .peek_mut(p2)
                        .invariant_expect("inclusion property: flushed line has a parent");
                    let sub = &mut rline.meta.subs[si];
                    sub.inclusion = false;
                    sub.vdirty = false;
                    if line.meta.dirty {
                        sub.version = line.meta.version;
                        rline.meta.rdirty = true;
                        self.events.eager_flush_writebacks += 1;
                    }
                }
            }
        }
        self.verify_after("context switch");
    }

    fn tlb_shootdown(&mut self, asid: Asid, vpn: Vpn, _bus: &mut dyn SystemBus) -> u32 {
        self.scrub_poison();
        self.tlb.flush_asid_vpn(asid, vpn);
        // Retire every V-cache line of the affected virtual page: their
        // r-pointer linkage dies with the old translation. Dirty data is
        // folded into the R-cache (which stays valid — it is physically
        // addressed).
        let blocks_per_page = self.page.bytes() / self.granule_geo.block_bytes();
        let first_vblock = vpn.raw() * blocks_per_page;
        let mut disturbed = 0;
        for i in 0..blocks_per_page {
            let key = self.v_key(asid, (first_vblock + i) << self.granule_geo.block_bits());
            for child in [ChildCache::Data, ChildCache::Instr] {
                if child == ChildCache::Instr && self.l1i.is_none() {
                    continue;
                }
                let Some(line) = self.front_mut(child).invalidate(key) else {
                    continue;
                };
                disturbed += 1;
                let p1 = line.meta.p_block;
                let p2 = self.l2.l2_block_of(p1);
                let si = self.l2.sub_index(p1);
                let rline = self
                    .l2
                    .peek_mut(p2)
                    .invariant_expect("inclusion property: shot-down line has a parent");
                let sub = &mut rline.meta.subs[si];
                sub.inclusion = false;
                sub.vdirty = false;
                if line.meta.dirty {
                    sub.version = line.meta.version;
                    rline.meta.rdirty = true;
                }
            }
        }
        self.verify_after("TLB shootdown");
        disturbed
    }

    fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
        debug_assert_ne!(txn.source, self.cpu, "a hierarchy never snoops itself");
        self.scrub_poison();
        let reply = match txn.op {
            BusOp::ReadMiss => self.snoop_read(txn.block),
            BusOp::Invalidate => self.snoop_invalidate(txn.block),
            BusOp::ReadModifiedWrite => {
                // Treated as a read-miss followed by an invalidation.
                let mut r = self.snoop_read(txn.block);
                let inv = self.snoop_invalidate(txn.block);
                r.has_copy |= inv.has_copy;
                r.l1_messages += inv.l1_messages;
                r
            }
            BusOp::Update => {
                let (granule, version) = txn
                    .update
                    .invariant_expect("update transactions carry their payload");
                self.snoop_update(txn.block, granule, version)
            }
            BusOp::WriteBack => SnoopReply::default(),
        };
        self.verify_after("snoop");
        reply
    }

    fn coh_presence(&self, block: BlockId) -> BlockPresence {
        // Inclusion means the R-cache tag array is the whole story: no V
        // line or buffered write exists without a resident R parent.
        match self.l2.peek(block).map(|line| line.meta.state) {
            Some(CohState::Private) => BlockPresence::Private,
            Some(CohState::Shared) => BlockPresence::Shared,
            None => BlockPresence::Absent,
        }
    }

    fn cpu(&self) -> CpuId {
        self.cpu
    }

    fn l1_stats(&self) -> CacheStats {
        let mut s = *self.l1d.stats();
        if let Some(i) = &self.l1i {
            s.merge(i.stats());
        }
        s
    }

    fn l1_split_stats(&self) -> Option<(CacheStats, CacheStats)> {
        self.l1i.as_ref().map(|i| (*i.stats(), *self.l1d.stats()))
    }

    fn l2_stats(&self) -> CacheStats {
        *self.l2.stats()
    }

    fn events(&self) -> &HierarchyEvents {
        &self.events
    }

    fn write_buffer_stats(&self) -> vrcache_cache::write_buffer::WriteBufferStats {
        self.wb.stats()
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        invariant::check(&invariant::HierarchyView {
            data: &self.l1d,
            instr: self.l1i.as_ref(),
            l2: &self.l2,
            wb: &self.wb,
        })
    }
}

impl VrHierarchy {
    /// Updates the subentry linkage after a sameset re-tag.
    fn relink(&mut self, p2: BlockId, si: usize, vblock: BlockId, child: ChildCache, dirty: bool) {
        let line = self.l2.peek_mut(p2).invariant_expect("resident");
        let sub = &mut line.meta.subs[si];
        sub.v_block = vblock;
        sub.child = child;
        sub.inclusion = true;
        sub.vdirty = dirty;
    }

    /// The second-level half of a write-through store miss: secures a
    /// resident, exclusive parent line (fetching with read-modified-write
    /// if absent) and invalidates any synonym copy in the first level.
    /// Returns whether the second level hit.
    fn write_through_miss(&mut self, p1: BlockId, p2: BlockId, bus: &mut dyn SystemBus) -> bool {
        let si = self.l2.sub_index(p1);
        if self.l2.lookup(p2).is_some() {
            let (incl, child_k, v_blk) = {
                let line = self.l2.peek(p2).invariant_expect("just hit");
                let sub = &line.meta.subs[si];
                (sub.inclusion, sub.child, sub.v_block)
            };
            if incl {
                // The store supersedes the (clean) synonym copy.
                let old = self
                    .front_mut(child_k)
                    .invalidate(v_blk)
                    .invariant_expect("inclusion bit implies a V child");
                debug_assert!(!old.meta.dirty, "write-through lines stay clean");
                let line = self.l2.peek_mut(p2).invariant_expect("resident");
                line.meta.subs[si].inclusion = false;
                line.meta.subs[si].vdirty = false;
            }
            self.obtain_write_permission(p1, bus);
            true
        } else {
            let resp = bus.issue(BusRequest::ReadModifiedWrite {
                block: p2,
                subblocks: self.l2.subblocks(),
            });
            let meta = RMeta::fetched(CohState::Private, &resp.granule_versions);
            let out = self.l2.fill(p2, meta);
            if let Some(victim) = out.evicted {
                self.handle_r_victim(victim, bus);
            }
            false
        }
    }

    /// Folds a completed write-back into subentry `si` of `p2`.
    fn complete_writeback_into(&mut self, p2: BlockId, si: usize, version: Version) {
        let line = self.l2.peek_mut(p2).invariant_expect("resident");
        let sub = &mut line.meta.subs[si];
        debug_assert!(sub.buffer);
        sub.buffer = false;
        sub.version = version;
        line.meta.rdirty = true;
    }
}

// ---- modeled parity: the V-R recovery policy and fault port ----
impl Scrub for VrHierarchy {
    fn scrub_parts(&mut self) -> ScrubParts<'_> {
        ScrubParts {
            protection: &mut self.protection,
            tlb: &mut self.tlb,
            events: &mut self.events,
            l2: Some(&mut self.l2),
        }
    }

    /// Recovers a poisoned V-cache line. Parity identifies the entry but
    /// cannot correct it, so the line is discarded; what else must go
    /// depends on which field faulted.
    fn scrub_l1_line(&mut self, kind: FaultKind, child: ChildCache, key: BlockId) {
        let Some(line) = self.front_mut(child).invalidate(key) else {
            // The poisoned line was already replaced; nothing to repair.
            self.events.parity_refetches += 1;
            return;
        };
        match kind {
            FaultKind::RPointerFlip => {
                // The r-pointer itself is suspect: locate the parent by
                // its v-pointer instead and sever the linkage.
                self.clear_linkage_by_v_pointer(child, key);
                // Pointer metadata faulted — even a clean line may have
                // been reachable through a wrong parent.
                self.events.parity_machine_checks += 1;
            }
            _ => {
                // Tag, state or data flip: the r-pointer is trusted.
                self.clear_sub_linkage(line.meta.p_block);
                if matches!(kind, FaultKind::VTagFlip | FaultKind::VDataBit) && !line.meta.dirty {
                    // Clean data under a wrong tag (or a clean word
                    // failing its data check): treat as a miss.
                    self.events.parity_refetches += 1;
                } else {
                    // A dirty line (or a dirty bit of unknown true
                    // value) may carry the only copy of modified data.
                    self.events.parity_machine_checks += 1;
                }
            }
        }
    }

    /// Recovers a poisoned R-cache line by conservative teardown: every
    /// V-cache child and buffered write of the line's granules is
    /// discarded (trusting only the V-side r-pointers, never the
    /// corrupted subentries) and the line is invalidated. Only a
    /// provably-clean coherence-state flip counts as a refetch; any
    /// pointer/flag corruption, or discarded modified data, is a
    /// machine check.
    fn scrub_l2_line(&mut self, kind: FaultKind, p2: BlockId) {
        let granules = self.l2.granules_of(p2);
        let mut lost_dirty = false;
        for child in [ChildCache::Data, ChildCache::Instr] {
            if child == ChildCache::Instr && self.l1i.is_none() {
                continue;
            }
            let keys: Vec<BlockId> = self
                .front(child)
                .iter()
                .filter(|l| granules.contains(&l.meta.p_block))
                .map(|l| l.block)
                .collect();
            for k in keys {
                if let Some(line) = self.front_mut(child).invalidate(k) {
                    lost_dirty |= line.meta.dirty;
                }
            }
        }
        for g in &granules {
            lost_dirty |= self.wb.coherence_take(*g).is_some();
        }
        if let Some(line) = self.l2.invalidate(p2) {
            lost_dirty |= line.meta.rdirty;
        }
        if matches!(kind, FaultKind::CohStateFlip | FaultKind::RDataBit) && !lost_dirty {
            self.events.parity_refetches += 1;
        } else {
            self.events.parity_machine_checks += 1;
        }
    }

    fn l1_word(&mut self, child: ChildCache, key: BlockId) -> Option<&mut Version> {
        Some(&mut self.front_mut(child).peek_mut(key)?.meta.version)
    }
}

impl VrHierarchy {
    /// Clears the inclusion linkage of granule `p1`'s parent subentry.
    fn clear_sub_linkage(&mut self, p1: BlockId) {
        let p2 = self.l2.l2_block_of(p1);
        let si = self.l2.sub_index(p1);
        if let Some(line) = self.l2.peek_mut(p2) {
            let sub = &mut line.meta.subs[si];
            sub.inclusion = false;
            sub.vdirty = false;
        }
    }

    /// Clears every subentry whose v-pointer names `(child, vblock)` —
    /// the reverse lookup used when the forward r-pointer is suspect.
    fn clear_linkage_by_v_pointer(&mut self, child: ChildCache, vblock: BlockId) {
        let targets: Vec<(BlockId, usize)> = self
            .l2
            .iter()
            .flat_map(|line| {
                let p2 = line.block;
                line.meta
                    .subs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.inclusion && s.child == child && s.v_block == vblock)
                    .map(move |(i, _)| (p2, i))
            })
            .collect();
        for (p2, si) in targets {
            if let Some(line) = self.l2.peek_mut(p2) {
                let sub = &mut line.meta.subs[si];
                sub.inclusion = false;
                sub.vdirty = false;
            }
        }
    }
}

impl FaultPort for VrHierarchy {
    fn inject_fault(&mut self, kind: FaultKind, seed: u64) -> Option<FaultRecord> {
        let prot = &mut self.protection;
        match kind {
            FaultKind::VTagFlip => prot.inject_tag_flip(self.l1d.array_mut(), seed, "v-line"),
            FaultKind::VStateFlip => prot.inject_state_flip(self.l1d.array_mut(), seed, "v-line"),
            FaultKind::RPointerFlip => {
                let key = fault::pick_line(self.l1d.iter(), seed)?;
                let line = self.l1d.peek_mut(key)?;
                let old = line.meta.p_block;
                let corrupted = BlockId::new(old.raw() ^ 1);
                line.meta.p_block = corrupted;
                prot.record_meta(Poison::L1Line {
                    kind,
                    child: ChildCache::Data,
                    key,
                });
                Some(FaultRecord {
                    kind,
                    detail: format!("v-line {key} r-pointer {old} -> {corrupted}"),
                })
            }
            FaultKind::RInclusionFlip
            | FaultKind::RBufferFlip
            | FaultKind::RVdirtyFlip
            | FaultKind::VPointerFlip
            | FaultKind::CohStateFlip => {
                let v_set_bits = self.l1d.geometry().set_bits();
                self.l2
                    .inject_r_side(prot, kind, seed, v_set_bits, "r-line")
            }
            FaultKind::TlbEntryFlip => prot.inject_tlb_flip(&mut self.tlb, seed),
            FaultKind::WriteBufferDrop => prot.inject_wb_drop(&mut self.wb, seed),
            FaultKind::VDataBit => prot.inject_data_bit(self.l1d.array_mut(), seed, "v-line"),
            FaultKind::RDataBit => self.l2.inject_data_bit(prot, seed, "r-line"),
            FaultKind::BusDropTxn | FaultKind::BusDuplicateTxn | FaultKind::BusLostInvalidate => {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::SynonymKind;
    use crate::sys::LoopbackBus;
    use vrcache_mem::access::AccessKind;
    use vrcache_mem::addr::{PhysAddr, VirtAddr};

    /// Small geometry: 256B/16B direct-mapped V-cache (16 sets) over a
    /// 4K/16B direct-mapped R-cache.
    fn cfg() -> HierarchyConfig {
        HierarchyConfig::direct_mapped(256, 4096, 16)
            .unwrap()
            .with_runtime_checks(true)
    }

    struct Rig {
        h: VrHierarchy,
        bus: LoopbackBus,
        oracle: VersionOracle,
    }

    impl Rig {
        fn new(cfg: &HierarchyConfig) -> Rig {
            Rig {
                h: VrHierarchy::new(CpuId::new(0), cfg),
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
                .expect("no coherence violation expected");
            self.h.check_invariants().expect("invariants hold");
            out
        }

        fn read(&mut self, va: u64, pa: u64) -> AccessOutcome {
            self.go(AccessKind::DataRead, va, pa)
        }

        fn write(&mut self, va: u64, pa: u64) -> AccessOutcome {
            self.go(AccessKind::DataWrite, va, pa)
        }
    }

    #[test]
    fn update_protocol_allows_write_back_first_level() {
        // Only the update + write-through *combination* is rejected;
        // update over the default write-back first level is a modeled
        // design point and must construct and run.
        let mut r = Rig::new(&cfg().with_update_protocol());
        r.write(0x1000, 0x9000);
        assert!(r.read(0x1000, 0x9000).l1_hit);
    }

    #[test]
    #[should_panic(expected = "not modeled")]
    fn update_protocol_rejects_write_through_first_level() {
        let cfg = cfg().with_update_protocol().with_write_through();
        let _ = VrHierarchy::new(CpuId::new(0), &cfg);
    }

    #[test]
    fn coh_presence_mirrors_the_r_cache_state() {
        let mut r = Rig::new(&cfg());
        let p2 = cfg().l2.block_of(0x9000);
        assert_eq!(r.h.coh_presence(p2), BlockPresence::Absent);
        r.write(0x1000, 0x9000);
        assert_eq!(r.h.coh_presence(p2), BlockPresence::Private);
        // A foreign read-miss downgrades the copy.
        let reply =
            r.h.snoop(&BusTransaction::new(BusOp::ReadMiss, CpuId::new(1), p2));
        assert!(reply.has_copy);
        assert_eq!(r.h.coh_presence(p2), BlockPresence::Shared);
    }

    #[test]
    fn shootdown_retires_the_first_block_of_the_page() {
        let mut r = Rig::new(&cfg());
        // A page-aligned virtual address lands in the page's block 0 —
        // the boundary case of the retirement walk.
        r.read(0x1000, 0x9000);
        let vpn = cfg().page.vpn_of(VirtAddr::new(0x1000));
        let disturbed = r.h.tlb_shootdown(Asid::new(1), vpn, &mut r.bus);
        assert_eq!(disturbed, 1, "the page's first block must be retired");
    }

    #[test]
    fn update_snoop_supersedes_the_buffered_write() {
        let mut c = cfg().with_update_protocol();
        c.wb_drain_period = 1000; // keep the buffered write-back pending
        let mut r = Rig::new(&c);
        r.write(0x1000, 0x9000);
        // Same V set, different page: evicts the dirty line into the
        // write buffer and sets its parent's buffer bit.
        r.read(0x1100, 0x9100);
        assert!(!r.h.write_buffer().is_empty());
        let p1 = cfg().l1.block_of(0x9000);
        let p2 = cfg().l2.block_of(0x9000);
        let v = r.oracle.on_write(CpuId::new(1), p1);
        let txn = BusTransaction {
            op: BusOp::Update,
            source: CpuId::new(1),
            block: p2,
            update: Some((p1, v)),
        };
        let reply = r.h.snoop(&txn);
        assert!(reply.has_copy);
        assert_eq!(r.h.events().update_buffer, 1);
        assert!(
            r.h.write_buffer().is_empty(),
            "the broadcast supersedes the buffered older write"
        );
        r.h.check_invariants()
            .expect("buffer bit cleared together with its entry");
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut r = Rig::new(&cfg());
        let out = r.read(0x1000, 0x9000);
        assert!(!out.l1_hit);
        assert_eq!(out.l2_hit, Some(false));
        assert_eq!(out.tlb_hit, Some(false));
        let out = r.read(0x1000, 0x9000);
        assert!(out.l1_hit);
        assert_eq!(out.l2_hit, None, "R-cache access aborted on V hit");
    }

    #[test]
    fn l1_miss_l2_hit_after_v_eviction() {
        let mut r = Rig::new(&cfg());
        r.read(0x1000, 0x9000);
        // 0x1000 and 0x1100 collide in the 256B V-cache (16 sets) but not
        // in the 4K R-cache.
        r.read(0x1100, 0x9100);
        let out = r.read(0x1000, 0x9000);
        assert!(!out.l1_hit);
        assert_eq!(out.l2_hit, Some(true));
    }

    #[test]
    fn write_then_read_same_value() {
        let mut r = Rig::new(&cfg());
        r.write(0x1000, 0x9000);
        let out = r.read(0x1000, 0x9000);
        assert!(out.l1_hit);
    }

    #[test]
    fn dirty_eviction_goes_through_write_buffer() {
        let mut r = Rig::new(&cfg());
        r.write(0x1000, 0x9000);
        r.read(0x1100, 0x9100); // evicts dirty 0x1000 into the buffer
        assert_eq!(r.h.events().l1_writebacks, 1);
        // The data survives: reading it back must pass the oracle.
        let out = r.read(0x1000, 0x9000);
        assert_eq!(out.l2_hit, Some(true));
    }

    #[test]
    fn synonym_sameset_retags_in_place() {
        let mut r = Rig::new(&cfg());
        // vblocks 0x100 and 0x200 both map to set 0 of the 16-set V-cache.
        r.write(0x1000, 0x9000);
        let out = r.read(0x2000, 0x9000); // same physical block, same set
        assert_eq!(out.synonym, Some(SynonymKind::SameSet));
        assert_eq!(r.h.events().synonym_sameset, 1);
        assert_eq!(
            r.h.events().l1_writebacks,
            0,
            "sameset cancels the write-back"
        );
        // The new name now hits; the old name misses (single-copy rule).
        assert!(r.read(0x2000, 0x9000).l1_hit);
        let out = r.read(0x1000, 0x9000);
        assert!(!out.l1_hit);
        assert_eq!(out.synonym, Some(SynonymKind::SameSet));
    }

    #[test]
    fn synonym_move_crosses_sets() {
        let mut r = Rig::new(&cfg());
        r.write(0x1000, 0x9000); // set 0
        let out = r.read(0x2010, 0x9010); // different offset => different pa!
        assert_eq!(out.synonym, None, "different physical block: no synonym");
        // A true cross-set synonym needs equal page offsets; 0x3010/0x9010
        // vs 0x1010/0x9010: vblock sets 1 and 1... use offset 0x100.
        let mut r = Rig::new(&cfg());
        r.write(0x1100, 0x9100); // vblock 0x110, set 0
        let out = r.read(0x2010, 0x9010);
        assert_eq!(out.synonym, None);
        let out = r.read(0x3100, 0x9100); // vblock 0x310, set 0 => sameset
        assert_eq!(out.synonym, Some(SynonymKind::SameSet));
    }

    #[test]
    fn synonym_move_between_different_sets() {
        // Use a 2-set-larger... simply pick VAs whose page offsets differ
        // in set bits: with 16B blocks and 16 sets, the set index is
        // va[7:4]. Synonyms share the page offset (bits [11:0]) only if
        // the page size is 4K — so two synonyms always share set bits
        // here. To exercise `move`, use a V-cache larger than a page:
        // 8K V-cache (512 sets): set index = va[12:4], bit 12 differs
        // between mappings 0x1000-page and 0x3000-page.
        let cfg = HierarchyConfig::direct_mapped(8 * 1024, 64 * 1024, 16).unwrap();
        let mut r = Rig::new(&cfg);
        r.write(0x1100, 0x9100); // va bit 12 = 1
        let out = r.read(0x2100, 0x9100); // va bit 12 = 0 -> different set
        assert_eq!(out.synonym, Some(SynonymKind::Move));
        assert_eq!(r.h.events().synonym_move, 1);
        // Data moved, still newest (oracle checked inside).
        assert!(r.read(0x2100, 0x9100).l1_hit);
        assert!(!r.read(0x1100, 0x9100).l1_hit);
    }

    #[test]
    fn dirty_synonym_move_preserves_data() {
        let cfg = HierarchyConfig::direct_mapped(8 * 1024, 64 * 1024, 16).unwrap();
        let mut r = Rig::new(&cfg);
        r.write(0x1100, 0x9100);
        let out = r.read(0x2100, 0x9100);
        assert_eq!(out.synonym, Some(SynonymKind::Move));
        // Write through the new name, then evict and re-read through the
        // old one; the version chain must stay intact (oracle verifies).
        r.write(0x2100, 0x9100);
        let out = r.read(0x1100, 0x9100);
        assert_eq!(out.synonym, Some(SynonymKind::Move));
    }

    #[test]
    fn context_switch_invalidates_but_preserves_dirty_data() {
        let mut r = Rig::new(&cfg());
        r.write(0x1000, 0x9000);
        r.h.context_switch(Asid::new(1), Asid::new(2));
        assert_eq!(r.h.events().context_switches, 1);
        assert_eq!(r.h.events().lines_swapped, 1);
        // Same VA, *different process/physical page*: must miss.
        let out = r.go(AccessKind::DataRead, 0x1000, 0xA100);
        assert!(!out.l1_hit, "swapped lines are invisible");
        // The dirty data of the old process is written back on replacement
        // (the slot was reused just now).
        assert_eq!(r.h.events().swapped_writebacks, 1);
        // And it is still readable by the old process later (after the
        // scheduler switches back, which re-invalidates the V-cache).
        r.h.context_switch(Asid::new(2), Asid::new(1));
        let out = r.go(AccessKind::DataRead, 0x1000, 0x9000);
        assert_eq!(out.l2_hit, Some(true));
    }

    #[test]
    fn swapped_writeback_happens_on_replacement_not_switch() {
        let mut r = Rig::new(&cfg());
        r.write(0x1000, 0x9000);
        r.write(0x1010, 0x9010);
        r.h.context_switch(Asid::new(1), Asid::new(2));
        // No write-backs yet: the switch only marks.
        assert_eq!(r.h.events().swapped_writebacks, 0);
        assert_eq!(r.h.vcache().dirty_lines(), 2);
        // Touch one of the slots: exactly one swapped write-back.
        r.go(AccessKind::DataRead, 0x1000, 0xA000);
        assert_eq!(r.h.events().swapped_writebacks, 1);
    }

    #[test]
    fn swapped_line_same_process_back_misses_but_is_clean() {
        let mut r = Rig::new(&cfg());
        r.read(0x1000, 0x9000);
        r.h.context_switch(Asid::new(1), Asid::new(2));
        r.h.context_switch(Asid::new(2), Asid::new(1));
        // Back on the original process: the paper invalidates, so this is
        // a miss even though the data was never stale.
        let out = r.read(0x1000, 0x9000);
        assert!(!out.l1_hit);
        assert_eq!(out.l2_hit, Some(true));
    }

    #[test]
    fn inclusion_invalidation_on_r_eviction() {
        // V-cache 256B (16 blocks); R-cache 4K (256 blocks). Touch a block,
        // then march over 4K+ of distinct physical blocks mapping to its
        // R-set while avoiding its V-set.
        let mut r = Rig::new(&cfg());
        r.read(0x1000, 0x0000); // pa block 0, R set 0, V set 0
                                // march pa = 0x1000, 0x2000, ... same R set 0 (4K apart), V set 0
                                // as well... since V has 16 sets * 16B = 256B period, 4K-aligned
                                // addresses always map to V set 0 too. The V line for pa 0 gets
                                // evicted by the first of these, clearing inclusion — so to force
                                // an inclusion invalidation we instead keep the V line alive by
                                // re-touching it. Use R-set collisions with *different* V sets:
                                // impossible in this geometry (R period 4K is a multiple of V
                                // period 256). Instead rely on a 2-way R-cache.
        let cfg2 = HierarchyConfig::new(
            vrcache_cache::geometry::CacheGeometry::direct_mapped(256, 16).unwrap(),
            vrcache_cache::geometry::CacheGeometry::new(4096, 16, 4).unwrap(),
            vrcache_mem::page::PageSize::SIZE_4K,
        )
        .unwrap();
        let mut r = Rig::new(&cfg2);
        // Four blocks, same R set (1K apart in a 4-way 64-set... sets =
        // 4096/(16*4) = 64 sets, period 1K). V period is 256B: 1K-apart
        // addresses share V set 0 as well. Fill the R set with 4 blocks;
        // keep only the *first* alive in V by interleaving.
        r.read(0x1000, 0x0000);
        for i in 1..4u64 {
            r.read(0x1000 + i * 0x10, 0x400 * i + 0x10 * i); // different V sets
        }
        // All 4 R-ways of some sets now used; next conflicting fill must
        // evict a line with a child → inclusion invalidation.
        let before = r.h.events().inclusion_invalidations;
        for i in 4..12u64 {
            r.read(0x1000 + i * 0x10, 0x400 * (i % 4) + 0x10 * i);
        }
        let _ = before; // exact count depends on mapping; invariants were
                        // checked after every access above.
    }

    #[test]
    fn split_l1_routes_by_kind() {
        let cfg = HierarchyConfig::direct_mapped(512, 4096, 16)
            .unwrap()
            .with_split_l1();
        let mut r = Rig::new(&cfg);
        r.go(AccessKind::InstrFetch, 0x1000, 0x9000);
        r.go(AccessKind::DataRead, 0x2000, 0xA100); // distinct R-cache set
        let (i_stats, d_stats) = r.h.l1_split_stats().unwrap();
        assert_eq!(i_stats.class(AccessKind::InstrFetch).total(), 1);
        assert_eq!(d_stats.class(AccessKind::DataRead).total(), 1);
        assert_eq!(r.h.l1_stats().overall().total(), 2);
        // Hits go to the right half.
        assert!(r.go(AccessKind::InstrFetch, 0x1000, 0x9000).l1_hit);
        assert!(r.go(AccessKind::DataRead, 0x2000, 0xA100).l1_hit);
    }

    #[test]
    fn tlb_hits_after_first_touch_of_page() {
        let mut r = Rig::new(&cfg());
        let out = r.read(0x1000, 0x9000);
        assert_eq!(out.tlb_hit, Some(false));
        // Different block, same page, forced V miss via conflict.
        r.read(0x1100, 0x9100); // different page: another TLB miss
        let out = r.read(0x1010, 0x9010); // same page as first access
        assert_eq!(out.tlb_hit, Some(true));
    }

    #[test]
    fn write_buffer_stall_accounting() {
        let cfg = cfg().with_write_buffer(1).with_drain_period(1);
        let mut r = Rig::new(&cfg);
        // Generate back-to-back dirty evictions: write block A (set 0),
        // write B (set 0, evicts A dirty), write C (set 0, evicts B dirty).
        r.write(0x1000, 0x9000);
        r.write(0x2000, 0x9100); // same V set, different R sets
        r.write(0x3000, 0x9200);
        r.write(0x4000, 0x9300);
        // With one buffer and one drain per access, no stall is expected:
        // each eviction's predecessor has drained.
        assert_eq!(r.h.write_buffer().stats().full_stalls, 0);
        assert!(r.h.events().l1_writebacks >= 2);
    }

    #[test]
    fn many_random_accesses_keep_invariants_and_coherence() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut r = Rig::new(&cfg());
        for i in 0..3000 {
            let page = rng.gen_range(0..8u64);
            let offset = rng.gen_range(0..256u64) * 16;
            let va = 0x1000 * (page + 1) + offset % 0x1000;
            let pa = 0x9000 + page * 0x1000 + offset % 0x1000;
            let kind = match rng.gen_range(0..10) {
                0..=1 => AccessKind::DataWrite,
                2..=5 => AccessKind::DataRead,
                _ => AccessKind::InstrFetch,
            };
            r.go(kind, va, pa);
            if i % 500 == 499 {
                r.h.context_switch(Asid::new(1), Asid::new(1));
            }
        }
        // Invariants were checked after every access by Rig::go.
        assert!(r.h.l1_stats().overall().total() == 3000);
        assert!(r.oracle.checks() > 0);
    }

    #[test]
    fn write_through_keeps_lines_clean_and_forwards() {
        let cfg = cfg().with_write_through();
        let mut r = Rig::new(&cfg);
        // Write miss: no allocate.
        let out = r.write(0x1000, 0x9000);
        assert!(!out.l1_hit);
        assert_eq!(out.l2_hit, Some(false));
        assert_eq!(r.h.vcache().occupancy(), 0, "no write-allocate");
        // Read allocates; a subsequent write hit stays clean.
        r.read(0x1000, 0x9000);
        let out = r.write(0x1000, 0x9000);
        assert!(out.l1_hit);
        assert_eq!(
            r.h.vcache().dirty_lines(),
            0,
            "write-through lines stay clean"
        );
        assert!(r.h.events().wt_writes_forwarded >= 2);
        // The written data must be the one read back.
        assert!(r.read(0x1000, 0x9000).l1_hit);
    }

    #[test]
    fn write_through_write_invalidates_synonym_copy() {
        let cfg = cfg().with_write_through();
        let mut r = Rig::new(&cfg);
        r.read(0x1000, 0x9000); // copy under the first name
        r.write(0x2000, 0x9000); // store through a second name
                                 // The stale copy under the first name must be gone; a re-read
                                 // observes the new version (oracle-checked inside).
        let out = r.read(0x1000, 0x9000);
        assert!(!out.l1_hit);
        assert_eq!(out.l2_hit, Some(true));
    }

    #[test]
    fn write_through_coalesces_buffer_entries() {
        let cfg = cfg().with_write_through().with_write_buffer(1);
        let mut r = Rig::new(&cfg);
        r.read(0x1000, 0x9000);
        for _ in 0..5 {
            r.write(0x1000, 0x9000); // same block: coalesce, never stall
        }
        assert_eq!(r.h.write_buffer().stats().full_stalls, 0);
    }

    #[test]
    fn eager_flush_writes_back_in_a_burst() {
        let cfg = cfg().with_eager_flush();
        let mut r = Rig::new(&cfg);
        r.write(0x1000, 0x9000);
        r.write(0x1010, 0x9010);
        r.write(0x1020, 0x9020);
        r.h.context_switch(Asid::new(1), Asid::new(2));
        assert_eq!(
            r.h.events().eager_flush_writebacks,
            3,
            "all dirty lines at once"
        );
        assert_eq!(r.h.vcache().occupancy(), 0, "eager flush empties the cache");
        assert_eq!(r.h.events().swapped_writebacks, 0);
        // Data survives: the old process can read it back via the R-cache.
        r.h.context_switch(Asid::new(2), Asid::new(1));
        let out = r.read(0x1000, 0x9000);
        assert_eq!(out.l2_hit, Some(true));
    }

    #[test]
    fn swapped_valid_defers_what_eager_flush_pays_upfront() {
        for (eager, expect_eager) in [(false, 0u64), (true, 2)] {
            let cfg = if eager {
                cfg().with_eager_flush()
            } else {
                cfg()
            };
            let mut r = Rig::new(&cfg);
            r.write(0x1000, 0x9000);
            r.write(0x1010, 0x9010);
            r.h.context_switch(Asid::new(1), Asid::new(2));
            assert_eq!(r.h.events().eager_flush_writebacks, expect_eager);
        }
    }

    #[test]
    fn asid_tags_survive_context_switches() {
        let cfg = cfg().with_asid_tags();
        let mut r = Rig::new(&cfg);
        r.write(0x1000, 0x9000); // asid 1 in the Rig
        r.h.context_switch(Asid::new(1), Asid::new(2));
        // Process 2 touches a different set (same VA would evict process
        // 1's line by set conflict — the very effect the paper cites for
        // small caches). A non-conflicting address must still MISS despite
        // the matching block bits, because the ASID differs.
        let out =
            r.h.access(
                &MemAccess {
                    cpu: CpuId::new(0),
                    asid: Asid::new(2),
                    kind: AccessKind::DataRead,
                    vaddr: VirtAddr::new(0x1010),
                    paddr: PhysAddr::new(0xA110),
                },
                &mut r.bus,
                &mut r.oracle,
            )
            .unwrap();
        assert!(!out.l1_hit, "different asid must not match");
        r.h.check_invariants().unwrap();
        // Back to process 1: with ASID tags there is no flush, so this is
        // a first-level HIT — the whole point of the alternative.
        r.h.context_switch(Asid::new(2), Asid::new(1));
        let out = r.read(0x1000, 0x9000);
        assert!(out.l1_hit, "tagged entry survives the round trip");
        assert_eq!(r.h.events().swapped_writebacks, 0);
        assert_eq!(r.h.events().lines_swapped, 0);
    }

    #[test]
    fn asid_tags_still_enforce_single_copy_across_processes() {
        let cfg = cfg().with_asid_tags();
        let mut r = Rig::new(&cfg);
        // Process 1 writes a shared physical block.
        r.write(0x1000, 0x9000);
        r.h.context_switch(Asid::new(1), Asid::new(2));
        // Process 2 reads the same physical block through its own VA (a
        // cross-process synonym): must resolve via the R-cache, moving the
        // single copy, never duplicating it.
        let out =
            r.h.access(
                &MemAccess {
                    cpu: CpuId::new(0),
                    asid: Asid::new(2),
                    kind: AccessKind::DataRead,
                    vaddr: VirtAddr::new(0x2000),
                    paddr: PhysAddr::new(0x9000),
                },
                &mut r.bus,
                &mut r.oracle,
            )
            .unwrap();
        assert!(out.synonym.is_some(), "cross-process synonym resolved");
        r.h.check_invariants().unwrap();
        // Process 1's old name now misses (single-copy rule).
        r.h.context_switch(Asid::new(2), Asid::new(1));
        let out = r.read(0x1000, 0x9000);
        assert!(!out.l1_hit);
        assert!(out.synonym.is_some());
    }

    #[test]
    fn events_display_nonempty() {
        let r = Rig::new(&cfg());
        assert!(!r.h.events().to_string().is_empty());
        assert!(r.h.tlb().stats().lookups() == 0);
    }

    // ---- fault injection, parity detection and recovery ----

    use crate::fault::{FaultKind, FaultPort};

    fn parity_rig() -> Rig {
        Rig::new(&cfg().with_parity())
    }

    fn warm(r: &mut Rig) {
        // A mix of clean and dirty lines over several pages.
        for i in 0..8u64 {
            r.read(0x1000 + i * 0x10, 0x9000 + i * 0x10);
        }
        r.write(0x1000, 0x9000);
        r.write(0x1020, 0x9020);
    }

    fn detections(r: &Rig) -> u64 {
        r.h.events().parity_refetches + r.h.events().parity_machine_checks
    }

    #[test]
    fn clean_v_tag_flip_is_detected_and_refetched() {
        let mut r = parity_rig();
        for i in 0..8u64 {
            r.read(0x1000 + i * 0x10, 0x9000 + i * 0x10);
        }
        // Seeds cycle over the candidate lines; with no dirty lines every
        // victim recovers as a refetch.
        let rec = r.h.inject_fault(FaultKind::VTagFlip, 0).expect("target");
        assert_eq!(rec.kind, FaultKind::VTagFlip);
        r.read(0x1080, 0x9080);
        assert_eq!(r.h.events().parity_refetches, 1);
        assert_eq!(r.h.events().parity_machine_checks, 0);
        r.h.check_invariants().unwrap();
        // The workload replays correctly afterwards.
        for i in 0..8u64 {
            r.read(0x1000 + i * 0x10, 0x9000 + i * 0x10);
        }
    }

    #[test]
    fn dirty_v_state_flip_machine_checks() {
        let mut r = parity_rig();
        warm(&mut r);
        r.h.inject_fault(FaultKind::VStateFlip, 0).expect("target");
        r.read(0x1080, 0x9080);
        assert_eq!(r.h.events().parity_machine_checks, 1);
        r.h.check_invariants().unwrap();
    }

    #[test]
    fn r_pointer_flip_severs_linkage_and_machine_checks() {
        let mut r = parity_rig();
        warm(&mut r);
        r.h.inject_fault(FaultKind::RPointerFlip, 3)
            .expect("target");
        r.read(0x1080, 0x9080);
        assert_eq!(r.h.events().parity_machine_checks, 1);
        r.h.check_invariants().unwrap();
    }

    #[test]
    fn r_side_flips_recover_to_sound_state() {
        for kind in [
            FaultKind::RInclusionFlip,
            FaultKind::RBufferFlip,
            FaultKind::RVdirtyFlip,
            FaultKind::VPointerFlip,
            FaultKind::CohStateFlip,
        ] {
            let mut r = parity_rig();
            warm(&mut r);
            let rec = r.h.inject_fault(kind, 5).expect("target");
            assert_eq!(rec.kind, kind);
            r.read(0x1080, 0x9080);
            assert!(detections(&r) >= 1, "{kind} undetected");
            r.h.check_invariants().unwrap();
        }
    }

    #[test]
    fn tlb_flip_recovers_by_rewalk() {
        let mut r = parity_rig();
        warm(&mut r);
        r.h.inject_fault(FaultKind::TlbEntryFlip, 1)
            .expect("target");
        r.read(0x1080, 0x9080);
        assert_eq!(r.h.events().parity_refetches, 1);
        // The corrupted translation was flushed before any use: the
        // original mapping still reads back correctly.
        for i in 0..8u64 {
            r.read(0x1000 + i * 0x10, 0x9000 + i * 0x10);
        }
        r.h.check_invariants().unwrap();
    }

    #[test]
    fn write_buffer_drop_clears_dangling_buffer_bit() {
        // Long drain period keeps the pending write in the buffer.
        let mut r = Rig::new(
            &cfg()
                .with_parity()
                .with_write_buffer(4)
                .with_drain_period(64),
        );
        // Same V set, different R sets: the dirty victim enters the
        // write buffer and nothing folds it back in.
        r.write(0x1000, 0x9000);
        r.write(0x2000, 0x9100);
        assert!(!r.h.wb.is_empty(), "a write-back is pending");
        let rec =
            r.h.inject_fault(FaultKind::WriteBufferDrop, 0)
                .expect("target");
        assert_eq!(rec.kind, FaultKind::WriteBufferDrop);
        r.read(0x1080, 0x9080);
        assert_eq!(r.h.events().parity_machine_checks, 1);
        r.h.check_invariants().unwrap();
    }

    #[test]
    fn bus_level_kinds_are_not_injectable_through_the_port() {
        let mut r = parity_rig();
        warm(&mut r);
        for kind in FaultKind::ALL.iter().filter(|k| k.is_bus_level()) {
            assert!(r.h.inject_fault(*kind, 0).is_none());
        }
    }

    #[test]
    fn parity_off_records_no_poison_and_no_detections() {
        // No parity AND no runtime invariant checks: nothing notices.
        let raw = HierarchyConfig::direct_mapped(256, 4096, 16).unwrap();
        let mut r = Rig::new(&raw);
        warm(&mut r);
        r.h.inject_fault(FaultKind::RInclusionFlip, 0)
            .expect("target");
        // No syndrome was recorded, so nothing will ever be scrubbed —
        // the corruption lies latent until the structure is exercised,
        // which is exactly the silent propagation the campaigns show.
        assert_eq!(r.h.protection.outstanding(), 0);
        assert_eq!(detections(&r), 0);
    }

    #[test]
    fn scrub_runs_before_every_public_operation() {
        // Each public entry point must clear outstanding poison.
        let mut r = parity_rig();
        warm(&mut r);
        r.h.inject_fault(FaultKind::RInclusionFlip, 0)
            .expect("target");
        r.h.context_switch(Asid::new(1), Asid::new(2));
        assert!(detections(&r) >= 1, "context_switch scrubs");

        let mut r = parity_rig();
        warm(&mut r);
        r.h.inject_fault(FaultKind::TlbEntryFlip, 0)
            .expect("target");
        let mut bus = LoopbackBus::new();
        r.h.tlb_shootdown(Asid::new(7), Vpn::new(0x77), &mut bus);
        assert!(detections(&r) >= 1, "tlb_shootdown scrubs");
    }
}
