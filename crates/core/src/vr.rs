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
use crate::inline::InlineVec;
use crate::invariant::{self, InvariantExpect, InvariantViolation};
use crate::rcache::{ChildCache, CohState, FirstLevel, RCache, SecondLevel};
use crate::vcache::{child_line, VCache, VCaches, VMeta};

/// The paper's two-level virtual-real cache hierarchy for one processor.
#[derive(Debug)]
pub struct VrHierarchy {
    cpu: CpuId,
    /// The V-cache, or the split pair.
    l1: VCaches,
    /// The R-cache and the write buffer in front of it.
    l2: SecondLevel,
    tlb: Tlb,
    events: HierarchyEvents,
    /// Geometry used for physical L1-granule block ids (block size of L1).
    granule_geo: CacheGeometry,
    /// Page size (determines TLB indexing).
    page: vrcache_mem::page::PageSize,
    write_policy: L1WritePolicy,
    cs_policy: ContextSwitchPolicy,
    protocol: CoherenceProtocol,
    last_swapped_wb_at: Option<u64>,
    /// Modeled parity and data protection, with outstanding syndromes.
    protection: Protection,
}
vrcache_mem::clone_fields!(VrHierarchy {
    cpu,
    l1,
    l2,
    tlb,
    events,
    granule_geo,
    page,
    write_policy,
    cs_policy,
    protocol,
    last_swapped_wb_at,
    protection,
});

/// Why a completed write-back always lands: the V-R second level is
/// inclusive.
const LANDS: &str = "buffer bit implies a resident R-cache parent";

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
        let (data, instr) = match cfg.l1_org {
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
            l1: VCaches { data, instr },
            l2: SecondLevel::new(cfg, cfg.seed ^ 0x2),
            tlb: Tlb::new(cfg.tlb),
            events: HierarchyEvents::default(),
            granule_geo: cfg.l1,
            page: cfg.page,
            write_policy: cfg.l1_write_policy,
            cs_policy: cfg.context_switch_policy,
            protocol: cfg.protocol,
            last_swapped_wb_at: None,
            protection: Protection::new(cfg),
        }
    }

    /// Mutable access to the raw parts, for corruption-injection tests of
    /// [`invariant::check`].
    #[cfg(test)]
    pub(crate) fn corrupt_parts(
        &mut self,
    ) -> (&mut VCaches, &mut RCache, &mut WriteBuffer<Version>) {
        (&mut self.l1, &mut self.l2.cache, &mut self.l2.wb)
    }

    /// The V-cache (unified/data front).
    pub fn vcache(&self) -> &VCache {
        &self.l1.data
    }

    /// The instruction V-cache of a split first level.
    pub fn icache(&self) -> Option<&VCache> {
        self.l1.instr.as_ref()
    }

    /// The R-cache.
    pub fn rcache(&self) -> &RCache {
        &self.l2.cache
    }

    /// The write buffer between the levels.
    pub fn write_buffer(&self) -> &WriteBuffer<Version> {
        &self.l2.wb
    }

    /// The second-level TLB.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Mutable access to the TLB, the event counters, the V-cache and
    /// the R-cache, for tests that perturb a hierarchy's state directly
    /// (what a model checker's state key may leave out). Nothing keeps
    /// the invariants across such an edit.
    pub fn parts_mut(&mut self) -> (&mut Tlb, &mut HierarchyEvents, &mut VCache, &mut RCache) {
        (
            &mut self.tlb,
            &mut self.events,
            &mut self.l1.data,
            &mut self.l2.cache,
        )
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
        if self.l1.instr.is_some() && kind.is_instruction() {
            ChildCache::Instr
        } else {
            ChildCache::Data
        }
    }

    /// Handles a replaced (evicted) V-cache line: the shared retirement
    /// (unlink; a dirty line enters the write buffer) plus the swapped
    /// write-back accounting of the lazy context-switch policy.
    fn handle_v_victim(&mut self, victim: Line<VMeta>) {
        self.l2
            .retire(&mut self.events, child_line(&victim), true)
            .invariant_expect(LANDS);
        if victim.meta.dirty && victim.meta.swapped {
            self.events.swapped_writebacks += 1;
            self.events
                .swapped_writeback_intervals
                .note_event_at(&mut self.last_swapped_wb_at, self.l2.refs());
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
        let out = self.l1.front_mut(child).fill(
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
        self.l2.link(p1, child, vblock, dirty);
    }

    /// Update-protocol write: broadcast the new version of `p1` to every
    /// sharer; if nobody answered, the line quietly becomes private and
    /// future writes stay off the bus.
    fn broadcast_update(&mut self, p1: BlockId, v: Version, bus: &mut dyn SystemBus) {
        let p2 = self.l2.cache.l2_block_of(p1);
        let resp = bus.issue(BusRequest::Update {
            block: p2,
            granule: p1,
            version: v,
        });
        if !resp.shared_elsewhere {
            let line = self.l2.cache.peek_mut(p2).invariant_expect("resident");
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
        let p2 = self.l2.cache.l2_block_of(p1);
        let v = oracle.on_write(self.cpu, p1);
        match self.protocol {
            CoherenceProtocol::Invalidation => {
                if !already_exclusive {
                    self.l2.obtain_write_permission(p2, bus);
                }
            }
            CoherenceProtocol::Update => {
                let shared = self
                    .l2
                    .cache
                    .peek(p2)
                    .map(|l| l.meta.state == CohState::Shared)
                    .unwrap_or(false);
                if shared {
                    self.broadcast_update(p1, v, bus);
                }
            }
        }
        self.l2.mark_vdirty(p1);
        let vline = self
            .l1
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
        let (meta, si) = self
            .l2
            .cache
            .parent_mut(p1)
            .invariant_expect("resident parent");
        meta.subs[si].buffer = true;
        let now = self.l2.refs();
        if let Some(forced) = self.l2.wb.push_coalescing(p1, v, now) {
            self.l2
                .complete_writeback(forced.block, forced.payload)
                .invariant_expect(LANDS);
        }
    }

    /// Applies an update-protocol broadcast: the local copies of `granule`
    /// (R-cache subentry, V-cache child, buffered write) are refreshed to
    /// `version`; ownership moves to the updater.
    fn snoop_update(&mut self, p2: BlockId, granule: BlockId, version: Version) -> SnoopReply {
        let si = self.l2.cache.sub_index(granule);
        let Some(line) = self.l2.cache.peek_mut(p2) else {
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
                .l1
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
            let taken = self.l2.wb.coherence_take(granule);
            debug_assert!(taken.is_some(), "buffer bit implies a pending write");
            let line = self.l2.cache.peek_mut(p2).invariant_expect("resident");
            line.meta.subs[si].buffer = false;
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
        self.l2.tick().invariant_expect(LANDS);

        let child = self.route(access.kind);
        let vblock = self.v_key(access.asid, access.vaddr.raw());
        let p1 = self.granule_geo.pblock_of(access.paddr);
        let p2 = self.l2.cache.l2_block_of(p1);

        // ---- first level ----
        let l1_hit = {
            let front = self.l1.front_mut(child);
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
            self.l1
                .front_mut(child)
                .stats_mut()
                .record(access.kind, true);
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
                        self.l2.obtain_write_permission(p2, bus);
                        let v = oracle.on_write(self.cpu, p1);
                        let line = self
                            .l1
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
            return Ok(AccessOutcome::hit_l1());
        }
        self.l1
            .front_mut(child)
            .stats_mut()
            .record(access.kind, false);

        // ---- TLB (probed in parallel; its result is consumed only now) ----
        let tlb_hit = self.tlb.translate(
            access.asid,
            self.page.vpn_of(access.vaddr),
            self.page.ppn_of(access.paddr),
        );
        self.events.tlb_misses += u64::from(!tlb_hit);

        // A swapped line may occupy this very slot key; retire it first.
        if let Some(sw) = self.l1.front_mut(child).take_swapped(vblock) {
            self.handle_v_victim(sw);
        }

        // Write-through, no-write-allocate: a write miss never loads the
        // first level; the store goes straight down.
        if access.kind.is_write() && self.write_policy == L1WritePolicy::WriteThrough {
            let l2_hit = self.write_through_miss(p1, p2, bus);
            self.l2.cache.stats_mut().record(access.kind, l2_hit);
            let v = oracle.on_write(self.cpu, p1);
            self.forward_write_through(p1, v);
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
        let si = self.l2.cache.sub_index(p1);
        let l2_sub = self.l2.cache.lookup(p2).map(|l| l.meta.subs[si]);
        let (l2_hit, synonym) = match l2_sub {
            Some(sub) => {
                self.l2.cache.stats_mut().record(access.kind, true);

                // Newest data may be in the write buffer: fold it in first.
                if sub.buffer {
                    self.l2.fold_pending(p1).invariant_expect(LANDS);
                }

                let synonym = if sub.inclusion {
                    debug_assert!(
                        sub.v_block != vblock || sub.child != child,
                        "a resident same-key child would have been an L1 hit"
                    );
                    let same_set = sub.child == child
                        && self.l1.front(child).geometry().set_of(sub.v_block)
                            == self.l1.front(child).geometry().set_of(vblock);
                    let old = self
                        .l1
                        .front_mut(sub.child)
                        .invalidate(sub.v_block)
                        .invariant_expect("inclusion bit implies a V child");
                    debug_assert_eq!(old.meta.p_block, p1, "synonym points elsewhere");
                    if same_set {
                        self.events.synonym_sameset += 1;
                        // Re-tag in place: the freed way absorbs the block,
                        // so no replacement (and no write-back) happens.
                        let out = self.l1.front_mut(child).fill(
                            vblock,
                            VMeta {
                                p_block: p1,
                                dirty: old.meta.dirty,
                                swapped: false,
                                version: old.meta.version,
                            },
                        );
                        debug_assert!(out.evicted.is_none(), "sameset must not evict");
                        self.l2.link(p1, child, vblock, old.meta.dirty);
                        Some(SynonymKind::SameSet)
                    } else {
                        self.events.synonym_move += 1;
                        self.install_in_v(child, vblock, p1, old.meta.version, old.meta.dirty);
                        Some(SynonymKind::Move)
                    }
                } else {
                    // Plain data supply from the R-cache.
                    let version = self
                        .l2
                        .cache
                        .peek(p2)
                        .invariant_expect("resident")
                        .meta
                        .subs[si]
                        .version;
                    self.install_in_v(child, vblock, p1, version, false);
                    None
                };
                (true, synonym)
            }
            None => {
                self.l2.cache.stats_mut().record(access.kind, false);
                // The invalidation protocol turns a write miss into a
                // read-modified-write (fetch + invalidate); the update
                // protocol fetches normally and broadcasts the new data
                // afterwards, leaving sharers in place.
                let rmw =
                    access.kind.is_write() && self.protocol == CoherenceProtocol::Invalidation;
                let (_, version) = self.l2.fetch(&mut self.l1, &mut self.events, p1, rmw, bus);
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
                .l1
                .front(child)
                .peek(vblock)
                .invariant_expect("just installed")
                .meta
                .version;
            oracle.check_read(self.cpu, p1, version)?;
        }

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
                self.events.lines_swapped += self.l1.data.mark_all_swapped();
                if let Some(i) = self.l1.instr.as_mut() {
                    self.events.lines_swapped += i.mark_all_swapped();
                }
            }
            ContextSwitchPolicy::AsidTags => {
                // Tags disambiguate processes; nothing to do at a switch.
            }
            ContextSwitchPolicy::EagerFlush => {
                // The naive scheme: every line is invalidated now and every
                // dirty line written back now, in one burst.
                let (l1, l2, events) = (&mut self.l1, &mut self.l2, &mut self.events);
                for vcache in std::iter::once(&mut l1.data).chain(l1.instr.as_mut()) {
                    vcache.drain_all(|line| {
                        if l2.fold(child_line(&line)) {
                            events.eager_flush_writebacks += 1;
                        }
                    });
                }
            }
        }
    }

    fn tlb_shootdown(&mut self, asid: Asid, vpn: Vpn, _bus: &mut dyn SystemBus) -> u32 {
        self.scrub_poison();
        self.tlb.flush_asid_vpn(asid, vpn);
        // Retire every V-cache line of the affected virtual page: their
        // r-pointer linkage dies with the old translation. Dirty data is
        // folded into the R-cache (which stays valid — it is physically
        // addressed).
        //
        // The page's keys are contiguous: its first block is page-aligned
        // and an `AsidTags` tag sits above bit 48, so block `i` of the
        // page has key `first + i`. Only resident lines in that range are
        // visited, folded in ascending key order, D before I.
        let blocks_per_page = self.page.bytes() / self.granule_geo.block_bytes();
        let first_vblock = vpn.raw() * blocks_per_page;
        let first = self
            .v_key(asid, first_vblock << self.granule_geo.block_bits())
            .raw();
        let mut doomed: InlineVec<(BlockId, ChildCache), 8> = self
            .l1
            .lines()
            .filter(|(_, line)| {
                line.key
                    .raw()
                    .checked_sub(first)
                    .is_some_and(|i| i < blocks_per_page)
            })
            .map(|(child, line)| (line.key, child))
            .collect();
        doomed.sort_unstable();
        for &(key, child) in &doomed {
            let line = self
                .l1
                .remove(child, key)
                .invariant_expect("a listed line is resident");
            self.l2.fold(line);
        }
        doomed.len() as u32
    }

    fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
        debug_assert_ne!(txn.source, self.cpu, "a hierarchy never snoops itself");
        self.scrub_poison();
        let (l1, events) = (&mut self.l1, &mut self.events);
        match txn.op {
            BusOp::ReadMiss => self.l2.snoop_read(l1, events, txn.block),
            BusOp::Invalidate => self.l2.snoop_invalidate(l1, events, txn.block),
            BusOp::ReadModifiedWrite => {
                // Treated as a read-miss followed by an invalidation.
                let mut r = self.l2.snoop_read(l1, events, txn.block);
                let inv = self.l2.snoop_invalidate(l1, events, txn.block);
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
        }
    }

    fn coh_presence(&self, block: BlockId) -> BlockPresence {
        // Inclusion means the R-cache tag array is the whole story: no V
        // line or buffered write exists without a resident R parent.
        match self.l2.cache.peek(block).map(|line| line.meta.state) {
            Some(CohState::Private) => BlockPresence::Private,
            Some(CohState::Shared) => BlockPresence::Shared,
            None => BlockPresence::Absent,
        }
    }

    fn cpu(&self) -> CpuId {
        self.cpu
    }

    fn l1_stats(&self) -> CacheStats {
        let mut s = *self.l1.data.stats();
        if let Some(i) = &self.l1.instr {
            s.merge(i.stats());
        }
        s
    }

    fn l1_split_stats(&self) -> Option<(CacheStats, CacheStats)> {
        self.l1
            .instr
            .as_ref()
            .map(|i| (*i.stats(), *self.l1.data.stats()))
    }

    fn l2_stats(&self) -> CacheStats {
        *self.l2.cache.stats()
    }

    fn events(&self) -> &HierarchyEvents {
        &self.events
    }

    fn write_buffer_stats(&self) -> vrcache_cache::write_buffer::WriteBufferStats {
        self.l2.wb.stats()
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        invariant::check(&self.l2.view(&self.l1))
    }
}

impl VrHierarchy {
    /// The second-level half of a write-through store miss: secures a
    /// resident, exclusive parent line (fetching with read-modified-write
    /// if absent) and invalidates any synonym copy in the first level.
    /// Returns whether the second level hit.
    fn write_through_miss(&mut self, p1: BlockId, p2: BlockId, bus: &mut dyn SystemBus) -> bool {
        let si = self.l2.cache.sub_index(p1);
        if let Some(line) = self.l2.cache.lookup(p2) {
            let sub = line.meta.subs[si];
            if sub.inclusion {
                // The store supersedes the (clean) synonym copy.
                let old = self
                    .l1
                    .remove(sub.child, sub.v_block)
                    .invariant_expect("inclusion bit implies a V child");
                debug_assert!(!old.dirty, "write-through lines stay clean");
                self.l2.fold(old);
            }
            self.l2.obtain_write_permission(p2, bus);
            true
        } else {
            self.l2.fetch(&mut self.l1, &mut self.events, p1, true, bus);
            false
        }
    }
}

// ---- modeled parity: the V-R recovery policy and fault port ----
impl Scrub for VrHierarchy {
    fn scrub_parts(&mut self) -> ScrubParts<'_> {
        ScrubParts {
            protection: &mut self.protection,
            tlb: &mut self.tlb,
            events: &mut self.events,
            l2: Some(&mut self.l2.cache),
        }
    }

    /// Recovers a poisoned V-cache line. Parity identifies the entry but
    /// cannot correct it, so the line is discarded; what else must go
    /// depends on which field faulted.
    fn scrub_l1_line(&mut self, kind: FaultKind, child: ChildCache, key: BlockId) {
        let Some(line) = self.l1.front_mut(child).invalidate(key) else {
            // The poisoned line was already replaced; nothing to repair.
            self.events.parity_refetches += 1;
            return;
        };
        match kind {
            FaultKind::RPointerFlip => {
                // The r-pointer itself is suspect: locate the parent by
                // its v-pointer instead and sever the linkage.
                self.l2
                    .unlink_where(|s| s.child == child && s.v_block == key);
                // Pointer metadata faulted — even a clean line may have
                // been reachable through a wrong parent.
                self.events.parity_machine_checks += 1;
            }
            _ => {
                // Tag, state or data flip: the r-pointer is trusted.
                if let Some((meta, si)) = self.l2.cache.parent_mut(line.meta.p_block) {
                    let sub = &mut meta.subs[si];
                    sub.inclusion = false;
                    sub.vdirty = false;
                }
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

    /// Recovers a poisoned R-cache line: the shared teardown.
    fn scrub_l2_line(&mut self, kind: FaultKind, p2: BlockId) {
        self.l2.scrub_line(&mut self.l1, &mut self.events, kind, p2);
    }

    fn l1_word(&mut self, child: ChildCache, key: BlockId) -> Option<&mut Version> {
        Some(&mut self.l1.front_mut(child).peek_mut(key)?.meta.version)
    }
}

impl FaultPort for VrHierarchy {
    fn inject_fault(&mut self, kind: FaultKind, seed: u64) -> Option<FaultRecord> {
        let prot = &mut self.protection;
        match kind {
            FaultKind::VTagFlip => prot.inject_tag_flip(self.l1.data.array_mut(), seed, "v-line"),
            FaultKind::VStateFlip => {
                prot.inject_state_flip(self.l1.data.array_mut(), seed, "v-line")
            }
            FaultKind::RPointerFlip => {
                let key = fault::pick_line(self.l1.data.iter(), seed)?;
                let line = self.l1.data.peek_mut(key)?;
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
                let v_set_bits = self.l1.data.geometry().set_bits();
                self.l2
                    .cache
                    .inject_r_side(prot, kind, seed, v_set_bits, "r-line")
            }
            FaultKind::TlbEntryFlip => prot.inject_tlb_flip(&mut self.tlb, seed),
            FaultKind::WriteBufferDrop => prot.inject_wb_drop(&mut self.l2.wb, seed),
            FaultKind::VDataBit => prot.inject_data_bit(self.l1.data.array_mut(), seed, "v-line"),
            FaultKind::RDataBit => self.l2.cache.inject_data_bit(prot, seed, "r-line"),
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
        HierarchyConfig::direct_mapped(256, 4096, 16).unwrap()
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
            self.go_as(Asid::new(1), kind, va, pa)
        }

        fn go_as(&mut self, asid: Asid, kind: AccessKind, va: u64, pa: u64) -> AccessOutcome {
            let out = self
                .h
                .access(
                    &MemAccess {
                        cpu: CpuId::new(0),
                        asid,
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

        fn switch(&mut self, from: Asid, to: Asid) {
            self.h.context_switch(from, to);
            self.h.check_invariants().expect("invariants hold");
        }

        fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
            let reply = self.h.snoop(txn);
            self.h.check_invariants().expect("invariants hold");
            reply
        }

        fn shootdown(&mut self, asid: Asid, vpn: Vpn) -> u32 {
            let disturbed = self.h.tlb_shootdown(asid, vpn, &mut self.bus);
            self.h.check_invariants().expect("invariants hold");
            disturbed
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
        let reply = r.snoop(&BusTransaction::new(BusOp::ReadMiss, CpuId::new(1), p2));
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
        let disturbed = r.shootdown(Asid::new(1), vpn);
        assert_eq!(disturbed, 1, "the page's first block must be retired");
    }

    /// The page walk as it was before it visited only resident lines:
    /// probe every block of the page, D before I. The reference the
    /// resident-line walk must match.
    fn probe_walk(h: &mut VrHierarchy, asid: Asid, vpn: Vpn) -> u32 {
        h.scrub_poison();
        h.tlb.flush_asid_vpn(asid, vpn);
        let blocks_per_page = h.page.bytes() / h.granule_geo.block_bytes();
        let first_vblock = vpn.raw() * blocks_per_page;
        let mut disturbed = 0;
        for i in 0..blocks_per_page {
            let key = h.v_key(asid, (first_vblock + i) << h.granule_geo.block_bits());
            for child in [ChildCache::Data, ChildCache::Instr] {
                if let Some(line) = h.l1.remove(child, key) {
                    disturbed += 1;
                    h.l2.fold(line);
                }
            }
        }
        disturbed
    }

    /// A 16-line fully-associative first level, so every line the edge
    /// tests install stays resident until the shootdown.
    fn edge_cfg() -> HierarchyConfig {
        let l1 = CacheGeometry::new(256, 16, 16).unwrap();
        let l2 = CacheGeometry::direct_mapped(4096, 16).unwrap();
        HierarchyConfig::new(l1, l2, vrcache_mem::page::PageSize::SIZE_4K).unwrap()
    }

    /// Fills both edges of the page at 0x1000 (filled out of order, some
    /// dirty, the inner two through the I half of a split first level),
    /// the last block of the page below and the first of the page above,
    /// and under `AsidTags` the page's edges again under ASID 2. Shoots
    /// the page down under ASID 1, checks that exactly the page's lines
    /// left and that the result equals [`probe_walk`]'s, and returns the
    /// lines disturbed.
    fn shoot_page_edges(cfg: &HierarchyConfig) -> u32 {
        let (a1, a2) = (Asid::new(1), Asid::new(2));
        let inner = match cfg.l1_org {
            L1Organization::Split => AccessKind::InstrFetch,
            L1Organization::Unified => AccessKind::DataRead,
        };
        let tagged = cfg.context_switch_policy == ContextSwitchPolicy::AsidTags;
        let mut r = Rig::new(cfg);
        r.go_as(a1, AccessKind::DataWrite, 0x1ff0, 0x9050); // last block
        r.go_as(a1, inner, 0x1fe0, 0x9040);
        r.go_as(a1, AccessKind::DataRead, 0x2000, 0x9060); // next page
        r.go_as(a1, inner, 0x1010, 0x9030);
        r.go_as(a1, AccessKind::DataWrite, 0x1000, 0x9020); // first block
        r.go_as(a1, AccessKind::DataWrite, 0x0ff0, 0x9010); // previous page
        let mut survivors = vec![(a1, 0x0ff0), (a1, 0x2000)];
        if tagged {
            r.go_as(a2, AccessKind::DataWrite, 0x1000, 0x9070);
            r.go_as(a2, AccessKind::DataRead, 0x1ff0, 0x9080);
            survivors.extend([(a2, 0x1000), (a2, 0x1ff0)]);
        }

        let vpn = cfg.page.vpn_of(VirtAddr::new(0x1000));
        let mut reference = r.h.clone();
        let expected = probe_walk(&mut reference, a1, vpn);
        let disturbed = r.shootdown(a1, vpn);
        assert_eq!(disturbed, expected);
        assert_eq!(format!("{:?}", r.h), format!("{reference:?}"));

        let mut resident: Vec<BlockId> = r.h.l1.lines().map(|(_, l)| l.key).collect();
        let mut kept: Vec<BlockId> = survivors
            .iter()
            .map(|&(asid, va)| r.h.v_key(asid, va))
            .collect();
        resident.sort_unstable();
        kept.sort_unstable();
        assert_eq!(resident, kept, "only the page's own lines leave");
        disturbed
    }

    #[test]
    fn shootdown_walk_removes_exactly_the_page_unified() {
        assert_eq!(shoot_page_edges(&edge_cfg()), 4);
    }

    #[test]
    fn shootdown_walk_removes_exactly_the_page_split() {
        assert_eq!(shoot_page_edges(&edge_cfg().with_split_l1()), 4);
    }

    #[test]
    fn shootdown_walk_spares_other_asids_under_asid_tags() {
        assert_eq!(shoot_page_edges(&edge_cfg().with_asid_tags()), 4);
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
        let reply = r.snoop(&txn);
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
        r.switch(Asid::new(1), Asid::new(2));
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
        r.switch(Asid::new(2), Asid::new(1));
        let out = r.go(AccessKind::DataRead, 0x1000, 0x9000);
        assert_eq!(out.l2_hit, Some(true));
    }

    #[test]
    fn swapped_writeback_happens_on_replacement_not_switch() {
        let mut r = Rig::new(&cfg());
        r.write(0x1000, 0x9000);
        r.write(0x1010, 0x9010);
        r.switch(Asid::new(1), Asid::new(2));
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
        r.switch(Asid::new(1), Asid::new(2));
        r.switch(Asid::new(2), Asid::new(1));
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
                r.switch(Asid::new(1), Asid::new(1));
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
        r.switch(Asid::new(1), Asid::new(2));
        assert_eq!(
            r.h.events().eager_flush_writebacks,
            3,
            "all dirty lines at once"
        );
        assert_eq!(r.h.vcache().occupancy(), 0, "eager flush empties the cache");
        assert_eq!(r.h.events().swapped_writebacks, 0);
        // Data survives: the old process can read it back via the R-cache.
        r.switch(Asid::new(2), Asid::new(1));
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
            r.switch(Asid::new(1), Asid::new(2));
            assert_eq!(r.h.events().eager_flush_writebacks, expect_eager);
        }
    }

    #[test]
    fn asid_tags_survive_context_switches() {
        let cfg = cfg().with_asid_tags();
        let mut r = Rig::new(&cfg);
        r.write(0x1000, 0x9000); // asid 1 in the Rig
        r.switch(Asid::new(1), Asid::new(2));
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
        r.switch(Asid::new(2), Asid::new(1));
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
        r.switch(Asid::new(1), Asid::new(2));
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
        r.switch(Asid::new(2), Asid::new(1));
        let out = r.read(0x1000, 0x9000);
        assert!(!out.l1_hit);
        assert!(out.synonym.is_some());
    }

    #[test]
    fn events_display_nonempty() {
        let mut r = Rig::new(&cfg());
        assert!(!r.h.events().to_string().is_empty());
        assert_eq!(r.h.events().tlb_misses, 0);
        // The first miss translates (a TLB miss); its page then hits.
        r.read(0x1000, 0x9000);
        r.read(0x1010, 0x9010);
        assert_eq!(r.h.events().tlb_misses, 1);
        assert!(r
            .h
            .tlb()
            .peek(Asid::new(1), cfg().page.vpn_of(VirtAddr::new(0x1000)))
            .is_some());
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
        assert!(!r.h.l2.wb.is_empty(), "a write-back is pending");
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
        // No parity: nothing notices.
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
        r.switch(Asid::new(1), Asid::new(2));
        assert!(detections(&r) >= 1, "context_switch scrubs");

        let mut r = parity_rig();
        warm(&mut r);
        r.h.inject_fault(FaultKind::TlbEntryFlip, 0)
            .expect("target");
        r.shootdown(Asid::new(7), Vpn::new(0x77));
        assert!(detections(&r) >= 1, "tlb_shootdown scrubs");
    }
}
