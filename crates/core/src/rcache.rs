//! The physically-addressed second-level cache.
//!
//! An [`RCache`] line is tagged by a physical block id at L2 granularity
//! and carries the paper's Figure 3 R-cache tag entry: a coherence state,
//! an rdirty bit, and one [`SubEntry`] per contained first-level-sized
//! subblock holding the *inclusion* bit, the *buffer* bit, the *vdirty*
//! bit and the *v-pointer* (kept at full precision as the child's virtual
//! block id; see [`layout`](crate::layout) for the real bit budget).
//!
//! `SecondLevel` is everything below the first level that the V-R
//! hierarchy and the inclusive R-R baseline share (the paper's Table 4
//! interface): the R-cache, the write buffer in front of it, and the
//! protocol steps that read or write the subentries, including the
//! second-level half of every first-level miss. It reaches the
//! first level only through the [`FirstLevel`] trait, which the V-cache
//! pair and the physical L1 each implement.

use vrcache_bus::oracle::Version;
use vrcache_cache::array::{CacheArray, FillOutcome, Line};
use vrcache_cache::geometry::{BlockId, BlockRun, CacheGeometry};
use vrcache_cache::replacement::ReplacementPolicy;
use vrcache_cache::stats::CacheStats;
use vrcache_cache::write_buffer::WriteBuffer;

use crate::bus_api::{BusRequest, SnoopReply, SystemBus};
use crate::config::HierarchyConfig;
use crate::events::HierarchyEvents;
use crate::fault::{self, FaultKind, FaultRecord, Poison, Protection};
use crate::invariant::{HierarchyView, InvariantExpect};

/// Bus-coherence state of an R-cache line (invalid lines are simply absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohState {
    /// At least one other hierarchy may hold the block.
    Shared,
    /// No other hierarchy holds the block; writes need no bus transaction.
    Private,
}

/// Which first-level cache holds a subentry's child (split organization).
/// Ordered D before I, the order a page walk folds a block's two lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ChildCache {
    /// The (unified or data) V-cache.
    #[default]
    Data,
    /// The instruction V-cache of a split first level.
    Instr,
}

/// Per-subblock state: one per contained L1-sized block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubEntry {
    /// The subblock is present in the first level.
    pub inclusion: bool,
    /// The subblock's dirty data sits in the write buffer between the
    /// levels.
    pub buffer: bool,
    /// The first-level copy is dirty (newer than this level's data).
    pub vdirty: bool,
    /// Which first-level cache holds the child (meaningful when
    /// `inclusion` is set).
    pub child: ChildCache,
    /// Full-precision v-pointer: the child's virtual block id (meaningful
    /// when `inclusion` is set).
    pub v_block: BlockId,
    /// Oracle version of the data *at this level*. Stale while `vdirty` or
    /// `buffer` is set — the newer copy is upstream.
    pub version: Version,
}

impl SubEntry {
    /// A subentry for data arriving from the bus with version `version`.
    pub fn fresh(version: Version) -> Self {
        SubEntry {
            inclusion: false,
            buffer: false,
            vdirty: false,
            child: ChildCache::Data,
            v_block: BlockId::new(0),
            version,
        }
    }

    /// True when the first level (cache or buffer) may hold newer data.
    pub fn upstream(&self) -> bool {
        self.inclusion || self.buffer
    }
}

/// A line's subentries, read and indexed as a slice. One subentry
/// (`B2 = B1`, the paper's main configuration) is held in the line
/// itself, so such a fill allocates nothing; more are boxed. It is the
/// size of one subentry, which every slot of an R-cache array pays
/// whether filled or not: room for two in place made replaying the full
/// pops trace with 256 KiB second levels peak ~0.6 MB above a boxed
/// `Vec`, where one in place peaks ~0.8 MB below it (an
/// [`InlineVec`](crate::inline::InlineVec) of one would add a length
/// and a tag, 8 more bytes a slot).
#[derive(PartialEq, Eq)]
pub enum Subs {
    /// The one subentry of a line as large as a first-level block.
    One(SubEntry),
    /// Two or more subentries.
    Many(Box<[SubEntry]>),
}

impl Clone for Subs {
    fn clone(&self) -> Self {
        match self {
            Subs::One(sub) => Subs::One(*sub),
            Subs::Many(subs) => Subs::Many(subs.clone()),
        }
    }

    /// Reuses a boxed run of the same length.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Subs::Many(subs), Subs::Many(from)) => subs.clone_from(from),
            (this, from) => *this = from.clone(),
        }
    }
}

impl std::ops::Deref for Subs {
    type Target = [SubEntry];

    fn deref(&self) -> &[SubEntry] {
        match self {
            Subs::One(sub) => std::slice::from_ref(sub),
            Subs::Many(subs) => subs,
        }
    }
}

impl std::ops::DerefMut for Subs {
    fn deref_mut(&mut self) -> &mut [SubEntry] {
        match self {
            Subs::One(sub) => std::slice::from_mut(sub),
            Subs::Many(subs) => subs,
        }
    }
}

impl FromIterator<SubEntry> for Subs {
    fn from_iter<I: IntoIterator<Item = SubEntry>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        match (iter.next(), iter.next()) {
            (Some(sub), None) => Subs::One(sub),
            (first, second) => Subs::Many(first.into_iter().chain(second).chain(iter).collect()),
        }
    }
}

/// Prints as the slice of subentries.
impl std::fmt::Debug for Subs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Per-line metadata of the R-cache.
#[derive(Debug, PartialEq, Eq)]
pub struct RMeta {
    /// Coherence state.
    pub state: CohState,
    /// This level's data is newer than memory.
    pub rdirty: bool,
    /// One subentry per contained L1-sized subblock, in address order.
    pub subs: Subs,
}
vrcache_mem::clone_fields!(RMeta {
    state,
    rdirty,
    subs
});

impl RMeta {
    /// Metadata for a block just fetched from the bus: `versions[i]` is the
    /// data version of subblock `i`.
    pub fn fetched(state: CohState, versions: &[Version]) -> Self {
        RMeta {
            state,
            rdirty: false,
            subs: versions.iter().map(|v| SubEntry::fresh(*v)).collect(),
        }
    }

    /// True when no subblock has first-level presence (safe to evict
    /// without disturbing the first level).
    pub fn inclusion_clear(&self) -> bool {
        !self.subs.iter().any(SubEntry::upstream)
    }
}

impl SubEntry {
    /// Folds removed first-level `child` back into this subentry: the
    /// linkage is cleared and dirty data lands here. Returns whether the
    /// child was dirty (the owning line must then become rdirty).
    fn fold(&mut self, child: ChildLine) -> bool {
        self.inclusion = false;
        self.vdirty = false;
        if child.dirty {
            self.version = child.version;
        }
        child.dirty
    }
}

/// The physically-addressed, write-back second-level cache.
#[derive(Debug)]
pub struct RCache {
    array: CacheArray<RMeta>,
    stats: CacheStats,
    l1geo: CacheGeometry,
    subblocks: u32,
}
vrcache_mem::clone_fields!(RCache {
    array,
    stats,
    l1geo,
    subblocks
});

impl RCache {
    /// Creates an empty R-cache whose subentries correspond to blocks of
    /// `l1geo`.
    ///
    /// # Panics
    ///
    /// Panics if `geometry`'s blocks are smaller than `l1geo`'s.
    pub fn new(
        geometry: CacheGeometry,
        l1geo: CacheGeometry,
        policy: ReplacementPolicy,
        seed: u64,
    ) -> Self {
        let subblocks = geometry.subblocks_per_block(&l1geo);
        RCache {
            array: CacheArray::new(geometry, policy, seed),
            stats: CacheStats::default(),
            l1geo,
            subblocks,
        }
    }

    /// The L2 geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        self.array.geometry()
    }

    /// Subblocks per line (`B2/B1`).
    pub fn subblocks(&self) -> u32 {
        self.subblocks
    }

    /// Hit/miss statistics (recorded by the owning hierarchy).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable statistics access for the owning hierarchy.
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// The L2 block containing physical L1-granule `p1`.
    pub fn l2_block_of(&self, p1: BlockId) -> BlockId {
        self.l1geo.block_in(p1, self.array.geometry())
    }

    /// The subentry index of granule `p1` within its L2 block.
    pub fn sub_index(&self, p1: BlockId) -> usize {
        self.array.geometry().subblock_index(&self.l1geo, p1) as usize
    }

    /// The granule block ids of L2 block `p2`, in subentry order.
    pub fn granules_of(&self, p2: BlockId) -> BlockRun {
        self.array.geometry().subblocks_of(&self.l1geo, p2)
    }

    /// The resident line holding granule `p1`'s subentry, with the
    /// subentry's index (no replacement update).
    pub(crate) fn parent_mut(&mut self, p1: BlockId) -> Option<(&mut RMeta, usize)> {
        let si = self.sub_index(p1);
        let line = self.peek_mut(self.l2_block_of(p1))?;
        Some((&mut line.meta, si))
    }

    /// Looks up L2 block `p2`, refreshing replacement state.
    pub fn lookup(&mut self, p2: BlockId) -> Option<&mut Line<RMeta>> {
        self.array.lookup(p2)
    }

    /// Looks up without touching replacement state.
    pub fn peek(&self, p2: BlockId) -> Option<&Line<RMeta>> {
        self.array.peek(p2)
    }

    /// Mutable peek (bus-induced operations must not disturb LRU).
    pub fn peek_mut(&mut self, p2: BlockId) -> Option<&mut Line<RMeta>> {
        self.array.peek_mut(p2)
    }

    /// Inserts L2 block `p2`, preferring victims with every inclusion and
    /// buffer bit clear (the paper's relaxed inclusion rule). When
    /// [`FillOutcome::fell_back`] is set the caller must invalidate the
    /// victim's first-level children — an *inclusion invalidation*.
    pub fn fill(&mut self, p2: BlockId, meta: RMeta) -> FillOutcome<RMeta> {
        self.array
            .fill(p2, meta, |line| line.meta.inclusion_clear())
    }

    /// Invalidates L2 block `p2` (bus-induced), returning the line.
    pub fn invalidate(&mut self, p2: BlockId) -> Option<Line<RMeta>> {
        self.array.invalidate(p2)
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.array.occupancy()
    }

    /// Iterates over valid lines (diagnostics and invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = &Line<RMeta>> {
        self.array.iter()
    }
}

/// One first-level line as the second level sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildLine {
    /// The line's first-level key: what a subentry's v-pointer names.
    pub key: BlockId,
    /// The physical L1-sized granule it caches: its r-pointer.
    pub p_block: BlockId,
    /// The line holds data newer than its parent.
    pub dirty: bool,
    /// Oracle version of the held data.
    pub version: Version,
}

/// The first level above a `SecondLevel`: the V-cache pair of the V-R
/// hierarchy, or the physical L1 of the R-R baseline. Lines are named by
/// the `(child, key)` pair a subentry records.
pub trait FirstLevel {
    /// The line at `key` in `child`, swapped or not.
    fn child(&self, child: ChildCache, key: BlockId) -> Option<ChildLine>;

    /// Removes the line at `key` in `child`.
    fn remove(&mut self, child: ChildCache, key: BlockId) -> Option<ChildLine>;

    /// Cleans the dirty line at `key` in `child` for a read snoop's
    /// flush (it is no longer exclusive either) and returns its data.
    fn clean(&mut self, child: ChildCache, key: BlockId) -> Option<Version>;

    /// Every resident line with the cache holding it.
    fn lines(&self) -> impl Iterator<Item = (ChildCache, ChildLine)> + '_;
}

/// A buffered write-back that completed after its parent line left a
/// non-inclusive second level: the granule and its data, bound for
/// memory. An inclusive second level never yields one, so the methods
/// that complete write-backs return `Result<(), Orphan>`.
pub(crate) type Orphan = (BlockId, Version);

/// The R-cache, the write buffer in front of it, and their protocol
/// steps, shared by the V-R hierarchy and the R-R baselines.
#[derive(Debug)]
pub(crate) struct SecondLevel {
    /// The second-level cache.
    pub(crate) cache: RCache,
    /// The write buffer between the levels.
    pub(crate) wb: WriteBuffer<Version>,
    drain_period: u64,
    /// References left until the next drain: a countdown from
    /// `drain_period`, so a reference costs no division.
    drain_in: u64,
    /// Reference clock (this CPU's references), for interval histograms.
    refs: u64,
    last_wb_at: Option<u64>,
}
vrcache_mem::clone_fields!(SecondLevel {
    cache,
    wb,
    drain_period,
    drain_in,
    refs,
    last_wb_at,
});

impl SecondLevel {
    /// The second level `cfg` describes; `seed` seeds its replacement.
    pub(crate) fn new(cfg: &HierarchyConfig, seed: u64) -> Self {
        SecondLevel {
            cache: RCache::new(cfg.l2, cfg.l1, cfg.l2_policy, seed),
            wb: WriteBuffer::new(cfg.write_buffer),
            drain_period: cfg.wb_drain_period.max(1),
            drain_in: cfg.wb_drain_period.max(1),
            refs: 0,
            last_wb_at: None,
        }
    }

    /// The structures the invariant checker inspects, under `l1`.
    pub(crate) fn view<'a, L>(&'a self, l1: &'a L) -> HierarchyView<'a, L> {
        HierarchyView {
            l1,
            l2: &self.cache,
            wb: &self.wb,
        }
    }

    /// References counted so far.
    pub(crate) fn refs(&self) -> u64 {
        self.refs
    }

    /// Counts one processor reference. The write buffer drains in
    /// parallel with execution: one pending write-back completes per
    /// drain period (the second level retires one write per t2/t1
    /// first-level cycles), at every `drain_period`-th reference.
    pub(crate) fn tick(&mut self) -> Result<(), Orphan> {
        self.refs += 1;
        self.drain_in -= 1;
        if self.drain_in == 0 {
            self.drain_in = self.drain_period;
            if let Some(e) = self.wb.drain_one() {
                return self.complete_writeback(e.block, e.payload);
            }
        }
        Ok(())
    }

    /// Completes a pending write-back of granule `p1`: the data lands in
    /// the parent line, which becomes dirty with respect to memory.
    pub(crate) fn complete_writeback(
        &mut self,
        p1: BlockId,
        version: Version,
    ) -> Result<(), Orphan> {
        let Some((meta, si)) = self.cache.parent_mut(p1) else {
            return Err((p1, version));
        };
        let sub = &mut meta.subs[si];
        sub.buffer = false;
        sub.version = version;
        meta.rdirty = true;
        Ok(())
    }

    /// Retires a replaced first-level line. Under inclusion (`linked`)
    /// its parent subentry is unlinked; a dirty victim enters the write
    /// buffer (setting the buffer bit: the paper's replacement signal).
    /// A full buffer completes its oldest entry at once (a processor
    /// stall, counted by the buffer's statistics).
    pub(crate) fn retire(
        &mut self,
        events: &mut HierarchyEvents,
        victim: ChildLine,
        linked: bool,
    ) -> Result<(), Orphan> {
        if linked {
            let (meta, si) = self
                .cache
                .parent_mut(victim.p_block)
                .invariant_expect("inclusion property: an L1 victim has an L2 parent");
            let sub = &mut meta.subs[si];
            debug_assert!(sub.inclusion, "L1 victim's inclusion bit was not set");
            debug_assert_eq!(sub.v_block, victim.key, "v-pointer out of sync");
            debug_assert_eq!(sub.vdirty, victim.dirty, "vdirty out of sync");
            sub.inclusion = false;
            sub.vdirty = false;
            if victim.dirty {
                sub.buffer = true;
            }
        }
        if !victim.dirty {
            return Ok(());
        }
        events.l1_writebacks += 1;
        events
            .writeback_intervals
            .note_event_at(&mut self.last_wb_at, self.refs);
        match self.wb.push(victim.p_block, victim.version, self.refs) {
            Some(forced) => self.complete_writeback(forced.block, forced.payload),
            None => Ok(()),
        }
    }

    /// Links granule `p1`'s parent subentry to its new first-level copy
    /// at `(child, key)`.
    pub(crate) fn link(&mut self, p1: BlockId, child: ChildCache, key: BlockId, dirty: bool) {
        let (meta, si) = self
            .cache
            .parent_mut(p1)
            .invariant_expect("install requires a resident parent");
        let sub = &mut meta.subs[si];
        sub.inclusion = true;
        sub.v_block = key;
        sub.child = child;
        sub.vdirty = dirty;
    }

    /// Marks granule `p1`'s first-level copy dirty in its parent.
    pub(crate) fn mark_vdirty(&mut self, p1: BlockId) {
        let (meta, si) = self
            .cache
            .parent_mut(p1)
            .invariant_expect("a written granule has a resident parent");
        meta.subs[si].vdirty = true;
    }

    /// Clears the linkage (inclusion and vdirty) of every linked
    /// subentry `pred` selects, by a walk of the whole second level:
    /// parity recovery's repair when no trusted r-pointer names the
    /// parent (a suspect pointer, or a child already gone).
    pub(crate) fn unlink_where(&mut self, pred: impl Fn(&SubEntry) -> bool) {
        let targets: Vec<(BlockId, usize)> = self
            .cache
            .iter()
            .flat_map(|line| {
                let p2 = line.block;
                line.meta
                    .subs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.inclusion && pred(s))
                    .map(move |(i, _)| (p2, i))
            })
            .collect();
        for (p2, si) in targets {
            let sub = &mut self
                .cache
                .peek_mut(p2)
                .invariant_expect("resident")
                .meta
                .subs[si];
            sub.inclusion = false;
            sub.vdirty = false;
        }
    }

    /// Folds a pending buffered write of granule `p1`, the newest copy of
    /// its data, into the parent line before a first-level miss reads it.
    pub(crate) fn fold_pending(&mut self, p1: BlockId) -> Result<(), Orphan> {
        match self.wb.force_complete(p1) {
            Some(e) => self.complete_writeback(p1, e.payload),
            None => Ok(()),
        }
    }

    /// The second-level half of a miss at both levels: fetches granule
    /// `p1`'s block over the bus (a read-modified-write when `exclusive`,
    /// else a read-miss, private unless another cache holds it), installs
    /// it, and evicts the replaced line. Returns the line's state and
    /// `p1`'s data.
    pub(crate) fn fetch<L: FirstLevel>(
        &mut self,
        l1: &mut L,
        events: &mut HierarchyEvents,
        p1: BlockId,
        exclusive: bool,
        bus: &mut dyn SystemBus,
    ) -> (CohState, Version) {
        let (block, subblocks) = (self.cache.l2_block_of(p1), self.cache.subblocks());
        let resp = bus.issue(if exclusive {
            BusRequest::ReadModifiedWrite { block, subblocks }
        } else {
            BusRequest::ReadMiss { block, subblocks }
        });
        let state = if exclusive || !resp.shared_elsewhere {
            CohState::Private
        } else {
            CohState::Shared
        };
        let meta = RMeta::fetched(state, &resp.granule_versions);
        let version = meta.subs[self.cache.sub_index(p1)].version;
        if let Some(victim) = self.cache.fill(block, meta).evicted {
            self.evict(l1, events, victim, bus);
        }
        (state, version)
    }

    /// Folds first-level line `child`, removed outside replacement (a
    /// TLB shootdown, an eager flush), into its resident parent. Returns
    /// whether it carried dirty data.
    pub(crate) fn fold(&mut self, child: ChildLine) -> bool {
        let (meta, si) = self
            .cache
            .parent_mut(child.p_block)
            .invariant_expect("inclusion property: a removed child has a parent");
        let dirty = meta.subs[si].fold(child);
        if dirty {
            meta.rdirty = true;
        }
        dirty
    }

    /// Evicts a replaced R-cache line: buffered writes and first-level
    /// children fold into it first (a child here is the paper's
    /// *inclusion invalidation*), then a dirty line is written back.
    pub(crate) fn evict<L: FirstLevel>(
        &mut self,
        l1: &mut L,
        events: &mut HierarchyEvents,
        victim: Line<RMeta>,
        bus: &mut dyn SystemBus,
    ) {
        let p2 = victim.block;
        let mut meta = victim.meta;
        let granules = self.cache.granules_of(p2);
        for (i, sub) in meta.subs.iter_mut().enumerate() {
            if sub.buffer {
                let e = self
                    .wb
                    .force_complete(granules.at(i))
                    .invariant_expect("buffer bit implies a pending write");
                sub.version = e.payload;
                sub.buffer = false;
                meta.rdirty = true;
            }
            if sub.inclusion {
                events.inclusion_invalidations += 1;
                let child = l1
                    .remove(sub.child, sub.v_block)
                    .invariant_expect("inclusion bit implies a first-level child");
                debug_assert_eq!(child.p_block, granules.at(i));
                if sub.fold(child) {
                    meta.rdirty = true;
                }
            }
        }
        if meta.rdirty {
            events.l2_writebacks += 1;
            bus.issue(BusRequest::WriteBack {
                block: p2,
                granules: granules
                    .into_iter()
                    .zip(meta.subs.iter())
                    .map(|(g, s)| (g, s.version))
                    .collect(),
            });
        }
    }

    /// Makes resident line `p2` private before a write, invalidating the
    /// other copies over the bus if it is shared. Returns false when `p2`
    /// is not resident.
    pub(crate) fn obtain_write_permission(&mut self, p2: BlockId, bus: &mut dyn SystemBus) -> bool {
        let Some(line) = self.cache.peek_mut(p2) else {
            return false;
        };
        if line.meta.state == CohState::Shared {
            bus.issue(BusRequest::Invalidate { block: p2 });
            line.meta.state = CohState::Private;
        }
        true
    }

    /// A foreign read of `p2`, filtered by inclusion: only the vdirty and
    /// buffer bits send a flush to the first level or the buffer, and the
    /// line supplies its data if anything was dirty.
    pub(crate) fn snoop_read<L: FirstLevel>(
        &mut self,
        l1: &mut L,
        events: &mut HierarchyEvents,
        p2: BlockId,
    ) -> SnoopReply {
        let Some(_) = self.cache.peek(p2) else {
            return SnoopReply::default();
        };
        let mut reply = SnoopReply {
            has_copy: true,
            ..SnoopReply::default()
        };
        let granules = self.cache.granules_of(p2);
        let line = self.cache.peek_mut(p2).invariant_expect("resident");
        let mut any_dirty = line.meta.rdirty;
        for (sub, g) in line.meta.subs.iter_mut().zip(granules) {
            if sub.vdirty {
                debug_assert!(sub.inclusion, "vdirty without inclusion");
                events.flush_v += 1;
                reply.l1_messages += 1;
                sub.version = l1
                    .clean(sub.child, sub.v_block)
                    .invariant_expect("vdirty implies a first-level child");
                sub.vdirty = false;
                any_dirty = true;
            }
            if sub.buffer {
                events.flush_buffer += 1;
                reply.l1_messages += 1;
                let e = self
                    .wb
                    .coherence_take(g)
                    .invariant_expect("buffer bit implies a pending write");
                sub.version = e.payload;
                sub.buffer = false;
                any_dirty = true;
            }
        }
        line.meta.state = CohState::Shared;
        if any_dirty {
            line.meta.rdirty = false;
            reply.supplied = Some(
                granules
                    .into_iter()
                    .zip(line.meta.subs.iter())
                    .map(|(g, s)| (g, s.version))
                    .collect(),
            );
        }
        reply
    }

    /// A foreign invalidation of `p2`, filtered by inclusion: the line
    /// goes, and only subentries with the inclusion or buffer bit set
    /// disturb the first level or the buffer. A processor-issued
    /// invalidation only targets clean shared copies, but a DMA write may
    /// land on a dirty block: its data is superseded and dropped.
    pub(crate) fn snoop_invalidate<L: FirstLevel>(
        &mut self,
        l1: &mut L,
        events: &mut HierarchyEvents,
        p2: BlockId,
    ) -> SnoopReply {
        let Some(line) = self.cache.invalidate(p2) else {
            return SnoopReply::default();
        };
        let mut reply = SnoopReply {
            has_copy: true,
            ..SnoopReply::default()
        };
        let granules = self.cache.granules_of(p2);
        for (sub, g) in line.meta.subs.iter().zip(granules) {
            if sub.inclusion {
                events.inval_v += 1;
                reply.l1_messages += 1;
                let removed = l1.remove(sub.child, sub.v_block);
                debug_assert!(removed.is_some(), "inclusion bit implies a child");
            }
            if sub.buffer {
                events.inval_buffer += 1;
                reply.l1_messages += 1;
                let taken = self.wb.coherence_take(g);
                debug_assert!(taken.is_some(), "buffer bit implies a pending write");
            }
        }
        reply
    }
}

// ---- parity recovery shared by V-R and R-R ----
impl SecondLevel {
    /// Recovers a poisoned line `p2` by conservative teardown: every
    /// first-level copy of its granules (found through the copies' own
    /// r-pointers, never the suspect subentries) and every buffered write
    /// is discarded, then the line itself. Only a provably clean
    /// coherence-state or data flip counts as a refetch; any pointer or
    /// flag corruption, or discarded modified data, is a machine check.
    pub(crate) fn scrub_line<L: FirstLevel>(
        &mut self,
        l1: &mut L,
        events: &mut HierarchyEvents,
        kind: FaultKind,
        p2: BlockId,
    ) {
        let granules = self.cache.granules_of(p2);
        let copies: Vec<(ChildCache, BlockId)> = l1
            .lines()
            .filter(|(_, line)| granules.contains(line.p_block))
            .map(|(child, line)| (child, line.key))
            .collect();
        let mut lost_dirty = false;
        for (child, key) in copies {
            lost_dirty |= l1.remove(child, key).is_some_and(|line| line.dirty);
        }
        for g in granules {
            lost_dirty |= self.wb.coherence_take(g).is_some();
        }
        if let Some(line) = self.cache.invalidate(p2) {
            lost_dirty |= line.meta.rdirty;
        }
        if matches!(kind, FaultKind::CohStateFlip | FaultKind::RDataBit) && !lost_dirty {
            events.parity_refetches += 1;
        } else {
            events.parity_machine_checks += 1;
        }
    }
}

// ---- fault injection and in-place repair (V-R and R-R alike) ----
impl RCache {
    /// Injects one of the subentry or coherence-state kinds, preferring a
    /// target where the flipped field is live (an inclusion-linked
    /// subentry for inclusion/vdirty/v-pointer faults, a buffered one for
    /// buffer faults, a shared line for state faults) and falling back
    /// to any subentry. `v_set_bits` sizes the child cache's index for
    /// v-pointer flips; `label` names the line in the report.
    pub(crate) fn inject_r_side(
        &mut self,
        protection: &mut Protection,
        kind: FaultKind,
        seed: u64,
        v_set_bits: u32,
        label: &str,
    ) -> Option<FaultRecord> {
        let candidates = self.iter().flat_map(|line| {
            line.meta.subs.iter().enumerate().map(move |(si, sub)| {
                let live = match kind {
                    FaultKind::RBufferFlip => sub.buffer,
                    // Prefer granting bogus exclusivity (Shared -> Private):
                    // the demotion direction only costs a redundant upgrade.
                    FaultKind::CohStateFlip => line.meta.state == CohState::Shared,
                    FaultKind::RInclusionFlip
                    | FaultKind::RVdirtyFlip
                    | FaultKind::VPointerFlip => sub.inclusion,
                    // Not an R-side kind: declined below, whatever the target.
                    FaultKind::VTagFlip
                    | FaultKind::VStateFlip
                    | FaultKind::RPointerFlip
                    | FaultKind::TlbEntryFlip
                    | FaultKind::WriteBufferDrop
                    | FaultKind::VDataBit
                    | FaultKind::RDataBit
                    | FaultKind::BusDropTxn
                    | FaultKind::BusDuplicateTxn
                    | FaultKind::BusLostInvalidate => sub.inclusion,
                };
                ((line.block, si), live)
            })
        });
        let (p2, si) = fault::pick_preferring(candidates, seed)?;
        let line = self.peek_mut(p2)?;
        let sub = &mut line.meta.subs[si];
        let detail = match kind {
            FaultKind::RInclusionFlip => {
                sub.inclusion = !sub.inclusion;
                format!("{label} {p2} sub {si} inclusion -> {}", sub.inclusion)
            }
            FaultKind::RBufferFlip => {
                sub.buffer = !sub.buffer;
                format!("{label} {p2} sub {si} buffer -> {}", sub.buffer)
            }
            FaultKind::RVdirtyFlip => {
                sub.vdirty = !sub.vdirty;
                format!("{label} {p2} sub {si} vdirty -> {}", sub.vdirty)
            }
            FaultKind::VPointerFlip => {
                let old = sub.v_block;
                sub.v_block = fault::flip_tag_bit(old, v_set_bits);
                format!("{label} {p2} sub {si} v-pointer {old} -> {}", sub.v_block)
            }
            FaultKind::CohStateFlip => {
                let old = line.meta.state;
                line.meta.state = match old {
                    CohState::Shared => CohState::Private,
                    CohState::Private => CohState::Shared,
                };
                format!("{label} {p2} state {old:?} -> {:?}", line.meta.state)
            }
            FaultKind::VTagFlip
            | FaultKind::VStateFlip
            | FaultKind::RPointerFlip
            | FaultKind::TlbEntryFlip
            | FaultKind::WriteBufferDrop
            | FaultKind::VDataBit
            | FaultKind::RDataBit
            | FaultKind::BusDropTxn
            | FaultKind::BusDuplicateTxn
            | FaultKind::BusLostInvalidate => return None,
        };
        protection.record_meta(Poison::L2Line { kind, p2 });
        Some(FaultRecord { kind, detail })
    }

    /// Flips one data bit of a subentry's stored word, preferring a
    /// subentry whose copy is authoritative at this level (not shadowed
    /// by a dirty child or a buffered write).
    pub(crate) fn inject_data_bit(
        &mut self,
        protection: &mut Protection,
        seed: u64,
        label: &str,
    ) -> Option<FaultRecord> {
        let candidates =
            self.iter().flat_map(|line| {
                line.meta.subs.iter().enumerate().map(move |(si, sub)| {
                    ((line.block, si, sub.version), !sub.vdirty && !sub.buffer)
                })
            });
        let (p2, si, version) = fault::pick_preferring(candidates, seed)?;
        let (bit, stored, corrupted) = fault::flip_data_bit(version, seed);
        self.peek_mut(p2)?.meta.subs[si].version = corrupted;
        protection.record_data(Poison::L2Data {
            p2,
            sub: si,
            stored,
        });
        Some(FaultRecord {
            kind: FaultKind::RDataBit,
            detail: format!(
                "{label} {p2} sub {si} data bit {bit} flipped ({version} -> {corrupted})"
            ),
        })
    }

    /// Restores data bit `bit` of subentry `sub` of `p2` in place (a
    /// SECDED correction); a no-op if the line has since left.
    pub(crate) fn correct_data_bit(&mut self, p2: BlockId, sub: usize, bit: u32) {
        if let Some(s) = self
            .peek_mut(p2)
            .and_then(|line| line.meta.subs.get_mut(sub))
        {
            s.version = s.version.with_bit_flipped(bit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rcache() -> RCache {
        // L2: 256B, 32B blocks; L1: 16B blocks => 2 subblocks.
        RCache::new(
            CacheGeometry::direct_mapped(256, 32).unwrap(),
            CacheGeometry::direct_mapped(64, 16).unwrap(),
            ReplacementPolicy::Lru,
            1,
        )
    }

    fn fetched() -> RMeta {
        RMeta::fetched(CohState::Private, &[Version::INITIAL, Version::INITIAL])
    }

    #[test]
    fn geometry_relationships() {
        let r = rcache();
        assert_eq!(r.subblocks(), 2);
        // Granule 5 (addr 80) lives in L2 block 2 (addr 64..96), index 1.
        assert_eq!(r.l2_block_of(BlockId::new(5)), BlockId::new(2));
        assert_eq!(r.sub_index(BlockId::new(5)), 1);
        assert_eq!(r.sub_index(BlockId::new(4)), 0);
        assert_eq!(
            r.granules_of(BlockId::new(2))
                .into_iter()
                .collect::<Vec<_>>(),
            vec![BlockId::new(4), BlockId::new(5)]
        );
    }

    #[test]
    fn fetched_meta_shape() {
        let m = fetched();
        assert_eq!(m.subs.len(), 2);
        assert!(m.inclusion_clear());
        assert!(!m.rdirty);
        assert_eq!(m.state, CohState::Private);
    }

    #[test]
    fn subs_hold_one_in_place_and_clone_from_overwrites_every_shape() {
        let one = RMeta::fetched(CohState::Private, &[Version::INITIAL]).subs;
        assert!(matches!(one, Subs::One(_)));
        let many = |bits: &[u32]| {
            let versions: Vec<Version> = bits
                .iter()
                .map(|&bit| Version::INITIAL.with_bit_flipped(bit))
                .collect();
            RMeta::fetched(CohState::Shared, &versions).subs
        };
        let (two, other_two, four) = (many(&[1, 2]), many(&[3, 4]), many(&[5, 6, 7, 8]));
        assert!(matches!(two, Subs::Many(_)));
        assert_eq!(four.len(), 4);
        assert_eq!(format!("{one:?}"), format!("{:?}", one.to_vec()));
        for source in [&one, &two, &four] {
            for target in [&one, &other_two, &four] {
                let mut copy = target.clone();
                copy.clone_from(source);
                assert_eq!(copy, *source);
            }
        }
    }

    #[test]
    fn upstream_detection() {
        let mut m = fetched();
        assert!(m.inclusion_clear());
        m.subs[1].buffer = true;
        assert!(!m.inclusion_clear());
        m.subs[1].buffer = false;
        m.subs[0].inclusion = true;
        assert!(!m.inclusion_clear());
    }

    #[test]
    fn fill_prefers_inclusion_clear_victims() {
        // 2-way version for victim choice.
        let mut r = RCache::new(
            CacheGeometry::new(128, 32, 2).unwrap(), // 2 sets x 2 ways
            CacheGeometry::direct_mapped(64, 16).unwrap(),
            ReplacementPolicy::Lru,
            1,
        );
        // Blocks 0 and 2 share set 0.
        let mut protected = fetched();
        protected.subs[0].inclusion = true;
        r.fill(BlockId::new(0), protected);
        r.fill(BlockId::new(2), fetched());
        // Filling block 4 (set 0) must evict block 2 despite block 0 being
        // LRU-older, because block 0 has a child in the first level.
        let out = r.fill(BlockId::new(4), fetched());
        assert_eq!(out.evicted.as_ref().unwrap().block, BlockId::new(2));
        assert!(!out.fell_back);
    }

    #[test]
    fn fill_falls_back_to_inclusion_invalidation() {
        let mut r = rcache(); // direct-mapped: 8 sets? 256/32 = 8 sets.
        let mut protected = fetched();
        protected.subs[0].inclusion = true;
        r.fill(BlockId::new(0), protected);
        let out = r.fill(BlockId::new(8), fetched()); // same set 0
        assert!(out.fell_back, "victim had a first-level child");
        assert!(out.evicted.is_some());
    }

    #[test]
    fn lookup_and_invalidate() {
        let mut r = rcache();
        r.fill(BlockId::new(3), fetched());
        assert!(r.lookup(BlockId::new(3)).is_some());
        assert!(r.peek(BlockId::new(3)).is_some());
        assert!(r.invalidate(BlockId::new(3)).is_some());
        assert!(r.lookup(BlockId::new(3)).is_none());
    }

    fn protection() -> Protection {
        Protection::new(
            &crate::config::HierarchyConfig::direct_mapped(256, 4096, 16)
                .unwrap()
                .with_parity()
                .with_data_protection(crate::config::DataProtection::Secded),
        )
    }

    /// Block 1 shared with a linked, buffered subentry 1; block 2 private.
    fn two_lines() -> RCache {
        let mut r = rcache();
        let mut linked = RMeta::fetched(CohState::Shared, &[Version::INITIAL; 2]);
        linked.subs[1].inclusion = true;
        linked.subs[1].buffer = true;
        linked.subs[1].v_block = BlockId::new(0x40);
        r.fill(BlockId::new(1), linked);
        r.fill(BlockId::new(2), fetched());
        r
    }

    #[test]
    fn r_side_flips_prefer_the_live_target() {
        let mut p = protection();
        for (kind, seed, detail) in [
            (
                FaultKind::RInclusionFlip,
                3,
                "r 0x1 sub 1 inclusion -> false",
            ),
            (FaultKind::RBufferFlip, 0, "r 0x1 sub 1 buffer -> false"),
            (FaultKind::RVdirtyFlip, 0, "r 0x1 sub 1 vdirty -> true"),
            (
                FaultKind::VPointerFlip,
                0,
                "r 0x1 sub 1 v-pointer 0x40 -> 0x50",
            ),
            (FaultKind::CohStateFlip, 1, "r 0x1 state Shared -> Private"),
        ] {
            let mut r = two_lines();
            let rec = r.inject_r_side(&mut p, kind, seed, 4, "r").expect("target");
            assert_eq!((rec.kind, rec.detail.as_str()), (kind, detail));
        }
        // A private line flips the other way.
        let mut r = rcache();
        r.fill(BlockId::new(2), fetched());
        let rec = r.inject_r_side(&mut p, FaultKind::CohStateFlip, 0, 4, "r");
        assert_eq!(rec.unwrap().detail, "r 0x2 state Private -> Shared");
        assert_eq!(
            r.peek(BlockId::new(2)).unwrap().meta.state,
            CohState::Shared
        );
        assert!(r
            .inject_r_side(&mut p, FaultKind::TlbEntryFlip, 0, 4, "r")
            .is_none());
        assert_eq!(p.outstanding(), 6);
    }

    #[test]
    fn data_bit_flip_is_corrected_in_place() {
        let mut p = protection();
        let mut r = two_lines();
        // Subentry 1 of block 1 is shadowed upstream: never preferred.
        for seed in 0..6 {
            let mut r = two_lines();
            let rec = r.inject_data_bit(&mut p, seed, "r").expect("target");
            assert!(!rec.detail.starts_with("r 0x1 sub 1 "), "{}", rec.detail);
        }
        let rec = r.inject_data_bit(&mut p, 3, "r").expect("target");
        assert!(
            rec.detail.starts_with("r 0x1 sub 0 data bit 3 flipped"),
            "{}",
            rec.detail
        );
        let word = |r: &RCache| r.peek(BlockId::new(1)).unwrap().meta.subs[0].version;
        assert_eq!(word(&r), Version::INITIAL.with_bit_flipped(3));
        r.correct_data_bit(BlockId::new(1), 0, 3);
        assert_eq!(word(&r), Version::INITIAL);
        // A line that has since left is left alone.
        r.correct_data_bit(BlockId::new(7), 0, 1);
    }

    #[test]
    fn sub_entry_fresh_defaults() {
        let s = SubEntry::fresh(Version::INITIAL);
        assert!(!s.inclusion && !s.buffer && !s.vdirty);
        assert!(!s.upstream());
        assert_eq!(s.child, ChildCache::Data);
    }
}
