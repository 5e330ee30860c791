//! The virtually-addressed first-level cache.
//!
//! A [`VCache`] is indexed and tagged by *virtual* block ids. Each line
//! carries the metadata of the paper's Figure 3 V-cache tag entry:
//!
//! * the **r-pointer** — here kept at full precision as the physical
//!   (L1-granularity) block id of the cached data; the
//!   [`layout`](crate::layout) module proves the real hardware only needs
//!   `log2(l2_size/page)` bits of it,
//! * the **dirty** bit,
//! * the **swapped-valid** bit — set on every valid line at a context
//!   switch; a swapped line is invisible to lookups but its dirty data is
//!   preserved until the slot is reused, distributing the write-backs over
//!   time,
//! * the oracle **version** of the held data.

use vrcache_bus::oracle::Version;
use vrcache_cache::array::{CacheArray, FillOutcome, Line};
use vrcache_cache::geometry::{BlockId, CacheGeometry};
use vrcache_cache::replacement::ReplacementPolicy;
use vrcache_cache::stats::CacheStats;

use crate::fault::DataLine;
use crate::invariant::InvariantExpect;
use crate::rcache::{ChildCache, ChildLine, FirstLevel};

/// Per-line metadata of the V-cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VMeta {
    /// Physical block id (at L1 granularity) of the cached data — the
    /// full-precision r-pointer.
    pub p_block: BlockId,
    /// The line holds data newer than its R-cache parent.
    pub dirty: bool,
    /// The line belongs to a descheduled process: invisible to lookups,
    /// written back lazily on replacement.
    pub swapped: bool,
    /// Oracle version of the held data.
    pub version: Version,
}

impl DataLine for VMeta {
    fn fields(&mut self) -> (&mut bool, &mut Version) {
        (&mut self.dirty, &mut self.version)
    }
}

/// The virtually-addressed, write-back first-level cache.
#[derive(Debug)]
pub struct VCache {
    array: CacheArray<VMeta>,
    stats: CacheStats,
}
vrcache_mem::clone_fields!(VCache { array, stats });

impl VCache {
    /// Creates an empty V-cache.
    pub fn new(geometry: CacheGeometry, policy: ReplacementPolicy, seed: u64) -> Self {
        VCache {
            array: CacheArray::new(geometry, policy, seed),
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        self.array.geometry()
    }

    /// Hit/miss statistics (recorded by the owning hierarchy).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable statistics access for the owning hierarchy.
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// The raw line array, for the shared fault injectors (no swapped
    /// filtering, no statistics).
    pub(crate) fn array_mut(&mut self) -> &mut CacheArray<VMeta> {
        &mut self.array
    }

    /// Looks up `vblock`. Swapped-valid lines are **not** hits — the paper
    /// invalidates (but does not write back) the V-cache on a context
    /// switch.
    pub fn lookup(&mut self, vblock: BlockId) -> Option<&mut Line<VMeta>> {
        // One probe; a swapped line is rejected before LRU is refreshed.
        self.array.lookup_if(vblock, |l| !l.meta.swapped)
    }

    /// Looks up `vblock` without LRU or swapped filtering (diagnostics).
    pub fn peek(&self, vblock: BlockId) -> Option<&Line<VMeta>> {
        self.array.peek(vblock)
    }

    /// Mutable peek: no LRU refresh, no swapped filtering. Used by the
    /// hierarchy to update a line it just located, and by bus-induced
    /// flushes (which must not disturb replacement state).
    pub fn peek_mut(&mut self, vblock: BlockId) -> Option<&mut Line<VMeta>> {
        self.array.peek_mut(vblock)
    }

    /// Removes and returns the line holding `vblock` *if it is swapped* —
    /// the caller is about to reuse the slot for the same virtual block and
    /// must write the old data back first.
    pub fn take_swapped(&mut self, vblock: BlockId) -> Option<Line<VMeta>> {
        if self.array.peek(vblock).is_some_and(|l| l.meta.swapped) {
            self.array.invalidate(vblock)
        } else {
            None
        }
    }

    /// Inserts `vblock`; the victim (if any) is returned for write-back /
    /// inclusion maintenance. Swapped lines are preferred victims: they are
    /// dead to the current process, so evicting them first both frees the
    /// write-back early and keeps live lines cached.
    pub fn fill(&mut self, vblock: BlockId, meta: VMeta) -> FillOutcome<VMeta> {
        self.array.fill(vblock, meta, |line| line.meta.swapped)
    }

    /// Invalidates `vblock`, returning the line if present (bus-induced
    /// `invalidate(v-pointer)` or synonym move).
    pub fn invalidate(&mut self, vblock: BlockId) -> Option<Line<VMeta>> {
        self.array.invalidate(vblock)
    }

    /// Marks every valid line swapped (context switch). Returns how many
    /// lines were newly marked.
    pub fn mark_all_swapped(&mut self) -> u64 {
        let mut n = 0;
        self.array.for_each_valid_mut(|l| {
            if !l.meta.swapped {
                l.meta.swapped = true;
                n += 1;
            }
        });
        n
    }

    /// Removes every line, handing each to `each` in slot order (the
    /// eager context-switch flush). Returns how many were removed.
    pub fn drain_all(&mut self, each: impl FnMut(Line<VMeta>)) -> usize {
        self.array.clear(each)
    }

    /// Number of valid lines (including swapped ones).
    pub fn occupancy(&self) -> usize {
        self.array.occupancy()
    }

    /// Number of dirty lines (including swapped ones) — the write-back debt.
    pub fn dirty_lines(&self) -> usize {
        self.array.iter().filter(|l| l.meta.dirty).count()
    }

    /// Iterates over valid lines (diagnostics and invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = &Line<VMeta>> {
        self.array.iter()
    }
}

/// The V-R first level: a unified V-cache, or the D and I halves of a
/// split one.
#[derive(Debug)]
pub(crate) struct VCaches {
    /// Unified V-cache, or the D half of a split first level.
    pub(crate) data: VCache,
    /// The I half of a split first level.
    pub(crate) instr: Option<VCache>,
}
vrcache_mem::clone_fields!(VCaches { data, instr });

impl VCaches {
    /// The V-cache holding `child`, if this first level has it.
    fn get(&self, child: ChildCache) -> Option<&VCache> {
        match child {
            ChildCache::Data => Some(&self.data),
            ChildCache::Instr => self.instr.as_ref(),
        }
    }

    fn get_mut(&mut self, child: ChildCache) -> Option<&mut VCache> {
        match child {
            ChildCache::Data => Some(&mut self.data),
            ChildCache::Instr => self.instr.as_mut(),
        }
    }

    /// The V-cache an access routed to `child` uses.
    pub(crate) fn front(&self, child: ChildCache) -> &VCache {
        self.get(child).invariant_expect(SPLIT)
    }

    /// Mutable [`front`](Self::front).
    pub(crate) fn front_mut(&mut self, child: ChildCache) -> &mut VCache {
        self.get_mut(child).invariant_expect(SPLIT)
    }
}

const SPLIT: &str = "instruction route requires a split first level";

/// A V line as its parent sees it.
pub(crate) fn child_line(line: &Line<VMeta>) -> ChildLine {
    ChildLine {
        key: line.block,
        p_block: line.meta.p_block,
        dirty: line.meta.dirty,
        version: line.meta.version,
    }
}

impl FirstLevel for VCaches {
    fn child(&self, child: ChildCache, key: BlockId) -> Option<ChildLine> {
        self.get(child)?.peek(key).map(child_line)
    }

    fn remove(&mut self, child: ChildCache, key: BlockId) -> Option<ChildLine> {
        self.get_mut(child)?
            .invalidate(key)
            .as_ref()
            .map(child_line)
    }

    fn clean(&mut self, child: ChildCache, key: BlockId) -> Option<Version> {
        let line = self.get_mut(child)?.peek_mut(key)?;
        debug_assert!(line.meta.dirty, "cleaning a clean V line");
        line.meta.dirty = false;
        Some(line.meta.version)
    }

    fn lines(&self) -> impl Iterator<Item = (ChildCache, ChildLine)> + '_ {
        [ChildCache::Data, ChildCache::Instr]
            .into_iter()
            .filter_map(|c| Some((c, self.get(c)?)))
            .flat_map(|(c, front)| front.iter().map(move |l| (c, child_line(l))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vcache() -> VCache {
        VCache::new(
            CacheGeometry::direct_mapped(64, 16).unwrap(),
            ReplacementPolicy::Lru,
            1,
        )
    }

    fn meta(p: u64) -> VMeta {
        VMeta {
            p_block: BlockId::new(p),
            dirty: false,
            swapped: false,
            version: Version::INITIAL,
        }
    }

    #[test]
    fn fill_then_lookup() {
        let mut v = vcache();
        v.fill(BlockId::new(1), meta(101));
        let line = v.lookup(BlockId::new(1)).unwrap();
        assert_eq!(line.meta.p_block, BlockId::new(101));
        assert!(!line.meta.dirty);
    }

    #[test]
    fn swapped_lines_do_not_hit() {
        let mut v = vcache();
        v.fill(BlockId::new(1), meta(101));
        assert_eq!(v.mark_all_swapped(), 1);
        assert!(v.lookup(BlockId::new(1)).is_none());
        // Still physically present.
        assert!(v.peek(BlockId::new(1)).is_some());
        assert_eq!(v.occupancy(), 1);
    }

    #[test]
    fn take_swapped_only_takes_swapped() {
        let mut v = vcache();
        v.fill(BlockId::new(1), meta(101));
        assert!(v.take_swapped(BlockId::new(1)).is_none());
        v.mark_all_swapped();
        let line = v.take_swapped(BlockId::new(1)).unwrap();
        assert!(line.meta.swapped);
        assert_eq!(v.occupancy(), 0);
    }

    #[test]
    fn mark_all_swapped_is_idempotent() {
        let mut v = vcache();
        v.fill(BlockId::new(1), meta(1));
        v.fill(BlockId::new(2), meta(2));
        assert_eq!(v.mark_all_swapped(), 2);
        assert_eq!(
            v.mark_all_swapped(),
            0,
            "already swapped lines not recounted"
        );
    }

    #[test]
    fn swapped_lines_are_preferred_victims() {
        // 2-way set to observe preference.
        let mut v = VCache::new(
            CacheGeometry::new(32, 16, 2).unwrap(),
            ReplacementPolicy::Lru,
            1,
        );
        v.fill(BlockId::new(0), meta(100));
        v.mark_all_swapped();
        v.fill(BlockId::new(1), meta(101)); // live line, more recent
                                            // Next fill should evict the swapped block 0 even though block 0 is
                                            // not LRU-oldest... (it is oldest here, but the preference is what
                                            // guarantees it in general).
        let out = v.fill(BlockId::new(2), meta(102));
        let evicted = out.evicted.unwrap();
        assert_eq!(evicted.block, BlockId::new(0));
        assert!(evicted.meta.swapped);
        assert!(!out.fell_back);
    }

    #[test]
    fn swapped_lookups_leave_lru_alone() {
        // Two swapped lines in one 2-way set: a lookup of the older one
        // misses and must not refresh it, so it stays the victim.
        let mut v = VCache::new(
            CacheGeometry::new(32, 16, 2).unwrap(),
            ReplacementPolicy::Lru,
            1,
        );
        v.fill(BlockId::new(0), meta(100));
        v.fill(BlockId::new(1), meta(101));
        v.mark_all_swapped();
        assert!(v.lookup(BlockId::new(0)).is_none());
        let out = v.fill(BlockId::new(2), meta(102));
        assert_eq!(out.evicted.unwrap().block, BlockId::new(0));
        // The live line hits; the remaining swapped line goes next.
        assert!(v.lookup(BlockId::new(2)).is_some());
        let out = v.fill(BlockId::new(3), meta(103));
        assert_eq!(out.evicted.unwrap().block, BlockId::new(1));
    }

    #[test]
    fn dirty_lines_counted() {
        let mut v = vcache();
        let mut m = meta(1);
        m.dirty = true;
        v.fill(BlockId::new(1), m);
        v.fill(BlockId::new(2), meta(2));
        assert_eq!(v.dirty_lines(), 1);
    }

    #[test]
    fn drain_all_empties_and_returns_everything() {
        let mut v = vcache();
        let mut m = meta(1);
        m.dirty = true;
        v.fill(BlockId::new(1), m);
        v.fill(BlockId::new(2), meta(2));
        let mut lines = Vec::new();
        assert_eq!(v.drain_all(|line| lines.push(line)), 2);
        assert_eq!(lines.len(), 2);
        assert_eq!(v.occupancy(), 0);
        assert_eq!(lines.iter().filter(|l| l.meta.dirty).count(), 1);
        assert_eq!(v.drain_all(|_| unreachable!("the cache is empty")), 0);
    }

    #[test]
    fn invalidate_removes() {
        let mut v = vcache();
        v.fill(BlockId::new(3), meta(3));
        assert!(v.invalidate(BlockId::new(3)).is_some());
        assert!(v.lookup(BlockId::new(3)).is_none());
        assert!(v.invalidate(BlockId::new(3)).is_none());
    }
}
