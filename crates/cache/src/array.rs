//! A generic set-associative cache array.
//!
//! [`CacheArray<M>`] stores *presence* — which blocks are cached — plus a
//! caller-supplied metadata value `M` per line. The two cache levels of the
//! paper differ only in their metadata (the V-cache carries r-pointers,
//! dirty and swapped-valid bits; the R-cache carries coherence state and
//! per-subblock inclusion subentries), so both are thin wrappers around this
//! one structure.

use crate::geometry::{BlockId, CacheGeometry};
use crate::replacement::{ReplacementPolicy, ReplacementState, XorShift64};

/// One cache line: the block it holds and the caller's metadata.
#[derive(Debug, PartialEq, Eq)]
pub struct Line<M> {
    /// The cached block.
    pub block: BlockId,
    /// Caller metadata (dirty bits, pointers, coherence state, ...).
    pub meta: M,
}
vrcache_mem::clone_fields!(Line<M> { block, meta } where M: Clone);

/// The result of a [`CacheArray::fill`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillOutcome<M> {
    /// The way the new block was placed in.
    pub way: u32,
    /// The line that was evicted to make room, if any.
    pub evicted: Option<Line<M>>,
    /// True when the victim predicate admitted no way and the policy fell
    /// back to evicting a non-preferred line. For the R-cache this is
    /// exactly the paper's *inclusion invalidation* case: no way with all
    /// inclusion bits clear existed, so a block that is still present in the
    /// V-cache had to be evicted.
    pub fell_back: bool,
}

/// A set-associative array of blocks with per-line metadata.
///
/// # Example
///
/// ```
/// use vrcache_cache::array::CacheArray;
/// use vrcache_cache::geometry::{BlockId, CacheGeometry};
/// use vrcache_cache::replacement::ReplacementPolicy;
///
/// # fn main() -> Result<(), vrcache_mem::MemError> {
/// let geo = CacheGeometry::new(64, 16, 2)?; // 2 sets x 2 ways
/// let mut cache: CacheArray<bool> = CacheArray::new(geo, ReplacementPolicy::Lru, 1);
/// let b = geo.block_of(0x40);
/// assert!(cache.lookup(b).is_none());
/// cache.fill(b, false, |_| true);
/// assert!(cache.lookup(b).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CacheArray<M> {
    geometry: CacheGeometry,
    /// `sets * ways` slots, set-major (`set * ways + way`); `None` =
    /// invalid line.
    lines: Vec<Option<Line<M>>>,
    replacement: ReplacementState,
    rng: XorShift64,
    clock: u64,
}
vrcache_mem::clone_fields!(CacheArray<M> {
    geometry,
    lines,
    replacement,
    rng,
    clock,
} where M: Clone);

impl<M> CacheArray<M> {
    /// Creates an empty array with the given geometry, replacement policy
    /// and RNG seed (used only by [`ReplacementPolicy::Random`]).
    pub fn new(geometry: CacheGeometry, policy: ReplacementPolicy, seed: u64) -> Self {
        let sets = geometry.sets() as usize;
        let ways = geometry.assoc();
        let mut lines = Vec::with_capacity(sets * ways as usize);
        lines.resize_with(sets * ways as usize, || None);
        CacheArray {
            geometry,
            lines,
            replacement: ReplacementState::new(policy, sets, ways),
            rng: XorShift64::new(seed),
            clock: 0,
        }
    }

    /// The geometry this array was built with.
    #[inline]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The replacement policy in effect.
    #[inline]
    pub fn policy(&self) -> ReplacementPolicy {
        self.replacement.policy()
    }

    /// The one probe: `block`'s set, the slot its set starts at, and the
    /// way holding it, if any.
    #[inline]
    fn probe(&self, block: BlockId) -> (usize, usize, Option<usize>) {
        let ways = self.geometry.assoc() as usize;
        let set = self.geometry.set_of(block).index();
        let base = set * ways;
        let way = self.lines[base..base + ways]
            .iter()
            .position(|l| l.as_ref().is_some_and(|l| l.block == block));
        (set, base, way)
    }

    /// Looks up `block`, refreshing replacement state on a hit.
    #[inline]
    pub fn lookup(&mut self, block: BlockId) -> Option<&mut Line<M>> {
        self.lookup_if(block, |_| true)
    }

    /// Looks up `block` and counts it a hit only if `accept` admits its
    /// line: a hit refreshes replacement state, while a rejected line is
    /// left untouched and reported absent.
    #[inline]
    pub fn lookup_if<A>(&mut self, block: BlockId, accept: A) -> Option<&mut Line<M>>
    where
        A: FnOnce(&Line<M>) -> bool,
    {
        let (set, base, way) = self.probe(block);
        let way = way?;
        let line = self.lines[base + way].as_mut()?;
        if !accept(line) {
            return None;
        }
        self.clock += 1;
        self.replacement.on_access(set, way as u32, self.clock);
        Some(line)
    }

    /// Looks up `block` without touching replacement state.
    #[inline]
    pub fn peek(&self, block: BlockId) -> Option<&Line<M>> {
        let (_, base, way) = self.probe(block);
        self.lines[base + way?].as_ref()
    }

    /// Mutable [`peek`](Self::peek): no replacement-state side effects.
    #[inline]
    pub fn peek_mut(&mut self, block: BlockId) -> Option<&mut Line<M>> {
        let (_, base, way) = self.probe(block);
        self.lines[base + way?].as_mut()
    }

    /// Inserts `block` with metadata `meta`, evicting if the set is full.
    ///
    /// Victim choice: an invalid way if one exists; otherwise the policy's
    /// victim among the valid ways for which `prefer` returns `true`;
    /// otherwise (with [`FillOutcome::fell_back`] set) the policy's victim
    /// among all valid ways.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already present — the caller must look up first;
    /// double-filling would silently duplicate a block within a set.
    pub fn fill<F>(&mut self, block: BlockId, meta: M, mut prefer: F) -> FillOutcome<M>
    where
        F: FnMut(&Line<M>) -> bool,
    {
        let (set, base, found) = self.probe(block);
        assert!(
            found.is_none(),
            "fill of a block already present: {block:?}"
        );
        let slots = &mut self.lines[base..base + self.geometry.assoc() as usize];
        self.clock += 1;

        // 1. An invalid way; 2. the policy's victim among the preferred
        // ways; 3. its victim among all ways.
        let (way, fell_back) = match slots.iter().position(Option::is_none) {
            Some(way) => (way as u32, false),
            None => {
                let mut preferred_mask = 0u64;
                for (w, slot) in slots.iter().enumerate() {
                    if slot.as_ref().is_some_and(&mut prefer) {
                        preferred_mask |= 1 << w;
                    }
                }
                let draw = self.rng.next_u64();
                match self.replacement.victim(set, preferred_mask, draw) {
                    Some(w) => (w, false),
                    None => {
                        let Some(w) = self.replacement.victim(set, u64::MAX, draw) else {
                            unreachable!(
                                "a full set always yields a victim over the all-ways mask"
                            );
                        };
                        (w, true)
                    }
                }
            }
        };
        let evicted = slots[way as usize].replace(Line { block, meta });
        self.replacement.on_fill(set, way, self.clock);
        FillOutcome {
            way,
            evicted,
            fell_back,
        }
    }

    /// Removes `block` from the cache, returning its line if present.
    #[inline]
    pub fn invalidate(&mut self, block: BlockId) -> Option<Line<M>> {
        let (_, base, way) = self.probe(block);
        self.lines[base + way?].take()
    }

    /// Applies `f` to every valid line (mutably). Used for bulk operations
    /// such as marking every V-cache line swapped-valid on a context switch.
    pub fn for_each_valid_mut<F>(&mut self, mut f: F)
    where
        F: FnMut(&mut Line<M>),
    {
        for slot in self.lines.iter_mut().flatten() {
            f(slot);
        }
    }

    /// Iterates over the valid lines.
    pub fn iter(&self) -> impl Iterator<Item = &Line<M>> {
        self.lines.iter().flatten()
    }

    /// Removes every valid line for which `pred` returns true, invoking
    /// `on_removed` on each removed line. Returns the number removed.
    pub fn retain<P, F>(&mut self, mut pred: P, mut on_removed: F) -> usize
    where
        P: FnMut(&Line<M>) -> bool,
        F: FnMut(Line<M>),
    {
        let mut removed = 0;
        for slot in self.lines.iter_mut() {
            if slot.as_ref().is_some_and(|line| !pred(line)) {
                let Some(line) = slot.take() else {
                    unreachable!("slot matched the predicate above");
                };
                on_removed(line);
                removed += 1;
            }
        }
        removed
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().flatten().count()
    }

    /// Removes every line, calling `on_removed` for each. Returns the count.
    pub fn clear<F>(&mut self, mut on_removed: F) -> usize
    where
        F: FnMut(Line<M>),
    {
        let mut n = 0;
        for slot in self.lines.iter_mut() {
            if let Some(line) = slot.take() {
                on_removed(line);
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(size: u64, block: u64, ways: u32) -> CacheGeometry {
        CacheGeometry::new(size, block, ways).unwrap()
    }

    fn lru<M>(g: CacheGeometry) -> CacheArray<M> {
        CacheArray::new(g, ReplacementPolicy::Lru, 1)
    }

    #[test]
    fn fill_then_lookup() {
        let g = geo(64, 16, 2);
        let mut c: CacheArray<u32> = lru(g);
        let b = g.block_of(0x100);
        let out = c.fill(b, 7, |_| true);
        assert_eq!(out.evicted, None);
        assert!(!out.fell_back);
        assert_eq!(c.lookup(b).unwrap().meta, 7);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn eviction_returns_old_line() {
        // 1 set, 1 way.
        let g = geo(16, 16, 1);
        let mut c: CacheArray<u32> = lru(g);
        let b0 = BlockId::new(0);
        let b1 = BlockId::new(1);
        c.fill(b0, 10, |_| true);
        let out = c.fill(b1, 11, |_| true);
        let evicted = out.evicted.unwrap();
        assert_eq!(evicted.block, b0);
        assert_eq!(evicted.meta, 10);
        assert!(c.peek(b0).is_none());
        assert!(c.peek(b1).is_some());
    }

    #[test]
    fn lru_order_respected_across_ways() {
        // 1 set, 2 ways: blocks 0,1 fill; touch 0; fill 2 evicts 1.
        let g = geo(32, 16, 2);
        let mut c: CacheArray<()> = lru(g);
        // In a 1-set cache every block maps to set 0: need set count 1.
        // geo(32,16,2) => sets = 1. Good.
        assert_eq!(g.sets(), 1);
        c.fill(BlockId::new(0), (), |_| true);
        c.fill(BlockId::new(1), (), |_| true);
        assert!(c.lookup(BlockId::new(0)).is_some());
        let out = c.fill(BlockId::new(2), (), |_| true);
        assert_eq!(out.evicted.unwrap().block, BlockId::new(1));
    }

    #[test]
    fn prefer_filter_guides_victim() {
        let g = geo(32, 16, 2);
        let mut c: CacheArray<bool> = lru(g);
        c.fill(BlockId::new(0), true, |_| true); // meta=true => "protected"
        c.fill(BlockId::new(1), false, |_| true);
        // Prefer evicting lines whose meta is false, even though block 0 is LRU.
        let out = c.fill(BlockId::new(2), false, |l| !l.meta);
        assert_eq!(out.evicted.unwrap().block, BlockId::new(1));
        assert!(!out.fell_back);
    }

    #[test]
    fn fallback_when_no_preferred_victim() {
        let g = geo(32, 16, 2);
        let mut c: CacheArray<bool> = lru(g);
        c.fill(BlockId::new(0), true, |_| true);
        c.fill(BlockId::new(1), true, |_| true);
        let out = c.fill(BlockId::new(2), false, |l| !l.meta);
        assert!(out.fell_back, "no line had meta=false; fallback expected");
        assert!(out.evicted.is_some());
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_fill_panics() {
        let g = geo(64, 16, 2);
        let mut c: CacheArray<()> = lru(g);
        c.fill(BlockId::new(3), (), |_| true);
        c.fill(BlockId::new(3), (), |_| true);
    }

    #[test]
    fn invalidate_removes() {
        let g = geo(64, 16, 2);
        let mut c: CacheArray<u8> = lru(g);
        c.fill(BlockId::new(5), 55, |_| true);
        let line = c.invalidate(BlockId::new(5)).unwrap();
        assert_eq!(line.meta, 55);
        assert!(c.peek(BlockId::new(5)).is_none());
        assert_eq!(c.invalidate(BlockId::new(5)), None);
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let g = geo(32, 16, 2);
        let mut c: CacheArray<()> = lru(g);
        c.fill(BlockId::new(0), (), |_| true);
        c.fill(BlockId::new(1), (), |_| true);
        // Peek block 0 (no LRU refresh): victim should still be block 0.
        let _ = c.peek(BlockId::new(0));
        let out = c.fill(BlockId::new(2), (), |_| true);
        assert_eq!(out.evicted.unwrap().block, BlockId::new(0));
    }

    #[test]
    fn sets_are_independent() {
        let g = geo(64, 16, 2); // 2 sets
        let mut c: CacheArray<()> = lru(g);
        // Blocks 0 and 2 -> set 0; blocks 1 and 3 -> set 1.
        c.fill(BlockId::new(0), (), |_| true);
        c.fill(BlockId::new(1), (), |_| true);
        c.fill(BlockId::new(2), (), |_| true);
        c.fill(BlockId::new(3), (), |_| true);
        assert_eq!(c.occupancy(), 4);
        // Filling another set-0 block evicts only from set 0.
        let out = c.fill(BlockId::new(4), (), |_| true);
        let evicted = out.evicted.unwrap().block;
        assert!(evicted == BlockId::new(0) || evicted == BlockId::new(2));
        assert!(c.peek(BlockId::new(1)).is_some());
        assert!(c.peek(BlockId::new(3)).is_some());
    }

    #[test]
    fn for_each_valid_mut_touches_all() {
        let g = geo(64, 16, 2);
        let mut c: CacheArray<u32> = lru(g);
        for i in 0..4 {
            c.fill(BlockId::new(i), 0, |_| true);
        }
        c.for_each_valid_mut(|l| l.meta = 9);
        assert!(c.iter().all(|l| l.meta == 9));
    }

    #[test]
    fn retain_removes_matching() {
        let g = geo(64, 16, 2);
        let mut c: CacheArray<u32> = lru(g);
        for i in 0..4 {
            c.fill(BlockId::new(i), i as u32, |_| true);
        }
        let mut removed = Vec::new();
        let n = c.retain(|l| l.meta % 2 == 0, |l| removed.push(l.block));
        assert_eq!(n, 2);
        assert_eq!(c.occupancy(), 2);
        assert_eq!(removed.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let g = geo(64, 16, 2);
        let mut c: CacheArray<()> = lru(g);
        for i in 0..3 {
            c.fill(BlockId::new(i), (), |_| true);
        }
        let mut n = 0;
        assert_eq!(c.clear(|_| n += 1), 3);
        assert_eq!(n, 3);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn random_policy_fill_works() {
        let g = geo(64, 16, 4);
        let mut c: CacheArray<()> = CacheArray::new(g, ReplacementPolicy::Random, 99);
        for i in 0..32 {
            let b = BlockId::new(i);
            if c.peek(b).is_none() {
                c.fill(b, (), |_| true);
            }
        }
        assert_eq!(c.occupancy(), 4, "capacity respected");
    }
}
