//! Cache geometry: size / block / associativity and the address split.

use core::fmt;
use core::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};
use vrcache_mem::{MemError, PhysAddr, SetIndex, Tag, VirtAddr};

/// A cache-block identifier: a byte address shifted right by the block bits.
///
/// The simulator keys caches by block id rather than by a (tag, set) pair so
/// that every line can always reconstruct the full address of the block it
/// holds (needed for write-backs and bus transactions). A `BlockId` is only
/// meaningful together with the [`CacheGeometry`] that produced it, and —
/// like the address it came from — is either a *virtual* or a *physical*
/// block id depending on which address space the cache indexes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct BlockId(u64);

impl BlockId {
    /// Wraps a raw block number.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        BlockId(raw)
    }

    /// The raw block number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockId({:#x})", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A hash map keyed by block id, on the cheap [`BlockHasher`].
///
/// For per-block state that is looked up on every simulated access (the
/// version oracle, main memory, Goodman's real directory). Iteration
/// order is unspecified: callers that render or compare contents sort
/// first.
#[allow(
    clippy::disallowed_types,
    reason = "a point-lookup table on the per-access path; every walk of it sorts first"
)]
pub type BlockMap<V> = std::collections::HashMap<BlockId, V, BuildHasherDefault<BlockHasher>>;

/// A multiply-rotate hasher for [`BlockMap`] keys.
///
/// Block ids are dense integers derived from simulated addresses, so a
/// single multiply by an odd constant spreads them well enough; the
/// final rotate moves the well-mixed high product bits down to where the
/// table takes its bucket index. There is no protection against keys
/// crafted to collide: a trace file built to do so can only slow down
/// its own replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockHasher(u64);

impl BlockHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;
}

impl Hasher for BlockHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(Self::K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Validated geometry of a set-associative cache.
///
/// # Example
///
/// The paper's headline first-level configuration — 16 KiB, direct-mapped,
/// 16-byte blocks:
///
/// ```
/// use vrcache_cache::geometry::CacheGeometry;
/// # fn main() -> Result<(), vrcache_mem::MemError> {
/// let g = CacheGeometry::new(16 * 1024, 16, 1)?;
/// assert_eq!(g.sets(), 1024);
/// assert_eq!(g.blocks(), 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    size_bytes: u64,
    block_bytes: u64,
    assoc: u32,
}

impl CacheGeometry {
    /// Creates a geometry of `size_bytes` total, `block_bytes` per block and
    /// `assoc`-way sets.
    ///
    /// # Errors
    ///
    /// All three parameters must be nonzero powers of two, the block must not
    /// exceed the total size, and `size / (block * assoc)` (the set count)
    /// must be at least 1.
    pub fn new(size_bytes: u64, block_bytes: u64, assoc: u32) -> Result<Self, MemError> {
        for (what, v) in [("cache size", size_bytes), ("block size", block_bytes)] {
            if v == 0 {
                return Err(MemError::Zero { what });
            }
            if !v.is_power_of_two() {
                return Err(MemError::NotPowerOfTwo { what, value: v });
            }
        }
        if assoc == 0 {
            return Err(MemError::Zero {
                what: "associativity",
            });
        }
        if !assoc.is_power_of_two() {
            return Err(MemError::NotPowerOfTwo {
                what: "associativity",
                value: assoc as u64,
            });
        }
        let way_bytes = block_bytes
            .checked_mul(assoc as u64)
            .ok_or(MemError::NotPowerOfTwo {
                what: "associativity",
                value: assoc as u64,
            })?;
        if way_bytes > size_bytes {
            return Err(MemError::TooSmall {
                what: "cache size",
                value: size_bytes,
                min: way_bytes,
            });
        }
        Ok(CacheGeometry {
            size_bytes,
            block_bytes,
            assoc,
        })
    }

    /// A direct-mapped geometry (associativity 1).
    ///
    /// # Errors
    ///
    /// Same as [`CacheGeometry::new`].
    pub fn direct_mapped(size_bytes: u64, block_bytes: u64) -> Result<Self, MemError> {
        Self::new(size_bytes, block_bytes, 1)
    }

    /// Total capacity in bytes.
    #[inline]
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Block (line) size in bytes.
    #[inline]
    pub const fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Associativity (ways per set).
    #[inline]
    pub const fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of sets.
    ///
    /// All three fields are validated powers of two, so this and the
    /// address split below are shifts and masks, never a division.
    #[inline]
    pub const fn sets(&self) -> u64 {
        1 << self.set_bits()
    }

    /// Total number of blocks (lines).
    #[inline]
    pub const fn blocks(&self) -> u64 {
        self.size_bytes >> self.block_bits()
    }

    /// `log2(block size)`.
    #[inline]
    pub const fn block_bits(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }

    /// `log2(sets)`.
    #[inline]
    pub const fn set_bits(&self) -> u32 {
        self.size_bytes.trailing_zeros() - self.block_bits() - self.assoc.trailing_zeros()
    }

    /// The block id containing a raw byte address.
    ///
    /// The raw entry point: a `BlockId` is space-ambiguous (see its
    /// docs), so callers holding a typed address should prefer
    /// [`vblock_of`](Self::vblock_of) / [`pblock_of`](Self::pblock_of),
    /// which keep the address-domain analysis informed about which
    /// space the block came from.
    #[inline]
    pub fn block_of(&self, raw_addr: u64) -> BlockId {
        BlockId(raw_addr >> self.block_bits())
    }

    /// The block id containing a virtual address (the typed entry for
    /// virtually-indexed caches; a sanctioned translation in the
    /// address-domain analysis).
    #[inline]
    pub fn vblock_of(&self, va: VirtAddr) -> BlockId {
        self.block_of(va.raw())
    }

    /// The block id containing a physical address (the typed entry for
    /// physically-indexed caches; a sanctioned translation in the
    /// address-domain analysis).
    #[inline]
    pub fn pblock_of(&self, pa: PhysAddr) -> BlockId {
        self.block_of(pa.raw())
    }

    /// The set index a block maps to: the low [`set_bits`](Self::set_bits)
    /// of the block id.
    #[inline]
    pub fn set_of(&self, block: BlockId) -> SetIndex {
        SetIndex::new(block.raw() & (self.sets() - 1))
    }

    /// The tag of a block: the block-id bits above the set index. Together
    /// with [`set_of`](Self::set_of) this is the full block-id split — a
    /// block id is exactly `(tag << set_bits) | set`.
    #[inline]
    pub fn tag_of(&self, block: BlockId) -> Tag {
        Tag::new(block.raw() >> self.set_bits())
    }

    /// The set index a raw byte address maps to.
    #[inline]
    pub fn set_of_addr(&self, raw_addr: u64) -> SetIndex {
        self.set_of(self.block_of(raw_addr))
    }

    /// The first byte address of a block.
    #[inline]
    pub fn addr_of(&self, block: BlockId) -> u64 {
        block.raw() << self.block_bits()
    }

    /// Number of this cache's blocks that fit in one block of `inner`, i.e.
    /// `self.block_bytes / inner.block_bytes`.
    ///
    /// Used by the R-cache, whose blocks may span several V-cache blocks
    /// (`B2 >= B1`); each contained L1 block gets its own subentry.
    ///
    /// # Panics
    ///
    /// Panics if `inner`'s blocks are larger than this cache's blocks.
    pub fn subblocks_per_block(&self, inner: &CacheGeometry) -> u32 {
        assert!(
            self.block_bytes >= inner.block_bytes,
            "outer block ({}) smaller than inner block ({})",
            self.block_bytes,
            inner.block_bytes
        );
        (self.block_bytes / inner.block_bytes) as u32
    }

    /// Converts a block id of this geometry into the block id of the
    /// enclosing block in `outer` (which must have equal or larger blocks).
    pub fn block_in(&self, block: BlockId, outer: &CacheGeometry) -> BlockId {
        let shift = outer.block_bits() - self.block_bits();
        BlockId(block.raw() >> shift)
    }

    /// Index of `inner_block` among the sub-blocks of its enclosing block in
    /// this geometry: `0 ..< self.subblocks_per_block(inner)`.
    pub fn subblock_index(&self, inner: &CacheGeometry, inner_block: BlockId) -> u32 {
        let shift = self.block_bits() - inner.block_bits();
        (inner_block.raw() & ((1 << shift) - 1)) as u32
    }

    /// The `inner`-sized block ids contained in `block` of this geometry,
    /// in address order.
    pub fn subblocks_of(&self, inner: &CacheGeometry, block: BlockId) -> BlockRun {
        let shift = self.block_bits() - inner.block_bits();
        BlockRun {
            first: block.raw() << shift,
            len: 1 << shift,
        }
    }
}

/// A run of consecutive block ids: the inner blocks one outer block
/// contains ([`CacheGeometry::subblocks_of`]). It is two words and
/// `Copy`, so naming a block's granules allocates nothing; position `i`
/// of the run is [`BlockRun::at`].
///
/// ```
/// use vrcache_cache::geometry::{BlockId, CacheGeometry};
/// # fn main() -> Result<(), vrcache_mem::MemError> {
/// let l1 = CacheGeometry::direct_mapped(64, 16)?;
/// let l2 = CacheGeometry::direct_mapped(256, 32)?;
/// let run = l2.subblocks_of(&l1, BlockId::new(2));
/// assert_eq!(run.at(1), BlockId::new(5));
/// assert!(run.contains(BlockId::new(4)) && !run.contains(BlockId::new(6)));
/// assert_eq!(run.into_iter().count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRun {
    first: u64,
    len: u64,
}

impl BlockRun {
    /// The block at position `i` (`i` below the run's length).
    #[inline]
    pub fn at(self, i: usize) -> BlockId {
        debug_assert!((i as u64) < self.len, "position {i} past the run");
        BlockId(self.first + i as u64)
    }

    /// Whether `block` lies in the run.
    #[inline]
    pub fn contains(self, block: BlockId) -> bool {
        block.0.wrapping_sub(self.first) < self.len
    }
}

impl IntoIterator for BlockRun {
    type Item = BlockId;
    type IntoIter = core::iter::Map<core::ops::Range<u64>, fn(u64) -> BlockId>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        (self.first..self.first + self.len).map(BlockId as fn(u64) -> BlockId)
    }
}

impl fmt::Debug for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheGeometry({} B, {} B blocks, {}-way, {} sets)",
            self.size_bytes,
            self.block_bytes,
            self.assoc,
            self.sets()
        )
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = if self.size_bytes.is_multiple_of(1024) {
            format!("{}K", self.size_bytes / 1024)
        } else {
            format!("{}B", self.size_bytes)
        };
        write!(f, "{size}/{}B/{}-way", self.block_bytes, self.assoc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_map_is_a_plain_map_with_a_fixed_hash() {
        use core::hash::{BuildHasher, BuildHasherDefault};
        let mut m = BlockMap::default();
        for raw in 0..1000u64 {
            m.insert(BlockId::new(raw * 16), raw);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&BlockId::new(16 * 999)), Some(&999));
        assert_eq!(m.get(&BlockId::new(1)), None);
        // No per-process random state: the same id hashes the same way
        // in every map and every run.
        let h = BuildHasherDefault::<BlockHasher>::default();
        assert_eq!(h.hash_one(BlockId::new(7)), h.hash_one(BlockId::new(7)));
        assert_ne!(h.hash_one(BlockId::new(7)), h.hash_one(BlockId::new(8)));
    }

    #[test]
    fn validates_parameters() {
        assert!(CacheGeometry::new(0, 16, 1).is_err());
        assert!(CacheGeometry::new(1024, 0, 1).is_err());
        assert!(CacheGeometry::new(1024, 16, 0).is_err());
        assert!(CacheGeometry::new(1000, 16, 1).is_err());
        assert!(CacheGeometry::new(1024, 17, 1).is_err());
        assert!(CacheGeometry::new(1024, 16, 3).is_err());
        // block * assoc > size
        assert!(CacheGeometry::new(64, 32, 4).is_err());
        assert!(CacheGeometry::new(16 * 1024, 16, 1).is_ok());
    }

    #[test]
    fn paper_first_level_geometry() {
        let g = CacheGeometry::direct_mapped(16 * 1024, 16).unwrap();
        assert_eq!(g.sets(), 1024);
        assert_eq!(g.blocks(), 1024);
        assert_eq!(g.block_bits(), 4);
        assert_eq!(g.set_bits(), 10);
    }

    #[test]
    fn shift_split_matches_the_division_definition() {
        for size_log in 0..=24u32 {
            for block_log in 0..=size_log {
                for assoc_log in 0..=(size_log - block_log).min(6) {
                    let (size, block, assoc) =
                        (1u64 << size_log, 1u64 << block_log, 1u32 << assoc_log);
                    let g = CacheGeometry::new(size, block, assoc).unwrap();
                    let sets = size / (block * u64::from(assoc));
                    assert_eq!(g.sets(), sets, "{g:?}");
                    assert_eq!(g.blocks(), size / block, "{g:?}");
                    assert_eq!(1u64 << g.set_bits(), sets, "{g:?}");
                    let b = BlockId::new(0x1234_5678_9abc);
                    assert_eq!(g.set_of(b).raw(), b.raw() % sets, "{g:?}");
                    assert_eq!(g.tag_of(b).raw(), b.raw() / sets, "{g:?}");
                }
            }
        }
    }

    #[test]
    fn set_mapping_wraps() {
        let g = CacheGeometry::direct_mapped(64, 16).unwrap(); // 4 sets
        assert_eq!(g.set_of_addr(0), SetIndex::new(0));
        assert_eq!(g.set_of_addr(16), SetIndex::new(1));
        assert_eq!(g.set_of_addr(63), SetIndex::new(3));
        assert_eq!(g.set_of_addr(64), SetIndex::new(0));
    }

    #[test]
    fn typed_block_entries_match_the_raw_one() {
        let g = CacheGeometry::direct_mapped(64, 16).unwrap();
        assert_eq!(g.vblock_of(VirtAddr::new(0x123)), g.block_of(0x123));
        assert_eq!(g.pblock_of(PhysAddr::new(0x456)), g.block_of(0x456));
    }

    #[test]
    fn set_and_tag_are_the_block_id_split() {
        let g = CacheGeometry::new(256, 32, 2).unwrap(); // 4 sets, 2 set bits
        let b = g.block_of(0x7b3);
        let set = g.set_of(b);
        let tag = g.tag_of(b);
        assert_eq!(set.raw(), b.raw() & 3);
        assert_eq!(tag.raw(), b.raw() >> 2);
        assert_eq!((tag.raw() << g.set_bits()) | set.raw(), b.raw());
    }

    #[test]
    fn block_round_trip() {
        let g = CacheGeometry::new(256, 32, 2).unwrap();
        let b = g.block_of(0x123);
        assert_eq!(b.raw(), 0x123 >> 5);
        assert_eq!(g.addr_of(b), (0x123 >> 5) << 5);
    }

    #[test]
    fn fully_associative_has_one_set() {
        let g = CacheGeometry::new(128, 16, 8).unwrap();
        assert_eq!(g.sets(), 1);
        assert_eq!(g.set_of_addr(0xdead), SetIndex::new(0));
    }

    #[test]
    fn subblock_relationships() {
        let l1 = CacheGeometry::direct_mapped(64, 16).unwrap();
        let l2 = CacheGeometry::direct_mapped(256, 32).unwrap();
        assert_eq!(l2.subblocks_per_block(&l1), 2);
        // L1 blocks 4 and 5 live inside L2 block 2.
        assert_eq!(l1.block_in(BlockId::new(4), &l2), BlockId::new(2));
        assert_eq!(l1.block_in(BlockId::new(5), &l2), BlockId::new(2));
        assert_eq!(l2.subblock_index(&l1, BlockId::new(4)), 0);
        assert_eq!(l2.subblock_index(&l1, BlockId::new(5)), 1);
        let subs: Vec<_> = l2.subblocks_of(&l1, BlockId::new(2)).into_iter().collect();
        assert_eq!(subs, vec![BlockId::new(4), BlockId::new(5)]);
    }

    #[test]
    fn equal_block_sizes_are_one_to_one() {
        let g = CacheGeometry::direct_mapped(64, 16).unwrap();
        let h = CacheGeometry::direct_mapped(256, 16).unwrap();
        assert_eq!(h.subblocks_per_block(&g), 1);
        assert_eq!(g.block_in(BlockId::new(9), &h), BlockId::new(9));
        assert_eq!(h.subblock_index(&g, BlockId::new(9)), 0);
    }

    #[test]
    #[should_panic(expected = "outer block")]
    fn subblocks_panics_when_inverted() {
        let l1 = CacheGeometry::direct_mapped(64, 32).unwrap();
        let l2 = CacheGeometry::direct_mapped(256, 16).unwrap();
        let _ = l2.subblocks_per_block(&l1);
    }

    #[test]
    fn display_forms() {
        let g = CacheGeometry::new(16 * 1024, 16, 2).unwrap();
        assert_eq!(g.to_string(), "16K/16B/2-way");
        assert!(format!("{g:?}").contains("512 sets"));
        let b = BlockId::new(0x2a);
        assert_eq!(b.to_string(), "0x2a");
        assert_eq!(format!("{b:?}"), "BlockId(0x2a)");
    }
}
