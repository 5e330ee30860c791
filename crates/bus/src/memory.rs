//! The main-memory model.
//!
//! Memory stores, per first-level-sized physical block, the [`Version`] of
//! the data it holds. A block fetched from memory carries that version;
//! under a correct write-back protocol the memory version is only stale
//! while exactly one cache hierarchy holds the block dirty — and that
//! hierarchy, not memory, will supply the data.

use vrcache_cache::geometry::{BlockId, BlockMap};

use crate::oracle::Version;

/// Word-of-truth storage for block versions in main memory.
///
/// # Example
///
/// ```
/// use vrcache_bus::memory::MainMemory;
/// use vrcache_bus::oracle::Version;
/// use vrcache_cache::geometry::BlockId;
///
/// let mut mem = MainMemory::new();
/// let b = BlockId::new(3);
/// assert_eq!(mem.read(b), Version::INITIAL);
/// ```
#[derive(Debug, Default)]
pub struct MainMemory {
    blocks: BlockMap<Version>,
    reads: u64,
    writes: u64,
}
vrcache_mem::clone_fields!(MainMemory {
    blocks,
    reads,
    writes
});

impl MainMemory {
    /// Creates a memory whose every block is at [`Version::INITIAL`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `blocks` written blocks, so writes up to that many
    /// never grow the table (a copy made with `clone_from` keeps it).
    pub fn reserve(&mut self, blocks: usize) {
        self.blocks.reserve(blocks);
    }

    /// Fetches the version of `block` currently in memory (a bus read that
    /// memory satisfies).
    pub fn read(&mut self, block: BlockId) -> Version {
        self.reads += 1;
        self.peek(block)
    }

    /// The version of `block` without counting a memory access.
    pub fn peek(&self, block: BlockId) -> Version {
        self.blocks.get(&block).copied().unwrap_or(Version::INITIAL)
    }

    /// Updates memory with a written-back or flushed version.
    pub fn write(&mut self, block: BlockId, version: Version) {
        self.writes += 1;
        self.blocks.insert(block, version);
    }

    /// All blocks ever written, with their current versions, in no
    /// particular order: a caller that renders or compares them sorts
    /// first (the model checker's canonical key does).
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, Version)> + '_ {
        self.blocks.iter().map(|(&b, &v)| (b, v))
    }

    /// Number of memory reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of memory updates (write-backs and coherence flushes).
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_reads_are_version_zero() {
        let mut m = MainMemory::new();
        assert_eq!(m.read(BlockId::new(9)), Version::INITIAL);
        assert_eq!(m.reads(), 1);
        assert_eq!(m.writes(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = MainMemory::new();
        let v = Version::INITIAL; // arbitrary stand-in versions below
        m.write(BlockId::new(1), v);
        assert_eq!(m.read(BlockId::new(1)), v);
        assert_eq!(m.writes(), 1);
    }

    #[test]
    fn peek_does_not_count() {
        let mut m = MainMemory::new();
        m.write(BlockId::new(2), Version::INITIAL);
        let _ = m.peek(BlockId::new(2));
        assert_eq!(m.reads(), 0);
    }

    #[test]
    fn blocks_are_independent() {
        let mut m = MainMemory::new();
        m.write(BlockId::new(1), Version::INITIAL);
        assert_eq!(m.peek(BlockId::new(2)), Version::INITIAL);
    }
}
