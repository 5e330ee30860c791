//! A global coherence oracle based on per-block data versions.
//!
//! The simulator does not move real data around; instead every processor
//! write mints a fresh, globally-unique [`Version`] for the written block
//! (at first-level block granularity — the unit cached by a V-cache).
//! Caches store the version of the copy they hold. Because the protocol is
//! invalidation-based, *any* valid cached copy must be the newest version:
//! a write is only performed after every other copy has been invalidated.
//!
//! [`VersionOracle::check_read`] asserts exactly that, turning subtle
//! protocol bugs — a lost invalidation, a stale supply from memory after a
//! missed flush, a write-back dropped during a synonym move — into an
//! immediate, pinpointed [`CoherenceViolation`].

use core::fmt;
use serde::{Deserialize, Serialize};
use vrcache_cache::geometry::{BlockId, BlockMap};
use vrcache_mem::access::CpuId;

/// A data version: a globally-unique, monotonically-increasing stamp per
/// write. Version 0 is "never written" (the block's initial memory image).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Version(u64);

impl Version {
    /// The pristine, never-written version.
    pub const INITIAL: Version = Version(0);

    /// The raw counter value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// This version with bit `bit % 64` of its raw counter flipped — the
    /// modeled effect of a data-array upset on the stored stamp. XOR is
    /// self-inverse, so applying the same flip again restores the
    /// original (how SECDED correction is modeled).
    #[must_use]
    pub fn with_bit_flipped(self, bit: u32) -> Version {
        Version(self.0 ^ (1u64 << (bit % 64)))
    }
}

impl fmt::Debug for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A detected coherence violation: a processor observed a stale copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherenceViolation {
    /// The reading processor.
    pub cpu: CpuId,
    /// The block read (L1 granularity, physical).
    pub block: BlockId,
    /// The version the processor observed.
    pub observed: Version,
    /// The newest version at the time of the read.
    pub expected: Version,
}

impl fmt::Display for CoherenceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} read stale {} of block {} (newest is {})",
            self.cpu, self.observed, self.block, self.expected
        )
    }
}

impl std::error::Error for CoherenceViolation {}

/// The global version authority.
///
/// # Example
///
/// ```
/// use vrcache_bus::oracle::VersionOracle;
/// use vrcache_cache::geometry::BlockId;
/// use vrcache_mem::access::CpuId;
///
/// let mut oracle = VersionOracle::new();
/// let b = BlockId::new(7);
/// let v1 = oracle.on_write(CpuId::new(0), b);
/// assert!(oracle.check_read(CpuId::new(0), b, v1).is_ok());
/// let v2 = oracle.on_write(CpuId::new(1), b);
/// // Reading the old version is now a violation.
/// assert!(oracle.check_read(CpuId::new(0), b, v1).is_err());
/// assert!(oracle.check_read(CpuId::new(1), b, v2).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct VersionOracle {
    counter: u64,
    newest: BlockMap<Version>,
    checks: u64,
}
vrcache_mem::clone_fields!(VersionOracle {
    counter,
    newest,
    checks
});

impl VersionOracle {
    /// Creates an oracle with every block at [`Version::INITIAL`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `blocks` written blocks, so writes to up to that
    /// many never grow the table (a copy made with `clone_from` keeps it).
    pub fn reserve(&mut self, blocks: usize) {
        self.newest.reserve(blocks);
    }

    /// Registers a processor write to `block`, returning the fresh version
    /// the writer's cached copy now holds.
    pub fn on_write(&mut self, _cpu: CpuId, block: BlockId) -> Version {
        self.counter += 1;
        let v = Version(self.counter);
        self.newest.insert(block, v);
        v
    }

    /// The newest version of `block`.
    pub fn newest(&self, block: BlockId) -> Version {
        self.newest.get(&block).copied().unwrap_or(Version::INITIAL)
    }

    /// Asserts that a processor read of `block` observed the newest version.
    ///
    /// # Errors
    ///
    /// Returns a [`CoherenceViolation`] describing the staleness otherwise.
    pub fn check_read(
        &mut self,
        cpu: CpuId,
        block: BlockId,
        observed: Version,
    ) -> Result<(), CoherenceViolation> {
        self.checks += 1;
        let expected = self.newest(block);
        if observed == expected {
            Ok(())
        } else {
            Err(CoherenceViolation {
                cpu,
                block,
                observed,
                expected,
            })
        }
    }

    /// Every written block with its newest version, sorted by block id.
    /// Deterministic regardless of internal hashing — intended for state
    /// snapshots (model checking) and end-state comparisons in tests.
    pub fn snapshot(&self) -> Vec<(BlockId, Version)> {
        let mut all: Vec<_> = self.newest.iter().map(|(&b, &v)| (b, v)).collect();
        all.sort_unstable_by_key(|&(b, _)| b);
        all
    }

    /// Number of read checks performed (useful to assert the oracle really
    /// ran in tests).
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of distinct blocks ever written.
    pub fn written_blocks(&self) -> usize {
        self.newest.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu(i: u16) -> CpuId {
        CpuId::new(i)
    }

    #[test]
    fn initial_version_reads_ok() {
        let mut o = VersionOracle::new();
        assert!(o
            .check_read(cpu(0), BlockId::new(1), Version::INITIAL)
            .is_ok());
        assert_eq!(o.checks(), 1);
    }

    #[test]
    fn writes_are_monotone_and_global() {
        let mut o = VersionOracle::new();
        let a = o.on_write(cpu(0), BlockId::new(1));
        let b = o.on_write(cpu(1), BlockId::new(2));
        let c = o.on_write(cpu(0), BlockId::new(1));
        assert!(a < b && b < c);
        assert_eq!(o.newest(BlockId::new(1)), c);
        assert_eq!(o.newest(BlockId::new(2)), b);
        assert_eq!(o.written_blocks(), 2);
    }

    #[test]
    fn stale_read_is_reported() {
        let mut o = VersionOracle::new();
        let old = o.on_write(cpu(0), BlockId::new(5));
        let newest = o.on_write(cpu(1), BlockId::new(5));
        let err = o.check_read(cpu(0), BlockId::new(5), old).unwrap_err();
        assert_eq!(err.cpu, cpu(0));
        assert_eq!(err.block, BlockId::new(5));
        assert_eq!(err.observed, old);
        assert_eq!(err.expected, newest);
        let text = err.to_string();
        assert!(text.contains("stale"));
        assert!(text.contains("cpu0"));
    }

    #[test]
    fn unwritten_blocks_are_independent() {
        let mut o = VersionOracle::new();
        o.on_write(cpu(0), BlockId::new(1));
        // A different block is still pristine.
        assert!(o
            .check_read(cpu(1), BlockId::new(2), Version::INITIAL)
            .is_ok());
    }

    #[test]
    fn bit_flip_is_self_inverse() {
        let mut o = VersionOracle::new();
        let v = o.on_write(cpu(0), BlockId::new(3));
        let flipped = v.with_bit_flipped(17);
        assert_ne!(flipped, v);
        assert_eq!(flipped.raw(), v.raw() ^ (1 << 17));
        assert_eq!(flipped.with_bit_flipped(17), v);
        // The shift distance wraps at the word width.
        assert_eq!(v.with_bit_flipped(64), v.with_bit_flipped(0));
    }

    #[test]
    fn version_display() {
        assert_eq!(Version::INITIAL.to_string(), "v0");
        assert_eq!(format!("{:?}", Version::INITIAL), "v0");
        assert_eq!(Version::INITIAL.raw(), 0);
    }
}
