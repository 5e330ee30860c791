//! Hierarchy configuration.

use serde::{Deserialize, Serialize};
use vrcache_cache::geometry::CacheGeometry;
use vrcache_cache::replacement::ReplacementPolicy;
use vrcache_mem::page::PageSize;
use vrcache_mem::tlb::TlbConfig;
use vrcache_mem::MemError;

/// First-level write policy.
///
/// The paper argues for write-back (Section 2): write-through needs several
/// buffers to hide its latency and re-introduces coherence complexity at
/// the buffers. Both are implemented so the argument can be measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum L1WritePolicy {
    /// Dirty blocks written back on replacement (the paper's choice).
    #[default]
    WriteBack,
    /// Every write forwarded to the second level (no write-allocate).
    WriteThrough,
}

/// The bus coherence protocol.
///
/// The paper assumes an invalidation protocol "although our scheme will
/// also work for other protocols as well" — the update (write-broadcast)
/// variant is implemented so that claim can be exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CoherenceProtocol {
    /// Invalidate other copies before writing (the paper's assumption).
    #[default]
    Invalidation,
    /// Broadcast written data to sharers, which refresh their copies in
    /// place (Dragon/Firefly style).
    Update,
}

/// What happens to the V-cache at a context switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ContextSwitchPolicy {
    /// The paper's scheme: mark lines swapped-valid, write back lazily on
    /// replacement.
    #[default]
    SwappedValid,
    /// The naive scheme: write back every dirty line and invalidate the
    /// cache at switch time (the "over a hundred blocks" burst the paper
    /// avoids).
    EagerFlush,
    /// The process-identifier alternative the paper discusses: V-cache tags
    /// carry the ASID, so nothing is flushed at a switch. The paper rejects
    /// it because a real system must still purge on TLB replacement and
    /// PID reassignment (not modeled here — ASIDs are unique), and because
    /// it "does not improve the hit ratio for a small V-cache".
    AsidTags,
}

/// Whether the first-level cache is unified or split into I and D halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum L1Organization {
    /// One first-level cache serving instructions and data.
    #[default]
    Unified,
    /// Separate instruction and data caches, each of half the configured
    /// first-level size (the paper's Tables 8–10 comparison).
    Split,
}

/// Protection on the V-cache and R-cache *data* arrays — the largest
/// SRAM structures in the hierarchy, unprotected under the plain
/// metadata-parity model.
///
/// The fault campaigns model a data upset as one flipped bit of the
/// stored oracle version stamp ([`FaultKind::VDataBit`] /
/// [`FaultKind::RDataBit`]). What the hierarchy does about it depends on
/// this knob:
///
/// * `None` — the corruption propagates silently (the next read of the
///   word is a potential SDC),
/// * `Parity` — the corruption is *detected* at the next hierarchy
///   operation: a clean line is discarded and refetched, a dirty line
///   (the only current copy) degrades to a contained machine check —
///   the asymmetry the write-back design forces,
/// * `Secded` — a Hamming(72,64) code locates the flipped bit and the
///   word is corrected in place
///   ([`secded_corrections`](crate::events::HierarchyEvents::secded_corrections));
///   only multi-bit upsets fall back to the parity behavior.
///
/// [`FaultKind::VDataBit`]: crate::fault::FaultKind::VDataBit
/// [`FaultKind::RDataBit`]: crate::fault::FaultKind::RDataBit
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DataProtection {
    /// Unprotected data arrays (the default): upsets propagate silently.
    #[default]
    None,
    /// Per-word parity: detect-and-discard (clean) or machine check
    /// (dirty).
    Parity,
    /// Single-error-correct, double-error-detect: single-bit upsets are
    /// corrected in place.
    Secded,
}

impl DataProtection {
    /// All variants, in severity order.
    pub const ALL: [DataProtection; 3] = [
        DataProtection::None,
        DataProtection::Parity,
        DataProtection::Secded,
    ];

    /// Stable lower-case label used in campaign run ids.
    pub fn label(self) -> &'static str {
        match self {
            DataProtection::None => "none",
            DataProtection::Parity => "parity",
            DataProtection::Secded => "secded",
        }
    }
}

/// Configuration shared by the V-R hierarchy and the R-R baselines.
///
/// # Example
///
/// The paper's headline configuration — a 16K direct-mapped first level over
/// a 256K direct-mapped second level with 16-byte blocks at both levels:
///
/// ```
/// use vrcache::config::HierarchyConfig;
/// # fn main() -> Result<(), vrcache_mem::MemError> {
/// let cfg = HierarchyConfig::paper_default()?;
/// assert_eq!(cfg.l1.size_bytes(), 16 * 1024);
/// assert_eq!(cfg.l2.size_bytes(), 256 * 1024);
/// assert_eq!(cfg.subblocks(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// First-level geometry. With [`L1Organization::Split`], *each* of the I
    /// and D caches gets half of this size.
    pub l1: CacheGeometry,
    /// Second-level geometry. `l2.block_bytes() >= l1.block_bytes()`.
    pub l2: CacheGeometry,
    /// Unified or split first level.
    pub l1_org: L1Organization,
    /// First-level replacement policy.
    pub l1_policy: ReplacementPolicy,
    /// Second-level replacement policy (applied after the inclusion-clear
    /// preference).
    pub l2_policy: ReplacementPolicy,
    /// Depth of the write-back buffer between the levels.
    pub write_buffer: usize,
    /// Page size (determines the r-pointer / v-pointer widths).
    pub page: PageSize,
    /// Second-level TLB configuration.
    pub tlb: TlbConfig,
    /// RNG seed for randomized replacement.
    pub seed: u64,
    /// Processor references between write-buffer drains: the second level
    /// retires one buffered write per `t2/t1` first-level cycles (the
    /// paper's ratio gives 4).
    pub wb_drain_period: u64,
    /// First-level write policy.
    pub l1_write_policy: L1WritePolicy,
    /// Context-switch handling of the first level (V-R hierarchy only; the
    /// physical baselines never flush).
    pub context_switch_policy: ContextSwitchPolicy,
    /// The bus coherence protocol (V-R hierarchy; the baselines implement
    /// the invalidation protocol only).
    pub protocol: CoherenceProtocol,
    /// Model parity protection on the V/R tag+state arrays and TLB
    /// entries. With parity on, a fault injected through
    /// [`FaultPort`](crate::fault::FaultPort) is *detected* at the next
    /// hierarchy operation and recovered: a clean parity miss is treated
    /// as a cache miss and refetched
    /// ([`parity_refetches`](crate::events::HierarchyEvents::parity_refetches)),
    /// while corruption of dirty data or of linking metadata degrades
    /// gracefully to an invalidate-children machine check
    /// ([`parity_machine_checks`](crate::events::HierarchyEvents::parity_machine_checks)).
    /// With parity off (the default), injected faults propagate silently.
    pub parity: bool,
    /// Protection on the V/R *data* arrays (independent of the
    /// metadata [`parity`](Self::parity) knob — real designs often pair
    /// parity tags with ECC data).
    pub data_protection: DataProtection,
}

impl HierarchyConfig {
    /// Builds and validates a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the second-level block is smaller than the
    /// first-level block, or the second level is not strictly larger than
    /// the first.
    pub fn new(l1: CacheGeometry, l2: CacheGeometry, page: PageSize) -> Result<Self, MemError> {
        if l2.block_bytes() < l1.block_bytes() {
            return Err(MemError::TooSmall {
                what: "second-level block size",
                value: l2.block_bytes(),
                min: l1.block_bytes(),
            });
        }
        if l2.size_bytes() <= l1.size_bytes() {
            return Err(MemError::TooSmall {
                what: "second-level cache size",
                value: l2.size_bytes(),
                min: l1.size_bytes() * 2,
            });
        }
        Ok(HierarchyConfig {
            l1,
            l2,
            l1_org: L1Organization::Unified,
            l1_policy: ReplacementPolicy::Lru,
            l2_policy: ReplacementPolicy::Lru,
            write_buffer: 1,
            page,
            tlb: TlbConfig::default(),
            seed: 1,
            wb_drain_period: 4,
            l1_write_policy: L1WritePolicy::default(),
            context_switch_policy: ContextSwitchPolicy::default(),
            protocol: CoherenceProtocol::default(),
            parity: false,
            data_protection: DataProtection::None,
        })
    }

    /// Convenience constructor: direct-mapped caches of `l1_bytes`/`l2_bytes`
    /// with `block_bytes` blocks at both levels — the shape of every
    /// configuration in the paper's Tables 6–13.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation failures.
    pub fn direct_mapped(l1_bytes: u64, l2_bytes: u64, block_bytes: u64) -> Result<Self, MemError> {
        let l1 = CacheGeometry::direct_mapped(l1_bytes, block_bytes)?;
        let l2 = CacheGeometry::direct_mapped(l2_bytes, block_bytes)?;
        Self::new(l1, l2, PageSize::SIZE_4K)
    }

    /// The paper's headline configuration: 16K/256K direct-mapped, 16-byte
    /// blocks, 4K pages, one write buffer.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for API uniformity.
    pub fn paper_default() -> Result<Self, MemError> {
        Self::direct_mapped(16 * 1024, 256 * 1024, 16)
    }

    /// Switches the first level to split I/D organization (each half sized
    /// `l1.size_bytes() / 2`).
    #[must_use]
    pub fn with_split_l1(mut self) -> Self {
        self.l1_org = L1Organization::Split;
        self
    }

    /// Sets the write-buffer depth.
    #[must_use]
    pub fn with_write_buffer(mut self, depth: usize) -> Self {
        self.write_buffer = depth;
        self
    }

    /// Sets the replacement seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the write-buffer drain period (references per retired entry).
    #[must_use]
    pub fn with_drain_period(mut self, period: u64) -> Self {
        self.wb_drain_period = period.max(1);
        self
    }

    /// Switches the first level to write-through (no write-allocate).
    #[must_use]
    pub fn with_write_through(mut self) -> Self {
        self.l1_write_policy = L1WritePolicy::WriteThrough;
        self
    }

    /// Uses the naive eager context-switch flush instead of swapped-valid.
    #[must_use]
    pub fn with_eager_flush(mut self) -> Self {
        self.context_switch_policy = ContextSwitchPolicy::EagerFlush;
        self
    }

    /// Uses ASID-tagged V-cache entries instead of flushing at switches.
    #[must_use]
    pub fn with_asid_tags(mut self) -> Self {
        self.context_switch_policy = ContextSwitchPolicy::AsidTags;
        self
    }

    /// Uses the update (write-broadcast) coherence protocol.
    #[must_use]
    pub fn with_update_protocol(mut self) -> Self {
        self.protocol = CoherenceProtocol::Update;
        self
    }

    /// Arms modeled parity detection and recovery on the tag/state
    /// arrays and the TLB (see [`HierarchyConfig::parity`]).
    #[must_use]
    pub fn with_parity(mut self) -> Self {
        self.parity = true;
        self
    }

    /// Selects the data-array protection scheme (see [`DataProtection`]).
    #[must_use]
    pub fn with_data_protection(mut self, protection: DataProtection) -> Self {
        self.data_protection = protection;
        self
    }

    /// Number of first-level blocks per second-level block (`B2/B1`).
    pub fn subblocks(&self) -> u32 {
        self.l2.subblocks_per_block(&self.l1)
    }

    /// The geometry of one half of a split first level.
    ///
    /// # Errors
    ///
    /// Fails if the halved size is no longer a valid geometry (e.g. it would
    /// drop below one block).
    pub fn split_half_geometry(&self) -> Result<CacheGeometry, MemError> {
        CacheGeometry::new(
            self.l1.size_bytes() / 2,
            self.l1.block_bytes(),
            self.l1
                .assoc()
                .min((self.l1.size_bytes() / 2 / self.l1.block_bytes()) as u32),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let c = HierarchyConfig::paper_default().unwrap();
        assert_eq!(c.l1.sets(), 1024);
        assert_eq!(c.l2.sets(), 16384);
        assert_eq!(c.subblocks(), 1);
        assert_eq!(c.write_buffer, 1);
        assert_eq!(c.l1_org, L1Organization::Unified);
    }

    #[test]
    fn rejects_l2_block_smaller_than_l1() {
        let l1 = CacheGeometry::direct_mapped(1024, 32).unwrap();
        let l2 = CacheGeometry::direct_mapped(4096, 16).unwrap();
        assert!(HierarchyConfig::new(l1, l2, PageSize::SIZE_4K).is_err());
    }

    #[test]
    fn rejects_l2_not_larger() {
        let l1 = CacheGeometry::direct_mapped(4096, 16).unwrap();
        let l2 = CacheGeometry::direct_mapped(4096, 16).unwrap();
        assert!(HierarchyConfig::new(l1, l2, PageSize::SIZE_4K).is_err());
    }

    #[test]
    fn larger_l2_blocks_give_subblocks() {
        let l1 = CacheGeometry::direct_mapped(1024, 16).unwrap();
        let l2 = CacheGeometry::direct_mapped(8192, 64).unwrap();
        let c = HierarchyConfig::new(l1, l2, PageSize::SIZE_4K).unwrap();
        assert_eq!(c.subblocks(), 4);
    }

    #[test]
    fn builder_methods_chain() {
        let c = HierarchyConfig::paper_default()
            .unwrap()
            .with_split_l1()
            .with_write_buffer(4)
            .with_seed(99);
        assert_eq!(c.l1_org, L1Organization::Split);
        assert_eq!(c.write_buffer, 4);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn data_protection_defaults_off_and_chains() {
        let c = HierarchyConfig::paper_default().unwrap();
        assert_eq!(c.data_protection, DataProtection::None);
        let c = c.with_data_protection(DataProtection::Secded);
        assert_eq!(c.data_protection, DataProtection::Secded);
        let labels: Vec<&str> = DataProtection::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["none", "parity", "secded"]);
    }

    #[test]
    fn split_halves_are_half_sized() {
        let c = HierarchyConfig::paper_default().unwrap().with_split_l1();
        let half = c.split_half_geometry().unwrap();
        assert_eq!(half.size_bytes(), 8 * 1024);
        assert_eq!(half.block_bytes(), 16);
    }
}
