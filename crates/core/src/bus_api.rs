//! The interface between one cache hierarchy and the shared bus.
//!
//! A hierarchy never touches its siblings or main memory directly: mid-miss
//! it issues a [`BusRequest`] through a [`SystemBus`] and receives a
//! [`BusResponse`]. The multiprocessor simulator (`vrcache-sim`) implements
//! [`SystemBus`] by snooping every other hierarchy and consulting the
//! [`MainMemory`](vrcache_bus::memory::MainMemory); the single-CPU
//! [`LoopbackBus`](crate::sys::LoopbackBus) implements it with memory alone.

use vrcache_bus::oracle::Version;
use vrcache_cache::geometry::BlockId;

use crate::inline::InlineVec;

/// One version per L1-sized granule of a block, in address order: held
/// in place up to four granules (`B2/B1 <= 4`), so a fetch allocates
/// nothing at the paper's block ratios.
pub type GranuleVersions = InlineVec<Version, 4>;

/// `(granule block id, version)` pairs of a block, held like
/// [`GranuleVersions`].
pub type GranuleData = InlineVec<(BlockId, Version), 4>;

/// A request a hierarchy places on the bus during an access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusRequest {
    /// Fetch a second-level block for reading.
    ReadMiss {
        /// Physical block id at L2 granularity.
        block: BlockId,
        /// Number of L1-sized granules per L2 block (`B2/B1`).
        subblocks: u32,
    },
    /// Fetch a second-level block with intent to write (other copies are
    /// invalidated as part of the transaction).
    ReadModifiedWrite {
        /// Physical block id at L2 granularity.
        block: BlockId,
        /// Number of L1-sized granules per L2 block.
        subblocks: u32,
    },
    /// Invalidate every other cached copy of a block before writing it.
    Invalidate {
        /// Physical block id at L2 granularity.
        block: BlockId,
    },
    /// Write a dirty evicted block back to memory. `granules` carries the
    /// per-L1-granule data versions.
    WriteBack {
        /// Physical block id at L2 granularity.
        block: BlockId,
        /// `(granule block id, version)` pairs, one per L1-sized granule.
        granules: GranuleData,
    },
    /// Update-protocol broadcast: every sharer refreshes its copy of
    /// `granule` to `version` in place. The response's
    /// `shared_elsewhere` tells the writer whether anyone still shares the
    /// block (if not, it may stop broadcasting).
    Update {
        /// Physical block id at L2 granularity.
        block: BlockId,
        /// The written L1-sized granule.
        granule: BlockId,
        /// The new data version.
        version: Version,
    },
}

impl BusRequest {
    /// The L2-granularity block this request concerns.
    pub fn block(&self) -> BlockId {
        match self {
            BusRequest::ReadMiss { block, .. }
            | BusRequest::ReadModifiedWrite { block, .. }
            | BusRequest::Invalidate { block }
            | BusRequest::WriteBack { block, .. }
            | BusRequest::Update { block, .. } => *block,
        }
    }
}

/// The bus's answer to a [`BusRequest`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusResponse {
    /// Another hierarchy acknowledged holding the block (the requester sets
    /// its state to *shared* rather than *private*).
    pub shared_elsewhere: bool,
    /// For data-carrying requests: the version of each L1-sized granule of
    /// the block, in address order. Empty for invalidations and write-backs.
    pub granule_versions: GranuleVersions,
}

/// The bus as seen from inside a hierarchy.
pub trait SystemBus {
    /// Performs `request`, snooping every other hierarchy and updating main
    /// memory, and returns the aggregate response.
    fn issue(&mut self, request: BusRequest) -> BusResponse;
}

/// What a hierarchy reports back when snooping a foreign transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnoopReply {
    /// This hierarchy held a valid copy (drives the requester's
    /// shared/private decision).
    pub has_copy: bool,
    /// If this hierarchy owned the block dirty, the granule versions it
    /// supplies (the bus writes them to memory and hands them to the
    /// requester).
    pub supplied: Option<GranuleData>,
    /// Coherence messages that reached this hierarchy's first-level cache or
    /// its write buffer while servicing the snoop — the paper's
    /// Tables 11–13 metric.
    pub l1_messages: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_block_accessor() {
        let b = BlockId::new(7);
        assert_eq!(
            BusRequest::ReadMiss {
                block: b,
                subblocks: 1
            }
            .block(),
            b
        );
        assert_eq!(
            BusRequest::ReadModifiedWrite {
                block: b,
                subblocks: 2
            }
            .block(),
            b
        );
        assert_eq!(BusRequest::Invalidate { block: b }.block(), b);
        assert_eq!(
            BusRequest::WriteBack {
                block: b,
                granules: GranuleData::default()
            }
            .block(),
            b
        );
        assert_eq!(
            BusRequest::Update {
                block: b,
                granule: BlockId::new(14),
                version: vrcache_bus::oracle::Version::INITIAL,
            }
            .block(),
            b
        );
    }

    #[test]
    fn default_response_is_miss_shaped() {
        let r = BusResponse::default();
        assert!(!r.shared_elsewhere);
        assert!(r.granule_versions.is_empty());
        let s = SnoopReply::default();
        assert!(!s.has_copy);
        assert!(s.supplied.is_none());
        assert_eq!(s.l1_messages, 0);
    }
}
