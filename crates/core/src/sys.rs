//! A single-CPU stand-in bus.
//!
//! [`LoopbackBus`] implements [`SystemBus`] with main memory alone — no
//! other hierarchies to snoop. It lets the hierarchy be exercised (and
//! documented) without the full multiprocessor simulator, which lives in
//! `vrcache-sim`.

use vrcache_bus::memory::MainMemory;
use vrcache_bus::stats::BusStats;
use vrcache_bus::txn::BusOp;

use crate::bus_api::{BusRequest, BusResponse, SystemBus};

/// A bus with no other processors: every fetch is satisfied by memory and
/// nothing is ever shared.
#[derive(Debug, Clone, Default)]
pub struct LoopbackBus {
    memory: MainMemory,
    stats: BusStats,
}

impl LoopbackBus {
    /// Creates a loopback bus with pristine memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memory model behind the bus.
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Traffic counters.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }
}

impl SystemBus for LoopbackBus {
    fn issue(&mut self, request: BusRequest) -> BusResponse {
        match request {
            BusRequest::ReadMiss { block, subblocks } => {
                self.stats.record(BusOp::ReadMiss, false);
                let base = block.raw() * u64::from(subblocks);
                let granule_versions = (0..u64::from(subblocks))
                    .map(|i| {
                        self.memory
                            .read(vrcache_cache::geometry::BlockId::new(base + i))
                    })
                    .collect();
                BusResponse {
                    shared_elsewhere: false,
                    granule_versions,
                }
            }
            BusRequest::ReadModifiedWrite { block, subblocks } => {
                self.stats.record(BusOp::ReadModifiedWrite, false);
                let base = block.raw() * u64::from(subblocks);
                let granule_versions = (0..u64::from(subblocks))
                    .map(|i| {
                        self.memory
                            .read(vrcache_cache::geometry::BlockId::new(base + i))
                    })
                    .collect();
                BusResponse {
                    shared_elsewhere: false,
                    granule_versions,
                }
            }
            BusRequest::Invalidate { .. } => {
                self.stats.record(BusOp::Invalidate, false);
                BusResponse::default()
            }
            BusRequest::WriteBack { granules, .. } => {
                self.stats.record(BusOp::WriteBack, false);
                for (g, v) in granules {
                    self.memory.write(g, v);
                }
                BusResponse::default()
            }
            BusRequest::Update { .. } => {
                // No peers: the broadcast finds no sharer.
                self.stats.record(BusOp::Update, false);
                BusResponse::default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrcache_bus::oracle::Version;
    use vrcache_cache::geometry::BlockId;

    #[test]
    fn read_miss_returns_memory_versions() {
        let mut bus = LoopbackBus::new();
        let r = bus.issue(BusRequest::ReadMiss {
            block: BlockId::new(3),
            subblocks: 2,
        });
        assert!(!r.shared_elsewhere);
        assert_eq!(*r.granule_versions, [Version::INITIAL; 2]);
        assert_eq!(bus.stats().count(BusOp::ReadMiss), 1);
    }

    #[test]
    fn write_back_round_trips_through_memory() {
        let mut bus = LoopbackBus::new();
        // Simulate a version written back then re-fetched.
        let g = BlockId::new(6); // granule of L2 block 3 (2 subblocks)
        bus.issue(BusRequest::WriteBack {
            block: BlockId::new(3),
            granules: [(g, Version::INITIAL)].into_iter().collect(),
        });
        assert_eq!(bus.memory().peek(g), Version::INITIAL);
        assert_eq!(bus.stats().count(BusOp::WriteBack), 1);
    }

    #[test]
    fn invalidate_is_a_no_op_with_no_peers() {
        let mut bus = LoopbackBus::new();
        let r = bus.issue(BusRequest::Invalidate {
            block: BlockId::new(1),
        });
        assert_eq!(r, BusResponse::default());
        assert_eq!(bus.stats().count(BusOp::Invalidate), 1);
    }

    #[test]
    fn rmw_counts_separately() {
        let mut bus = LoopbackBus::new();
        bus.issue(BusRequest::ReadModifiedWrite {
            block: BlockId::new(1),
            subblocks: 1,
        });
        assert_eq!(bus.stats().count(BusOp::ReadModifiedWrite), 1);
    }
}
