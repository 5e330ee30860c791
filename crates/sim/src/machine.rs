//! The bus-attached machine: N private hierarchies on one snooping bus
//! over a version-checked main memory.
//!
//! [`Machine::with_bus`] is the one place a hierarchy is lifted out of
//! its slot to issue on a [`SnoopingBus`] over all the others. The
//! trace-driven [`System`](crate::system::System), the model checker's
//! `World` and the fault-injection harness (which wraps the bus it is
//! handed) all replay through it. A DMA device issues on the same bus
//! with [`Machine::issue_as`], so every hierarchy filters I/O exactly as
//! it filters a foreign processor.

use vrcache::bus_api::{BusRequest, BusResponse, SystemBus};
use vrcache::hierarchy::{AccessOutcome, CacheHierarchy};
use vrcache_bus::memory::MainMemory;
use vrcache_bus::oracle::{CoherenceViolation, VersionOracle};
use vrcache_bus::stats::BusStats;
use vrcache_mem::access::CpuId;
use vrcache_trace::record::MemAccess;

use crate::snoop::{SnoopObserver, SnoopingBus};

/// Per-CPU hierarchies on one snooping bus, with the shared memory, the
/// coherence oracle and the bus counters. Slot `i` holds CPU `i`.
pub struct Machine<H: CacheHierarchy + ?Sized> {
    slots: Vec<Option<Box<H>>>,
    /// The flat main memory behind the bus.
    pub memory: MainMemory,
    /// The sequentially-consistent reference every read is checked against.
    pub oracle: VersionOracle,
    /// Bus traffic counters.
    pub bus_stats: BusStats,
    subblocks: u32,
}
vrcache_mem::clone_fields!(Machine<H> {
    slots,
    memory,
    oracle,
    bus_stats,
    subblocks,
} where H: CacheHierarchy + Clone);

impl<H: CacheHierarchy + ?Sized> Machine<H> {
    /// A machine over `hierarchies` (the `i`-th is CPU `i`) with pristine
    /// memory; `subblocks` is `B2/B1`, the granules a bus fetch returns.
    pub fn new(hierarchies: impl IntoIterator<Item = Box<H>>, subblocks: u32) -> Self {
        Machine {
            slots: hierarchies.into_iter().map(Some).collect(),
            memory: MainMemory::new(),
            oracle: VersionOracle::new(),
            bus_stats: BusStats::default(),
            subblocks,
        }
    }

    /// Number of processors.
    pub fn cpus(&self) -> usize {
        self.slots.len()
    }

    /// L1-sized granules per bus block.
    pub fn subblocks(&self) -> u32 {
        self.subblocks
    }

    /// Runs `f` on `cpu`'s hierarchy with a bus over every other
    /// hierarchy (reporting to `observer`, if any) and the oracle — the
    /// one take/put. `None` when `cpu` is out of range.
    #[inline]
    pub fn with_bus<R>(
        &mut self,
        cpu: CpuId,
        observer: Option<&mut dyn SnoopObserver>,
        f: impl FnOnce(&mut H, &mut SnoopingBus<'_, H>, &mut VersionOracle) -> R,
    ) -> Option<R> {
        let mut h = self.slots.get_mut(cpu.index())?.take()?;
        let mut bus = SnoopingBus::new(
            cpu,
            &mut self.slots,
            &mut self.memory,
            &mut self.bus_stats,
            self.subblocks,
        );
        if let Some(observer) = observer {
            bus = bus.with_observer(observer);
        }
        let result = f(&mut h, &mut bus, &mut self.oracle);
        self.slots[cpu.index()] = Some(h);
        Some(result)
    }

    /// One processor reference on the issuing CPU's hierarchy. `None`
    /// when the access names a CPU outside the machine.
    #[inline]
    pub fn access(
        &mut self,
        access: &MemAccess,
        observer: Option<&mut dyn SnoopObserver>,
    ) -> Option<Result<AccessOutcome, CoherenceViolation>> {
        self.with_bus(access.cpu, observer, |h, bus, oracle| {
            h.access(access, bus, oracle)
        })
    }

    /// Issues `request` on behalf of a non-processor `agent` (a DMA
    /// device): every hierarchy snoops it, as for a foreign processor.
    pub fn issue_as(&mut self, agent: CpuId, request: BusRequest) -> BusResponse {
        SnoopingBus::new(
            agent,
            &mut self.slots,
            &mut self.memory,
            &mut self.bus_stats,
            self.subblocks,
        )
        .issue(request)
    }

    /// Every hierarchy, in CPU order.
    pub fn iter(&self) -> impl Iterator<Item = &H> + '_ {
        self.slots.iter().flatten().map(|h| &**h)
    }

    /// One processor's hierarchy, or `None` when `cpu` is out of range.
    pub fn get(&self, cpu: CpuId) -> Option<&H> {
        self.slots.get(cpu.index())?.as_deref()
    }

    /// One processor's hierarchy, mutably.
    pub fn get_mut(&mut self, cpu: CpuId) -> Option<&mut H> {
        self.slots.get_mut(cpu.index())?.as_deref_mut()
    }
}
