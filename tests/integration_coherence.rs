//! Multiprocessor coherence torture tests: every organization must stay
//! coherent (version oracle) and structurally sound (invariant checks)
//! under sharing-heavy, switch-heavy and alias-heavy workloads.

use vrcache::config::HierarchyConfig;
use vrcache_bus::txn::BusOp;
use vrcache_mem::access::CpuId;
use vrcache_sim::system::{HierarchyKind, System};
use vrcache_trace::synth::{generate, WorkloadConfig};
use vrcache_trace::trace::Trace;

fn torture_trace(seed: u64, cpus: u16, shared: f64, switches: u64) -> Trace {
    generate(&WorkloadConfig {
        cpus,
        processes_per_cpu: 2,
        total_refs: 80_000,
        context_switches: switches,
        seed,
        p_shared: shared,
        shared_pages: 8,
        p_synonym_alias: 0.3,
        ..WorkloadConfig::default()
    })
}

#[test]
fn all_organizations_survive_sharing_torture() {
    for seed in [1, 2, 3] {
        let trace = torture_trace(seed, 4, 0.25, 16);
        for kind in HierarchyKind::ALL {
            let cfg = HierarchyConfig::direct_mapped(2 * 1024, 32 * 1024, 16).unwrap();
            let mut sys = System::new(kind, 4, &cfg).with_invariant_checks(256);
            sys.run_trace(&trace)
                .unwrap_or_else(|e| panic!("seed {seed} {kind}: {e}"));
            assert!(
                sys.oracle().checks() > 10_000,
                "oracle must actually be exercised"
            );
        }
    }
}

#[test]
fn invalidation_and_rmw_paths_are_exercised() {
    let trace = torture_trace(7, 4, 0.3, 0);
    let cfg = HierarchyConfig::direct_mapped(4 * 1024, 64 * 1024, 16).unwrap();
    let mut sys = System::new(HierarchyKind::Vr, 4, &cfg).with_invariant_checks(64);
    let run = sys.run_trace(&trace).unwrap();
    assert!(run.bus.count(BusOp::Invalidate) > 0, "no upgrades happened");
    assert!(
        run.bus.count(BusOp::ReadModifiedWrite) > 0,
        "no write misses happened"
    );
    assert!(run.bus.cache_supplied > 0, "no dirty supplies happened");
    // The shielding machinery must have been used in both directions.
    let (mut flushes, mut invals) = (0u64, 0u64);
    for c in 0..4 {
        let e = sys.events(CpuId::new(c));
        flushes += e.flush_v + e.flush_buffer;
        invals += e.inval_v + e.inval_buffer;
    }
    assert!(flushes > 0, "no flushes reached any V-cache");
    assert!(invals > 0, "no invalidations reached any V-cache");
}

#[test]
fn tiny_caches_magnify_interaction_and_stay_clean() {
    // Small caches force constant replacement interplay between the
    // levels, the buffer and the bus — the hardest structural case.
    let trace = torture_trace(11, 2, 0.35, 40);
    let cfg = HierarchyConfig::direct_mapped(256, 4 * 1024, 16).unwrap();
    let mut sys = System::new(HierarchyKind::Vr, 2, &cfg).with_invariant_checks(64);
    sys.run_trace(&trace).unwrap();
    // Inclusion invalidations are expected at this pressure; their counter
    // proves the relaxed replacement rule ran.
    let incl: u64 = (0..2)
        .map(|c| sys.events(CpuId::new(c)).inclusion_invalidations)
        .sum();
    assert!(incl > 0, "tiny L2 must trigger inclusion invalidations");
}

#[test]
fn associative_and_multiblock_l2_configurations_are_clean() {
    use vrcache_cache::geometry::CacheGeometry;
    use vrcache_mem::page::PageSize;
    let trace = torture_trace(13, 2, 0.2, 8);
    // B2 = 2 * B1, 2-way L2, 2-way L1: exercises subentries and way logic.
    let l1 = CacheGeometry::new(2 * 1024, 16, 2).unwrap();
    let l2 = CacheGeometry::new(32 * 1024, 32, 2).unwrap();
    let cfg = HierarchyConfig::new(l1, l2, PageSize::SIZE_4K).unwrap();
    for kind in HierarchyKind::ALL {
        let mut sys = System::new(kind, 2, &cfg).with_invariant_checks(128);
        sys.run_trace(&trace)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn random_replacement_policies_are_clean() {
    use vrcache_cache::replacement::ReplacementPolicy;
    let trace = torture_trace(17, 2, 0.2, 8);
    for policy in [
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
        ReplacementPolicy::TreePlru,
    ] {
        let mut cfg = HierarchyConfig::direct_mapped(1024, 16 * 1024, 16).unwrap();
        cfg.l1_policy = policy;
        cfg.l2_policy = policy;
        // Policies only matter with associativity.
        cfg.l1 = vrcache_cache::geometry::CacheGeometry::new(1024, 16, 4).unwrap();
        cfg.l2 = vrcache_cache::geometry::CacheGeometry::new(16 * 1024, 16, 4).unwrap();
        let mut sys = System::new(HierarchyKind::Vr, 2, &cfg).with_invariant_checks(256);
        sys.run_trace(&trace)
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
    }
}

#[test]
fn deep_write_buffers_behave() {
    let trace = torture_trace(19, 2, 0.2, 20);
    for depth in [1usize, 2, 8] {
        let cfg = HierarchyConfig::direct_mapped(1024, 16 * 1024, 16)
            .unwrap()
            .with_write_buffer(depth);
        let mut sys = System::new(HierarchyKind::Vr, 2, &cfg).with_invariant_checks(256);
        sys.run_trace(&trace)
            .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
    }
}

#[test]
fn shielding_factor_grows_with_cpu_count() {
    // The paper observes more shielding benefit with more processors.
    let cfg = HierarchyConfig::direct_mapped(4 * 1024, 64 * 1024, 16).unwrap();
    let mut factors = Vec::new();
    for cpus in [2u16, 4] {
        let trace = torture_trace(23, cpus, 0.25, 0);
        let mut totals = Vec::new();
        for kind in [HierarchyKind::Vr, HierarchyKind::RrNonInclusive] {
            let mut sys = System::new(kind, cpus, &cfg).with_invariant_checks(64);
            sys.run_trace(&trace).unwrap();
            let t: u64 = (0..cpus)
                .map(|c| sys.events(CpuId::new(c)).l1_coherence_messages())
                .sum();
            totals.push(t.max(1));
        }
        factors.push(totals[1] as f64 / totals[0] as f64);
    }
    assert!(
        factors[1] > factors[0],
        "shielding factor should grow with cpus: {factors:?}"
    );
}

mod dma {
    use super::*;
    use vrcache_mem::access::AccessKind;
    use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
    use vrcache_trace::record::{MemAccess, TraceEvent};

    fn access(cpu: u16, kind: AccessKind, addr: u64) -> TraceEvent {
        TraceEvent::Access(MemAccess {
            cpu: CpuId::new(cpu),
            asid: Asid::new(cpu + 1),
            kind,
            vaddr: VirtAddr::new(addr),
            paddr: PhysAddr::new(addr),
        })
    }

    fn system(kind: HierarchyKind) -> System {
        let cfg = HierarchyConfig::direct_mapped(512, 8 * 1024, 16).unwrap();
        System::new(kind, 2, &cfg).with_invariant_checks(1)
    }

    /// A device reading memory must observe a processor's dirty data — the
    /// flush travels V-cache -> R-cache -> bus exactly like a foreign read.
    #[test]
    fn dma_read_sees_dirty_processor_data() {
        let mut sys = system(HierarchyKind::Vr);
        sys.run_events([access(0, AccessKind::DataWrite, 0x1000)].iter())
            .unwrap();
        sys.dma_read(0x1000, 16).unwrap();
        // The flush reached the V-cache (vdirty was set).
        assert_eq!(sys.events(CpuId::new(0)).flush_v, 1);
        // And the data survives for the processor.
        sys.run_events([access(0, AccessKind::DataRead, 0x1000)].iter())
            .unwrap();
    }

    /// A device writing memory must kill every cached copy; the next
    /// processor read fetches the device's data (oracle-verified).
    #[test]
    fn dma_write_invalidates_cached_copies() {
        for kind in HierarchyKind::ALL {
            let mut sys = system(kind);
            sys.run_events(
                [
                    access(0, AccessKind::DataRead, 0x2000),
                    access(1, AccessKind::DataRead, 0x2000),
                ]
                .iter(),
            )
            .unwrap();
            sys.dma_write(0x2000, 16).unwrap();
            // Both processors must now re-fetch the device version; a hit
            // on the stale copy would trip the oracle.
            sys.run_events(
                [
                    access(0, AccessKind::DataRead, 0x2000),
                    access(1, AccessKind::DataRead, 0x2000),
                ]
                .iter(),
            )
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
            sys.check_invariants().unwrap();
        }
    }

    /// DMA traffic to blocks nobody caches never disturbs a V-R first
    /// level, but interrogates every no-inclusion L1 — the I/O face of the
    /// shielding result.
    #[test]
    fn dma_shielding() {
        let warm = |kind| {
            let mut sys = system(kind);
            sys.run_events([access(0, AccessKind::DataRead, 0x100)].iter())
                .unwrap();
            for block in 0..64u64 {
                sys.dma_write(0x10_0000 + block * 16, 16).unwrap();
            }
            let msgs: u64 = (0..2)
                .map(|c| sys.events(CpuId::new(c)).l1_coherence_messages())
                .sum();
            msgs
        };
        assert_eq!(warm(HierarchyKind::Vr), 0, "VR L1 fully shielded from I/O");
        assert!(
            warm(HierarchyKind::RrNonInclusive) >= 128,
            "every DMA transaction interrogates a no-inclusion L1"
        );
    }

    /// A full DMA round trip through dirty, shared and uncached states.
    #[test]
    fn dma_round_trip_mixed_states() {
        let mut sys = system(HierarchyKind::Vr);
        sys.run_events(
            [
                access(0, AccessKind::DataWrite, 0x3000), // dirty in cpu0
                access(1, AccessKind::DataRead, 0x3010),  // shared granule
            ]
            .iter(),
        )
        .unwrap();
        sys.dma_read(0x3000, 32).unwrap(); // spans both granules
        sys.dma_write(0x3000, 32).unwrap();
        sys.dma_read(0x3000, 32).unwrap(); // device reads its own data back
        sys.run_events(
            [
                access(0, AccessKind::DataRead, 0x3000),
                access(1, AccessKind::DataRead, 0x3010),
            ]
            .iter(),
        )
        .unwrap();
        sys.check_invariants().unwrap();
    }
}

mod tlb_shootdown {
    use super::*;
    use vrcache_mem::access::AccessKind;
    use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr, Vpn};
    use vrcache_trace::record::{MemAccess, TraceEvent};

    fn access(cpu: u16, kind: AccessKind, va: u64, pa: u64) -> TraceEvent {
        TraceEvent::Access(MemAccess {
            cpu: CpuId::new(cpu),
            asid: Asid::new(1),
            kind,
            vaddr: VirtAddr::new(va),
            paddr: PhysAddr::new(pa),
        })
    }

    fn system(kind: HierarchyKind) -> System {
        let cfg = HierarchyConfig::direct_mapped(512, 8 * 1024, 16).unwrap();
        System::new(kind, 2, &cfg).with_invariant_checks(1)
    }

    /// The OS remaps a virtual page: after the shootdown, accesses through
    /// the same VA reach the *new* frame without tripping the stale-link
    /// checks, and the old frame's dirty data survived into the hierarchy.
    #[test]
    fn remap_after_shootdown_is_clean() {
        for kind in HierarchyKind::ALL {
            let mut sys = system(kind);
            // Write through va page 1 -> pa page 9.
            sys.run_events(
                [
                    access(0, AccessKind::DataWrite, 0x1000, 0x9000),
                    access(0, AccessKind::DataWrite, 0x1010, 0x9010),
                ]
                .iter(),
            )
            .unwrap();
            let disturbed = sys.tlb_shootdown(Asid::new(1), Vpn::new(1)).unwrap();
            if kind == HierarchyKind::Vr || kind == HierarchyKind::GoodmanSingleLevel {
                assert_eq!(disturbed, 2, "{kind}: both cached lines retired");
            } else {
                assert_eq!(disturbed, 0, "{kind}: physical L1 untouched");
            }
            // Remap: same VA now points at pa page 0xA.
            sys.run_events([access(0, AccessKind::DataRead, 0x1000, 0xA000)].iter())
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            // The old frame's data is still the newest for its address:
            // a DMA read of it must pass the oracle.
            sys.dma_read(0x9000, 32)
                .unwrap_or_else(|e| panic!("{kind}: old frame data lost: {e}"));
        }
    }

    /// Dirty data of a shot-down page lands in the V-R second level — the
    /// "TLB coherence handled at the second level" claim.
    #[test]
    fn vr_shootdown_folds_dirty_data_into_the_rcache() {
        let mut sys = system(HierarchyKind::Vr);
        sys.run_events([access(0, AccessKind::DataWrite, 0x1000, 0x9000)].iter())
            .unwrap();
        sys.tlb_shootdown(Asid::new(1), Vpn::new(1)).unwrap();
        // Re-reading the physical block through a different virtual name
        // must hit the R-cache and see the written version.
        let out = sys.run_events([access(0, AccessKind::DataRead, 0x5000, 0x9000)].iter());
        out.unwrap();
    }

    /// Shooting down an untouched page disturbs nothing.
    #[test]
    fn shootdown_of_cold_page_is_free() {
        let mut sys = system(HierarchyKind::Vr);
        sys.run_events([access(0, AccessKind::DataRead, 0x1000, 0x9000)].iter())
            .unwrap();
        assert_eq!(sys.tlb_shootdown(Asid::new(1), Vpn::new(7)), Ok(0));
    }
}

/// DMA at L2-block granularity with multi-subblock lines: a device write
/// spanning a 32-byte L2 block must invalidate both contained 16-byte
/// granules everywhere.
#[test]
fn dma_respects_subblock_geometry() {
    use vrcache_cache::geometry::CacheGeometry;
    use vrcache_mem::access::AccessKind;
    use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
    use vrcache_mem::page::PageSize;
    use vrcache_trace::record::{MemAccess, TraceEvent};

    let l1 = CacheGeometry::direct_mapped(512, 16).unwrap();
    let l2 = CacheGeometry::direct_mapped(8 * 1024, 32).unwrap();
    let cfg = HierarchyConfig::new(l1, l2, PageSize::SIZE_4K).unwrap();
    let mut sys = System::new(HierarchyKind::Vr, 1, &cfg).with_invariant_checks(1);
    let touch = |addr: u64, kind| {
        TraceEvent::Access(MemAccess {
            cpu: CpuId::new(0),
            asid: Asid::new(1),
            kind,
            vaddr: VirtAddr::new(addr),
            paddr: PhysAddr::new(addr),
        })
    };
    // Cache both granules of L2 block at 0x2000 (0x2000 and 0x2010).
    sys.run_events(
        [
            touch(0x2000, AccessKind::DataRead),
            touch(0x2010, AccessKind::DataRead),
        ]
        .iter(),
    )
    .unwrap();
    sys.dma_write(0x2000, 32).unwrap();
    // Both granules must re-fetch the device data (oracle-verified).
    sys.run_events(
        [
            touch(0x2000, AccessKind::DataRead),
            touch(0x2010, AccessKind::DataRead),
        ]
        .iter(),
    )
    .unwrap();
    sys.check_invariants().unwrap();
}

mod update_protocol {
    use super::*;
    use vrcache_bus::txn::BusOp;
    use vrcache_mem::access::AccessKind;
    use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
    use vrcache_trace::record::{MemAccess, TraceEvent};

    fn access(cpu: u16, kind: AccessKind, addr: u64) -> TraceEvent {
        TraceEvent::Access(MemAccess {
            cpu: CpuId::new(cpu),
            asid: Asid::new(cpu + 1),
            kind,
            vaddr: VirtAddr::new(addr),
            paddr: PhysAddr::new(addr),
        })
    }

    fn system() -> System {
        let cfg = HierarchyConfig::direct_mapped(512, 8 * 1024, 16)
            .unwrap()
            .with_update_protocol();
        System::new(HierarchyKind::Vr, 2, &cfg).with_invariant_checks(1)
    }

    /// The defining property: a foreign write refreshes a sharer's copy in
    /// place, so the sharer's next read is a first-level HIT on the newest
    /// data (under invalidation it would miss).
    #[test]
    fn sharers_keep_hitting_after_foreign_writes() {
        let mut sys = system();
        sys.run_events(
            [
                access(0, AccessKind::DataRead, 0x1000),
                access(1, AccessKind::DataRead, 0x1000), // both share
                access(0, AccessKind::DataWrite, 0x1000), // broadcast
            ]
            .iter(),
        )
        .unwrap();
        assert_eq!(sys.bus_stats().count(BusOp::Update), 1);
        assert_eq!(sys.events(CpuId::new(1)).update_v, 1, "B's copy refreshed");
        // B reads: must HIT (oracle checks the version is the newest).
        let before = sys.summary().l1.hits();
        sys.run_events([access(1, AccessKind::DataRead, 0x1000)].iter())
            .unwrap();
        assert_eq!(sys.summary().l1.hits(), before + 1, "sharer still hits");
        sys.check_invariants().unwrap();
    }

    /// Ownership (write-back duty) transfers to the most recent writer;
    /// the previous owner's copy becomes clean and its eviction is silent.
    #[test]
    fn ownership_transfers_to_the_updater() {
        let mut sys = system();
        sys.run_events(
            [
                access(0, AccessKind::DataWrite, 0x2000), // cpu0 owns
                access(1, AccessKind::DataRead, 0x2000),  // now shared
                access(1, AccessKind::DataWrite, 0x2000), // cpu1 takes over
            ]
            .iter(),
        )
        .unwrap();
        // cpu0's copy was refreshed, not invalidated.
        assert!(sys.events(CpuId::new(0)).update_v >= 1);
        // Evict cpu0's (now clean) copy via a conflicting read; then the
        // device must still see cpu1's data — cpu1 carried the duty.
        sys.run_events([access(0, AccessKind::DataRead, 0x2200)].iter())
            .unwrap(); // same L1 set in the 512B cache
        sys.dma_read(0x2000, 16).unwrap();
    }

    /// Once the last sharer evicts its copy, the writer notices (nobody
    /// answers the broadcast) and stops paying for updates.
    #[test]
    fn writer_goes_private_when_sharers_leave() {
        let mut sys = system();
        sys.run_events(
            [
                access(0, AccessKind::DataRead, 0x3000),
                access(1, AccessKind::DataRead, 0x3000),
                access(0, AccessKind::DataWrite, 0x3000), // update #1: shared
            ]
            .iter(),
        )
        .unwrap();
        assert_eq!(sys.bus_stats().count(BusOp::Update), 1);
        // cpu1 evicts its copy from both levels (fill both with conflicts:
        // L1 set and the 8K L2 set of 0x3000 -> 0x3000 + 0x2000).
        sys.run_events(
            [
                access(1, AccessKind::DataRead, 0x3200),
                access(1, AccessKind::DataRead, 0x5000),
                access(1, AccessKind::DataRead, 0x7000),
            ]
            .iter(),
        )
        .unwrap();
        // This write's broadcast finds nobody -> private; the next write
        // is silent.
        sys.run_events(
            [
                access(0, AccessKind::DataWrite, 0x3000),
                access(0, AccessKind::DataWrite, 0x3000),
            ]
            .iter(),
        )
        .unwrap();
        let updates = sys.bus_stats().count(BusOp::Update);
        assert!(
            updates <= 2,
            "writer must stop broadcasting once private: {updates} updates"
        );
        sys.check_invariants().unwrap();
    }

    /// The update protocol stays coherent under the sharing torture
    /// workload (version oracle + invariants on every step).
    #[test]
    fn update_protocol_survives_torture() {
        let trace = torture_trace(31, 4, 0.3, 12);
        let cfg = HierarchyConfig::direct_mapped(2 * 1024, 32 * 1024, 16)
            .unwrap()
            .with_update_protocol();
        let mut sys = System::new(HierarchyKind::Vr, 4, &cfg).with_invariant_checks(256);
        let run = sys.run_trace(&trace).unwrap();
        assert!(
            run.bus.count(BusOp::Update) > 0,
            "sharing workload must trigger broadcasts"
        );
        assert_eq!(
            run.bus.count(BusOp::Invalidate),
            0,
            "the update protocol never invalidates"
        );
        assert_eq!(run.bus.count(BusOp::ReadModifiedWrite), 0);
    }

    /// Sharer hit ratios are at least as good under update as under
    /// invalidation on a sharing-heavy workload (the protocol's selling
    /// point), at the price of more first-level update messages.
    #[test]
    fn update_trades_messages_for_sharer_hits() {
        let trace = torture_trace(37, 4, 0.35, 0);
        let base = HierarchyConfig::direct_mapped(2 * 1024, 32 * 1024, 16).unwrap();
        let inval = System::new(HierarchyKind::Vr, 4, &base)
            .with_invariant_checks(64)
            .run_trace(&trace)
            .unwrap();
        let mut upd_sys = System::new(HierarchyKind::Vr, 4, &base.clone().with_update_protocol())
            .with_invariant_checks(64);
        let upd = upd_sys.run_trace(&trace).unwrap();
        assert!(
            upd.h1 >= inval.h1,
            "update must not lose hits to invalidations: {} vs {}",
            upd.h1,
            inval.h1
        );
        let upd_msgs: u64 = (0..4).map(|c| upd_sys.events(CpuId::new(c)).update_v).sum();
        assert!(upd_msgs > 0);
    }
}

/// A device may overwrite a block a processor holds dirty: the cached data
/// is superseded and dropped, and the next read fetches the device's
/// version.
#[test]
fn dma_write_over_dirty_block_supersedes_it() {
    use vrcache_mem::access::AccessKind;
    use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
    use vrcache_trace::record::{MemAccess, TraceEvent};

    for kind in HierarchyKind::ALL {
        let cfg = HierarchyConfig::direct_mapped(512, 8 * 1024, 16).unwrap();
        let mut sys = System::new(kind, 2, &cfg).with_invariant_checks(1);
        let touch = |k, addr: u64| {
            TraceEvent::Access(MemAccess {
                cpu: CpuId::new(0),
                asid: Asid::new(1),
                kind: k,
                vaddr: VirtAddr::new(addr),
                paddr: PhysAddr::new(addr),
            })
        };
        sys.run_events([touch(AccessKind::DataWrite, 0x4000)].iter())
            .unwrap();
        // Straight over the dirty block, without a read first.
        sys.dma_write(0x4000, 16).unwrap();
        sys.run_events([touch(AccessKind::DataRead, 0x4000)].iter())
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        sys.check_invariants().unwrap();
    }
}
