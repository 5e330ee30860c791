//! Property-based system tests: arbitrary access interleavings — including
//! synonyms, cross-process sharing and context switches — never violate
//! coherence (version oracle) or the structural invariants, on any
//! organization — plus the metamorphic relations VR ≡ RR(incl) and
//! RR(incl) ≡ RR(no incl) over generated workloads, each with the knobs
//! that break it.

use proptest::prelude::*;

use vrcache::config::HierarchyConfig;
use vrcache_bus::stats::BusStats;
use vrcache_cache::geometry::CacheGeometry;
use vrcache_mem::access::{AccessKind, CpuId};
use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
use vrcache_mem::page::PageSize;
use vrcache_sim::system::{HierarchyKind, System};
use vrcache_trace::record::{MemAccess, TraceEvent};
use vrcache_trace::synth::{generate, WorkloadConfig};

const CPUS: u16 = 2;
const PAGE: u64 = 4096;

/// One abstract step of the generated schedule.
#[derive(Debug, Clone)]
enum Step {
    /// cpu, kind selector, virtual page selector, offset words.
    Access(u16, u8, u8, u16),
    /// Context switch on cpu.
    Switch(u16),
}

/// The fixed address-space layout used by the generator:
///
/// * each CPU runs two processes (`asid = cpu*2 + slot + 1`),
/// * virtual pages 0–2 are private (`pa_page = asid*8 + vpage`),
/// * virtual page 3 maps the shared page 100 (same VA in every process —
///   cross-process same-set synonyms),
/// * virtual page 4 *also* maps shared page 100 (intra-process synonym),
/// * virtual page 5 maps shared page 101.
fn translate(asid: Asid, vpage: u64) -> u64 {
    match vpage {
        0..=2 => u64::from(asid.raw()) * 8 + vpage,
        3 | 4 => 100,
        5 => 101,
        _ => unreachable!("vpage out of range"),
    }
}

/// The ASID of a CPU's `slot`-th process: two per CPU, numbered from 1.
fn asid_for(cpu: usize, slot: usize) -> Asid {
    Asid::new(u16::try_from(cpu * 2 + slot + 1).expect("tiny test universe"))
}

fn materialize(steps: &[Step], active: &mut [usize; 2]) -> Vec<TraceEvent> {
    steps
        .iter()
        .map(|s| match s {
            Step::Switch(cpu) => {
                let c = (*cpu % CPUS) as usize;
                let from = asid_for(c, active[c]);
                active[c] = 1 - active[c];
                let to = asid_for(c, active[c]);
                TraceEvent::ContextSwitch {
                    cpu: CpuId::new(c as u16),
                    from,
                    to,
                }
            }
            Step::Access(cpu, kind_sel, vpage_sel, offset_words) => {
                let c = (*cpu % CPUS) as usize;
                let asid = asid_for(c, active[c]);
                let kind = match kind_sel % 5 {
                    0 => AccessKind::DataWrite,
                    1 | 2 => AccessKind::DataRead,
                    _ => AccessKind::InstrFetch,
                };
                let vpage = u64::from(vpage_sel % 6);
                let offset = u64::from(*offset_words % 256) * 4;
                let va = vpage * PAGE + offset;
                let pa = translate(asid, vpage) * PAGE + offset;
                TraceEvent::Access(MemAccess {
                    cpu: CpuId::new(c as u16),
                    asid,
                    kind,
                    vaddr: VirtAddr::new(va),
                    paddr: PhysAddr::new(pa),
                })
            }
        })
        .collect()
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        9 => (0..CPUS, any::<u8>(), any::<u8>(), any::<u16>())
            .prop_map(|(c, k, p, o)| Step::Access(c, k, p, o)),
        1 => (0..CPUS).prop_map(Step::Switch),
    ]
}

fn run_schedule(kind: HierarchyKind, cfg: &HierarchyConfig, steps: &[Step]) {
    let mut active = [0usize; 2];
    let events = materialize(steps, &mut active);
    let mut sys = System::new(kind, CPUS, cfg).with_invariant_checks(16);
    sys.run_events(events.iter())
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
    sys.check_invariants().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The V-R hierarchy stays coherent and structurally sound on any
    /// schedule.
    #[test]
    fn vr_never_breaks(steps in proptest::collection::vec(step_strategy(), 1..400)) {
        let cfg = HierarchyConfig::direct_mapped(512, 8 * 1024, 16).unwrap().with_runtime_checks(true);
        run_schedule(HierarchyKind::Vr, &cfg, &steps);
    }

    /// Both R-R baselines and the Goodman single-level organization stay
    /// coherent on any schedule.
    #[test]
    fn rr_and_goodman_never_break(steps in proptest::collection::vec(step_strategy(), 1..300)) {
        let cfg = HierarchyConfig::direct_mapped(512, 8 * 1024, 16).unwrap().with_runtime_checks(true);
        run_schedule(HierarchyKind::RrInclusive, &cfg, &steps);
        run_schedule(HierarchyKind::RrNonInclusive, &cfg, &steps);
        run_schedule(HierarchyKind::GoodmanSingleLevel, &cfg, &steps);
    }

    /// Associative, multi-subblock geometries stay sound too.
    #[test]
    fn vr_multiblock_never_breaks(steps in proptest::collection::vec(step_strategy(), 1..250)) {
        let l1 = vrcache_cache::geometry::CacheGeometry::new(512, 16, 2).unwrap();
        let l2 = vrcache_cache::geometry::CacheGeometry::new(8 * 1024, 32, 2).unwrap();
        let cfg = HierarchyConfig::new(l1, l2, PageSize::SIZE_4K).unwrap().with_runtime_checks(true);
        run_schedule(HierarchyKind::Vr, &cfg, &steps);
    }

    /// A split first level is as sound as a unified one.
    #[test]
    fn vr_split_never_breaks(steps in proptest::collection::vec(step_strategy(), 1..250)) {
        let cfg = HierarchyConfig::direct_mapped(512, 8 * 1024, 16)
            .unwrap()
            .with_runtime_checks(true)
            .with_split_l1();
        run_schedule(HierarchyKind::Vr, &cfg, &steps);
    }

    /// The update (write-broadcast) protocol stays coherent on any
    /// schedule: every broadcast refreshes all copies, so the oracle's
    /// "any valid copy is newest" invariant must keep holding.
    #[test]
    fn update_protocol_never_breaks(steps in proptest::collection::vec(step_strategy(), 1..350)) {
        let cfg = HierarchyConfig::direct_mapped(512, 8 * 1024, 16)
            .unwrap()
            .with_runtime_checks(true)
            .with_update_protocol();
        run_schedule(HierarchyKind::Vr, &cfg, &steps);
    }

    /// Every context-switch scheme stays coherent — including the ASID-tag
    /// alternative, where entries of several processes coexist in the
    /// V-cache and cross-process synonyms are resolved by re-tagging.
    #[test]
    fn all_switch_schemes_never_break(steps in proptest::collection::vec(step_strategy(), 1..250)) {
        let base = HierarchyConfig::direct_mapped(512, 8 * 1024, 16).unwrap().with_runtime_checks(true);
        run_schedule(HierarchyKind::Vr, &base.clone().with_eager_flush(), &steps);
        run_schedule(HierarchyKind::Vr, &base.clone().with_asid_tags(), &steps);
        run_schedule(HierarchyKind::Vr, &base.with_write_through(), &steps);
    }
}

/// A synth genome with no context switches, no synonym aliases and one
/// process per CPU: the conditions under which a virtual first level
/// behaves exactly like a physical one, as long as its index bits stay
/// inside the page offset.
fn aliasless(seed: u64, cpus: u16, refs: u64, p_shared: f64, write_frac: f64) -> WorkloadConfig {
    WorkloadConfig {
        cpus,
        processes_per_cpu: 1,
        total_refs: refs,
        context_switches: 0,
        seed,
        p_shared,
        write_frac,
        p_synonym_alias: 0.0,
        ..WorkloadConfig::default()
    }
}

/// L1 hits, L2 hits and every bus-traffic counter of one run.
fn counts(kind: HierarchyKind, wl: &WorkloadConfig, cfg: &HierarchyConfig) -> (u64, u64, BusStats) {
    let s = System::new(kind, wl.cpus, cfg)
        .run_trace(&generate(wl))
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
    (s.l1.hits(), s.l2.hits(), s.bus)
}

/// `size/block/ways` for each level over the 4K page.
fn geometry(l1: (u64, u64, u32), l2: (u64, u64, u32)) -> HierarchyConfig {
    let l1 = CacheGeometry::new(l1.0, l1.1, l1.2).unwrap();
    let l2 = CacheGeometry::new(l2.0, l2.1, l2.2).unwrap();
    HierarchyConfig::new(l1, l2, PageSize::SIZE_4K).unwrap()
}

/// A synth genome with aliases, context switches and sharing.
fn genome(seed: u64, cpus: u16, p_shared: f64, p_alias: f64, switches: u64) -> WorkloadConfig {
    WorkloadConfig {
        processes_per_cpu: 2,
        context_switches: switches,
        p_synonym_alias: p_alias,
        ..aliasless(seed, cpus, 5_000, p_shared, 0.3)
    }
}

/// L1 and L2 hits of RR(incl) and RR(no incl).
fn rr_hits(wl: &WorkloadConfig, cfg: &HierarchyConfig) -> [(u64, u64); 2] {
    [HierarchyKind::RrInclusive, HierarchyKind::RrNonInclusive].map(|kind| {
        let (l1, l2, _) = counts(kind, wl, cfg);
        (l1, l2)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// VR ≡ RR(incl): with a 4K L1 (no larger than the page) over a 64K
    /// write-back L2, an aliasless, switch-free workload sees identical
    /// L1 hits, L2 hits and bus transactions in both organizations, at
    /// any associativity of either level and either L2 block size — the
    /// V-R design costs nothing when synonyms and context switches are
    /// absent.
    #[test]
    fn vr_matches_inclusive_rr_without_aliases(
        seed in any::<u64>(),
        cpus in 1u16..=4,
        refs in 2_000u64..6_000,
        p_shared in 0.0f64..0.3,
        write_frac in 0.0f64..0.5,
        l1_ways in 1u32..=2,
        l2_ways in 1u32..=2,
        b2 in prop_oneof![Just(16u64), Just(32)],
    ) {
        let wl = aliasless(seed, cpus, refs, p_shared, write_frac);
        let cfg = geometry((4 * 1024, 16, l1_ways), (64 * 1024, b2, l2_ways));
        prop_assert_eq!(
            counts(HierarchyKind::Vr, &wl, &cfg),
            counts(HierarchyKind::RrInclusive, &wl, &cfg)
        );
    }

    /// RR(incl) ≡ RR(no incl) on hits: with both levels direct-mapped and
    /// one block size, the miss that evicts an L2 line refills the same
    /// L1 set, so inclusion never changes a hit — on any genome, aliases,
    /// switches and sharing included. (Bus write-backs may differ.)
    #[test]
    fn inclusive_rr_matches_non_inclusive_rr_hits(
        seed in any::<u64>(),
        cpus in 1u16..=4,
        p_shared in 0.0f64..0.3,
        p_alias in 0.0f64..0.3,
        switches in 0u64..20,
        large in any::<bool>(),
    ) {
        let wl = genome(seed, cpus, p_shared, p_alias, switches);
        let k = if large { 4 } else { 1 };
        let cfg = HierarchyConfig::direct_mapped(k * 4 * 1024, k * 64 * 1024, 16).unwrap();
        let [incl, no_incl] = rr_hits(&wl, &cfg);
        prop_assert_eq!(incl, no_incl);
    }
}

/// Either knob alone breaks RR(incl) ≡ RR(no incl): a 2-way L1 (an L2
/// eviction can now hit an L1 line its refill does not replace), or
/// 32-byte L2 blocks (one L2 eviction covers two L1 blocks).
#[test]
fn inclusive_and_non_inclusive_rr_diverge_per_knob() {
    let wl = genome(7, 2, 0.2, 0.2, 8);
    let [incl, no_incl] = rr_hits(&wl, &geometry((4 * 1024, 16, 1), (64 * 1024, 16, 1)));
    assert_eq!(incl, no_incl);
    for (knob, l1_ways, b2) in [("2-way L1", 2, 16), ("32-byte L2 blocks", 1, 32)] {
        let [incl, no_incl] = rr_hits(&wl, &geometry((4 * 1024, 16, l1_ways), (64 * 1024, b2, 1)));
        assert_ne!(incl, no_incl, "{knob}");
    }
}

/// Either knob alone breaks VR ≡ RR(incl) (the base workload is the one
/// the relation holds on below): a synonym alias, which the V-cache
/// resolves at the second level, or a context switch, which marks its
/// lines swapped.
#[test]
fn vr_and_inclusive_rr_diverge_per_knob() {
    let cfg = HierarchyConfig::direct_mapped(4 * 1024, 64 * 1024, 16).unwrap();
    let base = aliasless(7, 2, 6_000, 0.1, 0.2);
    let alias = WorkloadConfig {
        p_synonym_alias: 0.2,
        ..base.clone()
    };
    let switch = WorkloadConfig {
        context_switches: 8,
        ..base
    };
    for (knob, wl) in [("synonym alias", alias), ("context switch", switch)] {
        let rr = counts(HierarchyKind::RrInclusive, &wl, &cfg);
        assert_ne!(counts(HierarchyKind::Vr, &wl, &cfg), rr, "{knob}");
    }
}

/// The relation is sensitive to the page-offset condition: at 16K/256K
/// the L1 index reaches above the 4K page offset, so virtual and
/// physical placement differ and the counts diverge.
#[test]
fn vr_and_inclusive_rr_diverge_when_l1_exceeds_the_page() {
    let wl = aliasless(7, 2, 6_000, 0.1, 0.2);
    let small = HierarchyConfig::direct_mapped(4 * 1024, 64 * 1024, 16).unwrap();
    assert_eq!(
        counts(HierarchyKind::Vr, &wl, &small),
        counts(HierarchyKind::RrInclusive, &wl, &small)
    );
    let large = HierarchyConfig::direct_mapped(16 * 1024, 256 * 1024, 16).unwrap();
    assert_ne!(
        counts(HierarchyKind::Vr, &wl, &large),
        counts(HierarchyKind::RrInclusive, &wl, &large)
    );
}
