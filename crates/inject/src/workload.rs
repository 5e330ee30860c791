//! The fixed synthetic workload every injection replays.
//!
//! Hand-rolled rather than sampled from `vrcache-trace`'s generators so
//! the event sequence is a pure function of the workload seed and the
//! [`WorkloadShape`] — no RNG crate, no floating-point sampling, nothing
//! whose iteration order could drift. The shape stresses exactly the
//! state the fault table corrupts:
//!
//! * two CPUs sharing a handful of physical pages (coherence traffic,
//!   snoops, invalidations — targets for the bus-level kinds),
//! * virtual aliasing on a quarter of the references (synonym
//!   resolution exercises r-pointers and v-pointers),
//! * a context switch on CPU 0 midway (swapped-valid state),
//! * small caches relative to the footprint (evictions keep the write
//!   buffer and the inclusion bits busy),
//! * a tail phase where both CPUs re-read every hot granule — latent
//!   corruption that survived the main phase must face the oracle here.
//!
//! The default shape (8 pages, 110 references per half, a sharing beat
//! every 16 iterations) and the campaign's shape grid are what the
//! pinned `baseline.txt` was reviewed against.

use vrcache_mem::access::{AccessKind, CpuId};
use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
use vrcache_trace::record::{MemAccess, TraceEvent};

/// Byte offset of the first page.
const PA_BASE: u64 = 0x9000;

/// The tunable knobs of the synthetic workload.
///
/// [`WorkloadShape::default`] reproduces the exact event sequence the
/// pinned SDC baseline was reviewed against; any other shape produces a
/// different (but equally deterministic) sequence, and its run ids
/// carry the shape key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadShape {
    /// Physical pages the workload touches (1..=16; the canonical
    /// virtual names must stay below the synonym-alias window at
    /// `0x20000`).
    pub pages: u64,
    /// Main-phase references per half (before and after the context
    /// switch).
    pub half_refs: u64,
    /// A sharing beat fires every `beat_period` main-phase iterations.
    pub beat_period: u64,
}

impl Default for WorkloadShape {
    fn default() -> WorkloadShape {
        WorkloadShape {
            pages: 8,
            half_refs: 110,
            beat_period: 16,
        }
    }
}

impl WorkloadShape {
    /// Whether this is the baseline-pinned default shape.
    pub fn is_default(&self) -> bool {
        *self == WorkloadShape::default()
    }

    /// Compact `<pages>x<refs>x<beat>` form used in shape-keyed run ids.
    pub fn id_suffix(&self) -> String {
        format!("{}x{}x{}", self.pages, self.half_refs, self.beat_period)
    }

    /// Iterations of each half that carry a sharing beat. The default
    /// phase (iteration 5 of every 16) is preserved for any period that
    /// still contains it.
    fn is_beat(&self, i: u64) -> bool {
        i % self.beat_period == 5 % self.beat_period
    }
}

/// A tiny deterministic linear-congruential generator (same constants as
/// `java.util.Random`; quality is irrelevant, determinism is not).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x5DEECE66D).wrapping_add(0xB))
    }

    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

fn access(cpu: u16, asid: u16, kind: AccessKind, va: u64, pa: u64) -> TraceEvent {
    TraceEvent::Access(MemAccess {
        cpu: CpuId::new(cpu),
        asid: Asid::new(asid),
        kind,
        vaddr: VirtAddr::new(va),
        paddr: PhysAddr::new(pa),
    })
}

/// One main-phase reference: page/offset/kind/aliasing drawn from the
/// LCG, CPUs strictly alternating so the interleaving is fixed.
fn main_ref(lcg: &mut Lcg, shape: &WorkloadShape, i: u64, asid0: u16) -> TraceEvent {
    let cpu = (i % 2) as u16;
    let asid = if cpu == 0 { asid0 } else { 1 };
    let page = lcg.next(shape.pages);
    let offset = lcg.next(16) * 16;
    let pa = PA_BASE + page * 0x1000 + offset;
    // A quarter of the references use the synonym alias of the page.
    let va = if lcg.next(4) == 0 {
        0x20000 + page * 0x1000 + offset
    } else {
        0x1000 * (page + 1) + offset
    };
    let kind = if lcg.next(3) == 0 {
        AccessKind::DataWrite
    } else {
        AccessKind::DataRead
    };
    access(cpu, asid, kind, va, pa)
}

/// A *sharing beat*: both CPUs read the hot granule (page 0, offset 0),
/// then CPU 0 writes it — a guaranteed write hit on a Shared line, i.e.
/// a bus invalidation upgrade. This keeps Shared coherence state and
/// `Invalidate` transactions flowing at every injection point: the
/// targets of coherence-state flips and lost invalidations. CPU 1's
/// beat read also confronts any stale copy it was left holding.
fn sharing_beat(events: &mut Vec<TraceEvent>, asid0: u16) {
    let pa = PA_BASE;
    let va = 0x1000;
    events.push(access(0, asid0, AccessKind::DataRead, va, pa));
    events.push(access(1, 1, AccessKind::DataRead, va, pa));
    events.push(access(0, asid0, AccessKind::DataWrite, va, pa));
}

/// Builds the campaign workload for `seed` with the given shape.
///
/// The sequence is: warm-up half, context switch on CPU 0 (ASID 1 → 2),
/// second half under the new ASID, then the verification tail in which
/// both CPUs read back every page's first two granules through their
/// canonical names. Total length is [`len_shaped`]`(shape)` events.
pub fn build_shaped(seed: u64, shape: &WorkloadShape) -> Vec<TraceEvent> {
    let mut lcg = Lcg::new(seed);
    let mut events = Vec::new();
    for i in 0..shape.half_refs {
        if shape.is_beat(i) {
            sharing_beat(&mut events, 1);
        }
        events.push(main_ref(&mut lcg, shape, i, 1));
    }
    events.push(TraceEvent::ContextSwitch {
        cpu: CpuId::new(0),
        from: Asid::new(1),
        to: Asid::new(2),
    });
    for i in 0..shape.half_refs {
        if shape.is_beat(i) {
            sharing_beat(&mut events, 2);
        }
        events.push(main_ref(&mut lcg, shape, i, 2));
    }
    // Verification tail: every hot granule faces the oracle once more on
    // both CPUs. CPU 0 reads under its post-switch ASID.
    for page in 0..shape.pages {
        for granule in 0..2u64 {
            let offset = granule * 16;
            let pa = PA_BASE + page * 0x1000 + offset;
            let va = 0x1000 * (page + 1) + offset;
            events.push(access(0, 2, AccessKind::DataRead, va, pa));
            events.push(access(1, 1, AccessKind::DataRead, va, pa));
        }
    }
    events
}

/// Builds the default-shape campaign workload for `seed`.
pub fn build(seed: u64) -> Vec<TraceEvent> {
    build_shaped(seed, &WorkloadShape::default())
}

/// Number of events [`build_shaped`] produces for `shape` (independent
/// of the seed).
pub fn len_shaped(shape: &WorkloadShape) -> u64 {
    let beats = (0..shape.half_refs).filter(|&i| shape.is_beat(i)).count() as u64;
    (shape.half_refs + beats * 3) * 2 + 1 + shape.pages * 2 * 2
}

/// Number of events [`build`] produces (independent of the seed).
pub fn len() -> u64 {
    len_shaped(&WorkloadShape::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_sized() {
        let a = build(1);
        let b = build(1);
        assert_eq!(a, b, "same seed, same events");
        assert_eq!(a.len() as u64, len());
        assert_ne!(build(2), a, "different seeds differ");
    }

    #[test]
    fn workload_mixes_cpus_writes_and_aliases() {
        let events = build(1);
        let mut writes = 0;
        let mut aliased = 0;
        let mut cpu1 = 0;
        for e in &events {
            if let TraceEvent::Access(a) = e {
                if a.kind == AccessKind::DataWrite {
                    writes += 1;
                }
                if a.vaddr.raw() >= 0x20000 {
                    aliased += 1;
                }
                if a.cpu == CpuId::new(1) {
                    cpu1 += 1;
                }
            }
        }
        assert!(writes > 20, "writes: {writes}");
        assert!(aliased > 10, "aliased: {aliased}");
        assert!(cpu1 > 50, "cpu1 refs: {cpu1}");
    }

    #[test]
    fn default_shape_matches_legacy_build() {
        let shape = WorkloadShape::default();
        assert!(shape.is_default());
        assert_eq!(build_shaped(1, &shape), build(1));
        assert_eq!(len_shaped(&shape), len());
    }

    #[test]
    fn shaped_knobs_change_the_sequence_deterministically() {
        let wide = WorkloadShape {
            pages: 12,
            half_refs: 40,
            beat_period: 8,
        };
        assert!(!wide.is_default());
        let a = build_shaped(3, &wide);
        assert_eq!(a, build_shaped(3, &wide), "same shape+seed, same events");
        assert_eq!(a.len() as u64, len_shaped(&wide));
        assert_ne!(a, build_shaped(3, &WorkloadShape::default()));
    }

    #[test]
    fn shape_grid_entries_are_in_range() {
        // Pages stay below the synonym-alias window, and neither phase
        // length nor beat period may be zero.
        for shape in crate::campaign::SHAPE_GRID
            .iter()
            .chain([&WorkloadShape::default()])
        {
            assert!((1..=16).contains(&shape.pages), "{shape:?}");
            assert!(shape.half_refs >= 1, "{shape:?}");
            assert!(shape.beat_period >= 1, "{shape:?}");
        }
    }

    #[test]
    fn id_suffix_is_compact() {
        assert_eq!(WorkloadShape::default().id_suffix(), "8x110x16");
    }
}
