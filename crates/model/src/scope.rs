//! Small-scope configurations: the finite worlds the checker enumerates.
//!
//! A scope fixes everything the state space depends on — the hierarchy
//! kind, the processor count, tiny direct-mapped geometries, a handful of
//! virtual→physical mappings (with deliberate synonym pairs and cache-set
//! collisions), and the interleaving depth bound. The event alphabet is
//! derived from the scope: every processor can read or write every
//! mapping, context-switch, and any mapping's translation can be shot
//! down. "Small scope" is the whole point: within the bound, *every*
//! interleaving is explored, so any protocol bug reachable at this size is
//! found, not sampled.

use vrcache::config::HierarchyConfig;
use vrcache::invariant::InvariantExpect;
use vrcache_cache::geometry::{BlockId, CacheGeometry};
use vrcache_mem::addr::Asid;
use vrcache_mem::page::PageSize;

/// Which hierarchy implementation a scope drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// The paper's two-level virtual-real hierarchy.
    Vr,
    /// Goodman's single-level dual-tag virtual cache.
    Goodman,
}

impl ScopeKind {
    /// Stable label used in coverage rows ("vr" / "goodman").
    pub fn label(self) -> &'static str {
        match self {
            ScopeKind::Vr => "vr",
            ScopeKind::Goodman => "goodman",
        }
    }
}

/// One fixed virtual→physical mapping the event alphabet can touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// Virtual address (block-aligned).
    pub va: u64,
    /// Physical address (block-aligned).
    pub pa: u64,
}

/// The two address-space identifiers every scope's processes toggle
/// between on a context switch.
pub const ASIDS: [Asid; 2] = [Asid::new(1), Asid::new(2)];

/// A bounded exploration scope.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Scope name as accepted by `--scope` and [`Scope::by_name`].
    pub name: &'static str,
    /// Hierarchy implementation under test.
    pub kind: ScopeKind,
    /// Processor count (1–3).
    pub cpus: u16,
    /// The hierarchy configuration every processor uses.
    pub cfg: HierarchyConfig,
    /// The virtual→physical mappings the events are drawn from.
    pub mappings: Vec<Mapping>,
    /// Interleaving depth bound (events per path).
    pub depth: u32,
}

/// One event of the interleaving alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelEvent {
    /// Processor `cpu` reads through mapping `mapping`.
    Read {
        /// Acting processor.
        cpu: u16,
        /// Index into [`Scope::mappings`].
        mapping: usize,
    },
    /// Processor `cpu` writes through mapping `mapping`.
    Write {
        /// Acting processor.
        cpu: u16,
        /// Index into [`Scope::mappings`].
        mapping: usize,
    },
    /// Processor `cpu` context-switches to its other process.
    ContextSwitch {
        /// Acting processor.
        cpu: u16,
    },
    /// The OS shoots down mapping `mapping`'s translation under the ASID
    /// processor 0 is currently running (broadcast to every hierarchy).
    Shootdown {
        /// Index into [`Scope::mappings`].
        mapping: usize,
    },
}

impl core::fmt::Display for ModelEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            ModelEvent::Read { cpu, mapping } => write!(f, "read cpu{cpu} m{mapping}"),
            ModelEvent::Write { cpu, mapping } => write!(f, "write cpu{cpu} m{mapping}"),
            ModelEvent::ContextSwitch { cpu } => write!(f, "context-switch cpu{cpu}"),
            ModelEvent::Shootdown { mapping } => write!(f, "shootdown m{mapping}"),
        }
    }
}

impl ModelEvent {
    /// Renders the event as the Rust expression that reconstructs it —
    /// used when emitting a counterexample as a standalone `#[test]`.
    pub fn as_source(&self) -> String {
        match *self {
            ModelEvent::Read { cpu, mapping } => {
                format!("ModelEvent::Read {{ cpu: {cpu}, mapping: {mapping} }}")
            }
            ModelEvent::Write { cpu, mapping } => {
                format!("ModelEvent::Write {{ cpu: {cpu}, mapping: {mapping} }}")
            }
            ModelEvent::ContextSwitch { cpu } => {
                format!("ModelEvent::ContextSwitch {{ cpu: {cpu} }}")
            }
            ModelEvent::Shootdown { mapping } => {
                format!("ModelEvent::Shootdown {{ mapping: {mapping} }}")
            }
        }
    }
}

/// The tiny shared geometry of most scopes: a 4-line V-cache over an
/// 8-line R-cache, 16-byte blocks, one granule per R block. Small enough
/// that three mappings already collide in both levels.
fn tiny_cfg() -> HierarchyConfig {
    HierarchyConfig::direct_mapped(64, 128, 16)
        .invariant_expect("tiny geometry is valid")
        .with_write_buffer(2)
        .with_drain_period(1)
}

/// Mappings for the tiny geometry: m0/m1 are a synonym pair (same
/// physical page, V sets collide — `sameset` resolution), m2 is a second
/// physical page whose blocks collide with m0's in both the V and R
/// arrays, forcing evictions and inclusion invalidations.
fn tiny_mappings() -> Vec<Mapping> {
    vec![
        Mapping {
            va: 0x0000,
            pa: 0x0000,
        },
        Mapping {
            va: 0x1000,
            pa: 0x0000,
        },
        Mapping {
            va: 0x2000,
            pa: 0x1000,
        },
    ]
}

impl Scope {
    /// The 1-CPU smoke scope wired into the pre-merge gate: single
    /// processor, tiny geometry, synonym pair plus a colliding page,
    /// deep enough to cycle data through V, the write buffer, R, and
    /// back.
    pub fn smoke() -> Scope {
        Scope {
            name: "smoke",
            kind: ScopeKind::Vr,
            cpus: 1,
            cfg: tiny_cfg(),
            mappings: tiny_mappings(),
            depth: 6,
        }
    }

    /// The multi-processor battery: every coherence-relevant configuration
    /// axis gets a scope. Kept individually shallow — the cross product of
    /// 2–3 CPUs and the full event alphabet branches fast.
    pub fn battery() -> Vec<Scope> {
        let mut scopes = vec![
            Scope {
                name: "vr-inval-2cpu",
                kind: ScopeKind::Vr,
                cpus: 2,
                cfg: tiny_cfg(),
                mappings: tiny_mappings(),
                depth: 4,
            },
            Scope {
                name: "vr-update-2cpu",
                kind: ScopeKind::Vr,
                cpus: 2,
                cfg: tiny_cfg().with_update_protocol(),
                mappings: tiny_mappings(),
                depth: 4,
            },
            Scope {
                name: "vr-wt-2cpu",
                kind: ScopeKind::Vr,
                cpus: 2,
                cfg: tiny_cfg().with_write_through(),
                mappings: tiny_mappings(),
                depth: 4,
            },
            Scope {
                name: "vr-eager-2cpu",
                kind: ScopeKind::Vr,
                cpus: 2,
                cfg: tiny_cfg().with_eager_flush(),
                mappings: tiny_mappings(),
                depth: 4,
            },
            Scope {
                name: "vr-asid-2cpu",
                kind: ScopeKind::Vr,
                cpus: 2,
                cfg: tiny_cfg().with_asid_tags(),
                mappings: tiny_mappings(),
                depth: 4,
            },
            Scope {
                name: "vr-sub-2cpu",
                kind: ScopeKind::Vr,
                cpus: 2,
                cfg: subblocked_cfg(),
                mappings: subblocked_mappings(),
                depth: 4,
            },
            Scope {
                name: "vr-move-2cpu",
                kind: ScopeKind::Vr,
                cpus: 2,
                cfg: move_cfg(),
                mappings: move_mappings(),
                depth: 4,
            },
            Scope {
                name: "vr-3cpu",
                kind: ScopeKind::Vr,
                cpus: 3,
                cfg: tiny_cfg(),
                mappings: tiny_mappings(),
                depth: 3,
            },
            Scope {
                name: "goodman-2cpu",
                kind: ScopeKind::Goodman,
                cpus: 2,
                cfg: tiny_cfg(),
                mappings: tiny_mappings(),
                depth: 4,
            },
        ];
        scopes.sort_by_key(|s| s.name);
        scopes
    }

    /// Every scope, smoke first.
    pub fn all() -> Vec<Scope> {
        let mut scopes = vec![Scope::smoke()];
        scopes.extend(Scope::battery());
        scopes
    }

    /// Looks a scope up by name ("smoke", "vr-update-2cpu", ...).
    pub fn by_name(name: &str) -> Option<Scope> {
        Scope::all().into_iter().find(|s| s.name == name)
    }

    /// The full event alphabet of this scope, in a fixed order.
    pub fn events(&self) -> Vec<ModelEvent> {
        let mut out = Vec::new();
        for cpu in 0..self.cpus {
            for mapping in 0..self.mappings.len() {
                out.push(ModelEvent::Read { cpu, mapping });
                out.push(ModelEvent::Write { cpu, mapping });
            }
        }
        for cpu in 0..self.cpus {
            out.push(ModelEvent::ContextSwitch { cpu });
        }
        for mapping in 0..self.mappings.len() {
            out.push(ModelEvent::Shootdown { mapping });
        }
        out
    }

    /// The physical granules (L1-sized blocks) the mappings can touch —
    /// the value-equivalence property iterates exactly this universe.
    pub fn granules(&self) -> Vec<BlockId> {
        let mut out: Vec<BlockId> = self
            .mappings
            .iter()
            .map(|m| self.cfg.l1.block_of(m.pa))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The second-level (bus-granularity) blocks of those granules — the
    /// SWMR property iterates this universe.
    pub fn l2_blocks(&self) -> Vec<BlockId> {
        let mut out: Vec<BlockId> = self
            .granules()
            .iter()
            .map(|&g| self.cfg.l1.block_in(g, &self.cfg.l2))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A geometry with two granules per R block (32-byte L2 blocks over
/// 16-byte L1 blocks) so the sub-entry machinery is in scope.
fn subblocked_cfg() -> HierarchyConfig {
    let l1 = CacheGeometry::direct_mapped(64, 16).invariant_expect("valid L1 geometry");
    let l2 = CacheGeometry::direct_mapped(256, 32).invariant_expect("valid L2 geometry");
    HierarchyConfig::new(l1, l2, PageSize::SIZE_4K)
        .invariant_expect("subblocked geometry is valid")
        .with_write_buffer(2)
        .with_drain_period(1)
}

/// Mappings for the subblocked geometry: m0/m1 synonym pair, m2 a second
/// page landing in the *other* granule of the same R block footprint.
fn subblocked_mappings() -> Vec<Mapping> {
    vec![
        Mapping {
            va: 0x0000,
            pa: 0x0000,
        },
        Mapping {
            va: 0x1000,
            pa: 0x0000,
        },
        Mapping {
            va: 0x2010,
            pa: 0x1010,
        },
    ]
}

/// A geometry whose V-cache *exceeds the page*, so synonym virtual
/// addresses can land in *different* V sets — the `move` resolution path.
/// Rather than scaling the caches past a 4 KB page (hundreds of lines per
/// clone would dominate exploration time), the page is shrunk to 32 bytes
/// under the same tiny 64 B/128 B geometry: V-index bit 5 lies above the
/// page offset, which is the only structural property `move` needs.
fn move_cfg() -> HierarchyConfig {
    let mut cfg = tiny_cfg();
    cfg.page = PageSize::new(32).invariant_expect("32-byte page is valid");
    cfg
}

/// Mappings for the move geometry: m0/m1 share a physical page but differ
/// in V-index bit 5 (a `move` pair); m2 is a second physical page whose
/// block collides with m0's in both the V and R arrays.
fn move_mappings() -> Vec<Mapping> {
    vec![
        Mapping { va: 0x00, pa: 0x00 },
        Mapping { va: 0x20, pa: 0x00 },
        Mapping { va: 0x40, pa: 0x80 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrcache::hierarchy::SynonymKind;

    #[test]
    fn smoke_mappings_are_a_sameset_synonym_pair_with_a_collision() {
        let s = Scope::smoke();
        let m = &s.mappings;
        // m0/m1: same physical block, same V set (sameset synonym).
        assert_eq!(s.cfg.l1.block_of(m[0].pa), s.cfg.l1.block_of(m[1].pa));
        assert_eq!(
            s.cfg.l1.set_of_addr(m[0].va),
            s.cfg.l1.set_of_addr(m[1].va),
            "smoke synonyms must be sameset"
        );
        // m2 collides with m0 in both levels but is a different block.
        assert_ne!(s.cfg.l1.block_of(m[2].pa), s.cfg.l1.block_of(m[0].pa));
        assert_eq!(s.cfg.l1.set_of_addr(m[2].va), s.cfg.l1.set_of_addr(m[0].va));
        assert_eq!(
            s.cfg.l2.set_of_addr(m[2].pa),
            s.cfg.l2.set_of_addr(m[0].pa),
            "m2 must collide with m0 in the R array"
        );
    }

    #[test]
    fn move_scope_synonyms_land_in_different_v_sets() {
        let s = Scope::by_name("vr-move-2cpu").unwrap();
        let m = &s.mappings;
        assert_eq!(s.cfg.l1.block_of(m[0].pa), s.cfg.l1.block_of(m[1].pa));
        assert_ne!(
            s.cfg.l1.set_of_addr(m[0].va),
            s.cfg.l1.set_of_addr(m[1].va),
            "move synonyms must cross V sets"
        );
        // And the resolution really is a move: drive it once.
        let mut w = crate::world::World::<vrcache::vr::VrHierarchy>::new(&s);
        let mut cov = crate::coverage::CoverageSet::default();
        w.apply(&s, ModelEvent::Write { cpu: 0, mapping: 0 }, &mut cov)
            .unwrap();
        let out = w.access(&s, 0, 1, false, &mut cov).unwrap();
        assert_eq!(out.synonym, Some(SynonymKind::Move));
    }

    #[test]
    fn subblocked_scope_has_two_granules_per_l2_block() {
        let s = Scope::by_name("vr-sub-2cpu").unwrap();
        assert_eq!(s.cfg.subblocks(), 2);
        // m2 shares an R block with neither m0 nor m1 (different page) but
        // exercises the second sub index.
        let g2 = s.cfg.l1.block_of(s.mappings[2].pa);
        assert_eq!(s.cfg.l2.subblock_index(&s.cfg.l1, g2), 1);
    }

    #[test]
    fn event_alphabet_is_deterministic_and_complete() {
        let s = Scope::smoke();
        let ev = s.events();
        assert_eq!(ev.len(), (2 * 3) + 1 + 3);
        assert_eq!(ev, s.events());
    }

    #[test]
    fn by_name_round_trips_every_scope() {
        for s in Scope::all() {
            assert_eq!(Scope::by_name(s.name).map(|x| x.name), Some(s.name));
        }
        assert!(Scope::by_name("no-such-scope").is_none());
    }
}
