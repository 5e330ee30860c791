//! Structural invariant checking for the virtual-real hierarchy.
//!
//! The paper's reverse-translation design works only while the V-cache,
//! the R-cache subentries and the write buffer stay mutually consistent:
//! every V line must have an R parent whose subentry points back at it,
//! no physical block may have two V copies, a set buffer bit must match a
//! pending write, and a vdirty bit is meaningful only under inclusion.
//! [`check`] verifies all of that over a [`HierarchyView`] and reports the
//! first breach as a typed [`InvariantViolation`]. The view is generic
//! over the [`FirstLevel`]: the inclusive R-R baseline's physical L1 is
//! checked by the same rules (its key is its physical block, and every
//! line is a data child).
//!
//! Nothing here runs by itself: every hierarchy exposes [`check`] as
//! [`CacheHierarchy::check_invariants`](crate::hierarchy::CacheHierarchy::check_invariants),
//! and its callers arm it — the simulator's `System::with_invariant_checks`
//! for every organization, the model checker after every explored
//! event, and the unit rigs after every operation they drive. Each
//! verification walks the whole hierarchy, which paper-sized sweeps
//! cannot afford per access.
//!
//! Swapped-valid lines are deliberately *included* in every linkage check:
//! the paper keeps a descheduled process's lines lookup-invisible (enforced
//! by [`VCache::lookup`](crate::vcache::VCache::lookup) and its unit tests)
//! but structurally live — their r-pointer and the parent's subentry must
//! stay intact until the lazy write-back retires them.

use std::fmt;

use vrcache_bus::oracle::Version;
use vrcache_cache::geometry::BlockId;
use vrcache_cache::write_buffer::WriteBuffer;

use crate::rcache::{FirstLevel, RCache};

/// One breached structural invariant — the first found, in checking order
/// (V-cache linkage, then R-cache subentries, then the write buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Two first-level lines cache the same physical block — the
    /// single-copy rule the synonym resolution exists to preserve.
    DuplicateVCopy {
        /// The doubly-cached physical (L1-granule) block.
        p_block: BlockId,
    },
    /// A V line's r-pointer names an L2 block absent from the R-cache.
    OrphanVLine {
        /// The unparented V line's virtual block.
        v_block: BlockId,
    },
    /// A V line is resident but its parent subentry's inclusion bit is
    /// clear, so the R-cache would neither forward coherence actions nor
    /// resolve synonyms against it.
    InclusionBitClear {
        /// The affected V line's virtual block.
        v_block: BlockId,
    },
    /// The parent subentry's v-pointer names a different virtual block
    /// than the V line it should link to.
    VPointerMismatch {
        /// The V line whose parent points elsewhere.
        v_block: BlockId,
        /// Where the parent's v-pointer actually points.
        pointer: BlockId,
    },
    /// The parent subentry records the wrong first-level cache (I vs D)
    /// for its child.
    ChildLinkWrong {
        /// The affected V line's virtual block.
        v_block: BlockId,
    },
    /// The V line's dirty bit and the parent's vdirty bit disagree, so a
    /// bus read-miss would flush clean data or miss modified data.
    VdirtySync {
        /// The affected V line's virtual block.
        v_block: BlockId,
        /// The parent subentry's vdirty bit.
        vdirty: bool,
        /// The V line's dirty bit.
        dirty: bool,
    },
    /// A subentry's inclusion bit is set but no V line exists at its
    /// v-pointer.
    DanglingVPointer {
        /// The R-cache line holding the subentry.
        r_block: BlockId,
        /// Subentry index within the line.
        sub: usize,
        /// The dangling v-pointer.
        v_block: BlockId,
    },
    /// A subentry's v-pointer resolves to a V line caching a *different*
    /// physical granule.
    VPointerWrongGranule {
        /// The R-cache line holding the subentry.
        r_block: BlockId,
        /// Subentry index within the line.
        sub: usize,
        /// The misdirected v-pointer.
        v_block: BlockId,
    },
    /// A subentry is marked vdirty without inclusion: nothing upstream can
    /// hold the newer data it promises.
    VdirtyWithoutInclusion {
        /// The R-cache line holding the subentry.
        r_block: BlockId,
        /// Subentry index within the line.
        sub: usize,
    },
    /// A subentry's buffer bit is set but the write buffer holds no
    /// pending write for its granule.
    BufferBitWithoutEntry {
        /// The R-cache line holding the subentry.
        r_block: BlockId,
        /// Subentry index within the line.
        sub: usize,
    },
    /// The write buffer holds a pending write whose R-cache parent line is
    /// absent — the completion would have nowhere to land.
    OrphanBufferedWrite {
        /// The buffered granule.
        granule: BlockId,
    },
    /// The write buffer holds a pending write but the parent subentry's
    /// buffer bit is clear, so coherence actions would miss the newest data.
    BufferBitClear {
        /// The buffered granule.
        granule: BlockId,
    },
    /// A violation from a hierarchy with its own structural rules
    /// (Goodman's one-level scheme).
    Other(
        /// Free-form description of the breach.
        String,
    ),
}

impl InvariantViolation {
    /// Wraps a hierarchy-specific description (used by Goodman's scheme).
    pub fn other(description: impl Into<String>) -> Self {
        InvariantViolation::Other(description.into())
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use InvariantViolation::*;
        match self {
            DuplicateVCopy { p_block } => {
                write!(
                    f,
                    "physical block {p_block:?} cached twice in the first level"
                )
            }
            OrphanVLine { v_block } => {
                write!(f, "V line {v_block:?} has no R-cache parent")
            }
            InclusionBitClear { v_block } => {
                write!(f, "V line {v_block:?}: parent inclusion bit clear")
            }
            VPointerMismatch { v_block, pointer } => {
                write!(f, "V line {v_block:?}: parent v-pointer is {pointer:?}")
            }
            ChildLinkWrong { v_block } => {
                write!(f, "V line {v_block:?}: parent child-cache link wrong")
            }
            VdirtySync {
                v_block,
                vdirty,
                dirty,
            } => {
                write!(f, "V line {v_block:?}: vdirty {vdirty} but dirty {dirty}")
            }
            DanglingVPointer {
                r_block,
                sub,
                v_block,
            } => write!(
                f,
                "R line {r_block:?} sub {sub}: inclusion set but no V line at {v_block:?}"
            ),
            VPointerWrongGranule {
                r_block,
                sub,
                v_block,
            } => write!(
                f,
                "R line {r_block:?} sub {sub}: v-pointer {v_block:?} names a different block"
            ),
            VdirtyWithoutInclusion { r_block, sub } => {
                write!(
                    f,
                    "R line {r_block:?} sub {sub}: vdirty set without inclusion"
                )
            }
            BufferBitWithoutEntry { r_block, sub } => write!(
                f,
                "R line {r_block:?} sub {sub}: buffer bit set but write buffer empty"
            ),
            OrphanBufferedWrite { granule } => {
                write!(f, "buffered write {granule:?} has no R parent")
            }
            BufferBitClear { granule } => {
                write!(f, "buffered write {granule:?}: parent buffer bit clear")
            }
            Other(description) => f.write_str(description),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// A borrowed view of the structures [`check`] inspects: the first
/// level (the V-cache pair, or the R-R baseline's physical L1), the
/// second level, and the write buffer between them.
#[derive(Debug)]
pub struct HierarchyView<'a, L> {
    /// The first level.
    pub l1: &'a L,
    /// The R-cache.
    pub l2: &'a RCache,
    /// The write buffer between the levels.
    pub wb: &'a WriteBuffer<Version>,
}

/// Verifies every structural invariant of the view, reporting the first
/// breach. Swapped-valid lines are checked like live ones (see the module
/// docs). The walk allocates nothing, so a caller may run it after every
/// event.
///
/// # Errors
///
/// Returns the first [`InvariantViolation`] found, in checking order:
/// per-first-level-line linkage, then per-subentry reverse linkage, then
/// write-buffer agreement.
pub fn check<L: FirstLevel>(view: &HierarchyView<'_, L>) -> Result<(), InvariantViolation> {
    for (which, line) in view.l1.lines() {
        // Inclusion: parent present and linked back.
        let p2 = view.l2.l2_block_of(line.p_block);
        let si = view.l2.sub_index(line.p_block);
        let Some(parent) = view.l2.peek(p2) else {
            return Err(InvariantViolation::OrphanVLine { v_block: line.key });
        };
        let sub = &parent.meta.subs[si];
        if !sub.inclusion {
            return Err(InvariantViolation::InclusionBitClear { v_block: line.key });
        }
        // At most one first-level copy per physical block, across both
        // fronts of a split first level. Two copies share the one
        // subentry, which links back to only one of them: when the line
        // it names is another copy of this granule, that is the breach.
        let linked = (sub.child, sub.v_block);
        if linked != (which, line.key)
            && view
                .l1
                .child(sub.child, sub.v_block)
                .is_some_and(|other| other.p_block == line.p_block)
        {
            return Err(InvariantViolation::DuplicateVCopy {
                p_block: line.p_block,
            });
        }
        if sub.v_block != line.key {
            return Err(InvariantViolation::VPointerMismatch {
                v_block: line.key,
                pointer: sub.v_block,
            });
        }
        if sub.child != which {
            return Err(InvariantViolation::ChildLinkWrong { v_block: line.key });
        }
        if sub.vdirty != line.dirty {
            return Err(InvariantViolation::VdirtySync {
                v_block: line.key,
                vdirty: sub.vdirty,
                dirty: line.dirty,
            });
        }
    }
    // Every inclusion, vdirty and buffer bit points at something real.
    for rline in view.l2.iter() {
        let granules = view.l2.granules_of(rline.block);
        for (i, sub) in rline.meta.subs.iter().enumerate() {
            if sub.inclusion {
                let Some(child) = view.l1.child(sub.child, sub.v_block) else {
                    return Err(InvariantViolation::DanglingVPointer {
                        r_block: rline.block,
                        sub: i,
                        v_block: sub.v_block,
                    });
                };
                if child.p_block != granules.at(i) {
                    return Err(InvariantViolation::VPointerWrongGranule {
                        r_block: rline.block,
                        sub: i,
                        v_block: sub.v_block,
                    });
                }
            } else if sub.vdirty {
                return Err(InvariantViolation::VdirtyWithoutInclusion {
                    r_block: rline.block,
                    sub: i,
                });
            }
            if sub.buffer && !view.wb.contains(granules.at(i)) {
                return Err(InvariantViolation::BufferBitWithoutEntry {
                    r_block: rline.block,
                    sub: i,
                });
            }
        }
    }
    // Every write-buffer entry has a parent with its buffer bit set.
    for e in view.wb.iter() {
        let p2 = view.l2.l2_block_of(e.block);
        let si = view.l2.sub_index(e.block);
        let Some(parent) = view.l2.peek(p2) else {
            return Err(InvariantViolation::OrphanBufferedWrite { granule: e.block });
        };
        if !parent.meta.subs[si].buffer {
            return Err(InvariantViolation::BufferBitClear { granule: e.block });
        }
    }
    Ok(())
}

/// Unwrapping for values whose absence can only mean a broken internal
/// invariant.
///
/// This crate denies clippy's `unwrap_used` / `expect_used` in its
/// library code: a combinator chain dying with a generic message is
/// useless at a violation site. `invariant_expect` names the invariant
/// that was assumed, so the panic reads as a structural claim — the same
/// role `let .. else { unreachable!(..) }` plays where a binding is in
/// charge.
pub trait InvariantExpect<T> {
    /// Unwraps, panicking with the named invariant on absence/error.
    ///
    /// # Panics
    ///
    /// Panics if the value is absent — i.e. the named invariant is broken.
    fn invariant_expect(self, invariant: &'static str) -> T;
}

impl<T> InvariantExpect<T> for Option<T> {
    #[track_caller]
    fn invariant_expect(self, invariant: &'static str) -> T {
        match self {
            Some(value) => value,
            None => unreachable!("internal invariant broken: {invariant}"),
        }
    }
}

impl<T, E: fmt::Debug> InvariantExpect<T> for Result<T, E> {
    #[track_caller]
    fn invariant_expect(self, invariant: &'static str) -> T {
        match self {
            Ok(value) => value,
            Err(e) => unreachable!("internal invariant broken: {invariant} ({e:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use crate::hierarchy::CacheHierarchy;
    use crate::rcache::ChildCache;
    use crate::sys::LoopbackBus;
    use crate::vcache::VMeta;
    use crate::vr::VrHierarchy;
    use vrcache_bus::oracle::VersionOracle;
    use vrcache_mem::access::{AccessKind, CpuId};
    use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
    use vrcache_trace::record::MemAccess;

    /// 256B/16B direct-mapped V-cache over a 4K/16B R-cache (subblocks=1).
    fn rig() -> (VrHierarchy, LoopbackBus, VersionOracle) {
        let cfg = HierarchyConfig::direct_mapped(256, 4096, 16).unwrap();
        (
            VrHierarchy::new(CpuId::new(0), &cfg),
            LoopbackBus::new(),
            VersionOracle::new(),
        )
    }

    fn read(
        h: &mut VrHierarchy,
        bus: &mut LoopbackBus,
        oracle: &mut VersionOracle,
        va: u64,
        pa: u64,
    ) {
        h.access(
            &MemAccess {
                cpu: CpuId::new(0),
                asid: Asid::new(1),
                kind: AccessKind::DataRead,
                vaddr: VirtAddr::new(va),
                paddr: PhysAddr::new(pa),
            },
            bus,
            oracle,
        )
        .expect("no coherence violation");
    }

    // Each corruption test seeds a healthy hierarchy (one cached read:
    // vblock 0x100 <-> granule 0x900, subentry 0 of R line 0x900), breaks
    // exactly one structural rule through the raw parts, and asserts the
    // checker reports that violation class.

    #[test]
    fn detects_duplicate_v_copy() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1000, 0x9000);
        let (v, _, _) = h.corrupt_parts();
        // A second V line (different set) caching the same physical block.
        v.data.fill(
            BlockId::new(0x101),
            VMeta {
                p_block: BlockId::new(0x900),
                dirty: false,
                swapped: false,
                version: Version::INITIAL,
            },
        );
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::DuplicateVCopy { p_block }) if p_block == BlockId::new(0x900)
        ));
    }

    #[test]
    fn detects_duplicate_v_copy_walked_before_the_linked_one() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1010, 0x9000); // vblock 0x101
        let (v, _, _) = h.corrupt_parts();
        // The forged copy sits in set 0, ahead of the linked line in set 1.
        v.data.fill(
            BlockId::new(0x100),
            VMeta {
                p_block: BlockId::new(0x900),
                dirty: false,
                swapped: false,
                version: Version::INITIAL,
            },
        );
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::DuplicateVCopy { p_block }) if p_block == BlockId::new(0x900)
        ));
    }

    #[test]
    fn detects_orphan_v_line() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1000, 0x9000);
        let (_, r, _) = h.corrupt_parts();
        let _ = r.invalidate(BlockId::new(0x900));
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::OrphanVLine { v_block }) if v_block == BlockId::new(0x100)
        ));
    }

    #[test]
    fn detects_cleared_inclusion_bit() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1000, 0x9000);
        let (_, r, _) = h.corrupt_parts();
        r.peek_mut(BlockId::new(0x900)).unwrap().meta.subs[0].inclusion = false;
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::InclusionBitClear { .. })
        ));
    }

    #[test]
    fn detects_v_pointer_mismatch() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1000, 0x9000);
        let (_, r, _) = h.corrupt_parts();
        r.peek_mut(BlockId::new(0x900)).unwrap().meta.subs[0].v_block = BlockId::new(0xDEAD);
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::VPointerMismatch { pointer, .. })
                if pointer == BlockId::new(0xDEAD)
        ));
    }

    #[test]
    fn detects_wrong_child_cache_link() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1000, 0x9000);
        let (_, r, _) = h.corrupt_parts();
        r.peek_mut(BlockId::new(0x900)).unwrap().meta.subs[0].child = ChildCache::Instr;
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::ChildLinkWrong { .. })
        ));
    }

    #[test]
    fn detects_vdirty_desync() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1000, 0x9000);
        let (v, _, _) = h.corrupt_parts();
        v.data.peek_mut(BlockId::new(0x100)).unwrap().meta.dirty = true;
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::VdirtySync {
                vdirty: false,
                dirty: true,
                ..
            })
        ));
    }

    #[test]
    fn detects_dangling_v_pointer() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1000, 0x9000);
        let (v, _, _) = h.corrupt_parts();
        let _ = v.data.invalidate(BlockId::new(0x100)); // inclusion bit left set
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::DanglingVPointer { sub: 0, .. })
        ));
    }

    #[test]
    fn detects_v_pointer_naming_wrong_granule() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1000, 0x9000); // vblock 0x100
        read(&mut h, &mut bus, &mut oracle, 0x1010, 0x9010); // vblock 0x101
        let (v, r, _) = h.corrupt_parts();
        let _ = v.data.invalidate(BlockId::new(0x100));
        // Granule 0x900's subentry now points at the line caching 0x901.
        r.peek_mut(BlockId::new(0x900)).unwrap().meta.subs[0].v_block = BlockId::new(0x101);
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::VPointerWrongGranule { v_block, .. })
                if v_block == BlockId::new(0x101)
        ));
    }

    #[test]
    fn detects_vdirty_without_inclusion() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1000, 0x9000);
        let (v, r, _) = h.corrupt_parts();
        let _ = v.data.invalidate(BlockId::new(0x100));
        let sub = &mut r.peek_mut(BlockId::new(0x900)).unwrap().meta.subs[0];
        sub.inclusion = false;
        sub.vdirty = true;
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::VdirtyWithoutInclusion { sub: 0, .. })
        ));
    }

    #[test]
    fn detects_buffer_bit_without_pending_write() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1000, 0x9000);
        let (_, r, _) = h.corrupt_parts();
        r.peek_mut(BlockId::new(0x900)).unwrap().meta.subs[0].buffer = true;
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::BufferBitWithoutEntry { sub: 0, .. })
        ));
    }

    #[test]
    fn detects_orphan_buffered_write() {
        let (mut h, _, _) = rig();
        let (_, _, wb) = h.corrupt_parts();
        let _ = wb.push(BlockId::new(0x777), Version::INITIAL, 0);
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::OrphanBufferedWrite { granule })
                if granule == BlockId::new(0x777)
        ));
    }

    #[test]
    fn detects_cleared_buffer_bit() {
        let (mut h, mut bus, mut oracle) = rig();
        read(&mut h, &mut bus, &mut oracle, 0x1000, 0x9000);
        let (_, _, wb) = h.corrupt_parts();
        // Pending write whose parent subentry never learned about it.
        let _ = wb.push(BlockId::new(0x900), Version::INITIAL, 0);
        assert!(matches!(
            h.check_invariants(),
            Err(InvariantViolation::BufferBitClear { granule })
                if granule == BlockId::new(0x900)
        ));
    }

    #[test]
    fn violations_render_and_compose() {
        let v = InvariantViolation::DuplicateVCopy {
            p_block: BlockId::new(7),
        };
        assert!(v.to_string().contains("cached twice"));
        let o = InvariantViolation::other("bespoke breach");
        assert_eq!(o.to_string(), "bespoke breach");
        let boxed: Box<dyn std::error::Error> = Box::new(v);
        assert!(boxed.to_string().contains("first level"));
    }
}
