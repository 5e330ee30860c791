//! Strongly-typed addresses, page numbers and address-space identifiers.
//!
//! The simulator manipulates virtual and physical addresses constantly and a
//! mixed-up argument would silently corrupt every downstream statistic, so
//! each kind of quantity gets its own newtype ([`VirtAddr`], [`PhysAddr`],
//! [`Vpn`], [`Ppn`], [`Asid`]), and so do the derived quantities of the
//! address split ([`SetIndex`], [`Tag`], [`PageOffset`]). All of them are
//! cheap `Copy` wrappers around integers.

use core::fmt;
use serde::{Deserialize, Serialize};

/// A virtual (process-relative) byte address.
///
/// Virtual addresses index the first-level V-cache directly; they are only
/// meaningful together with the [`Asid`] of the process that issued them.
///
/// # Example
///
/// ```
/// use vrcache_mem::addr::VirtAddr;
/// let va = VirtAddr::new(0x1000);
/// assert_eq!(va.raw(), 0x1000);
/// assert_eq!(va.offset(0x10).raw(), 0x1010);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct VirtAddr(u64);

/// A physical (machine) byte address.
///
/// Physical addresses index the second-level R-cache and appear on the
/// shared bus; they are global to the machine.
///
/// # Example
///
/// ```
/// use vrcache_mem::addr::PhysAddr;
/// let pa = PhysAddr::new(0x8000);
/// assert_eq!(pa.raw(), 0x8000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct PhysAddr(u64);

/// A virtual page number (a [`VirtAddr`] shifted right by the page bits).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Vpn(u64);

/// A physical page number (a [`PhysAddr`] shifted right by the page bits).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Ppn(u64);

/// An address-space identifier: one per simulated process.
///
/// The paper's V-cache does **not** tag entries with an ASID — it is
/// invalidated (via the swapped-valid bit) on every context switch — but the
/// page table, TLB and trace records all need to know which process a
/// virtual address belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Asid(u16);

/// A cache set index: the low bits of a block id, selected by a
/// particular cache geometry.
///
/// Whether a set index is derived from a virtual or a physical block
/// depends on which address space the cache in question indexes — the
/// newtype records only that the value is a *set selector*, so it can no
/// longer be confused with a full address or a tag.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SetIndex(u64);

/// A cache tag: the high bits of a block id above the set-index bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Tag(u64);

/// A byte offset within a page (a [`VirtAddr`] or [`PhysAddr`] masked by
/// the page bits; both spaces agree on it, which is what makes
/// single-page synonym aliasing work).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct PageOffset(u64);

macro_rules! addr_impls {
    ($ty:ident, $inner:ty, $label:expr) => {
        impl $ty {
            /// Wraps a raw integer value.
            #[inline]
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            /// Returns the raw integer value.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($label, "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl fmt::Binary for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }

        impl From<$inner> for $ty {
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }

        impl From<$ty> for $inner {
            fn from(v: $ty) -> $inner {
                v.0
            }
        }
    };
}

addr_impls!(VirtAddr, u64, "VirtAddr");
addr_impls!(PhysAddr, u64, "PhysAddr");
addr_impls!(Vpn, u64, "Vpn");
addr_impls!(Ppn, u64, "Ppn");
addr_impls!(Asid, u16, "Asid");
addr_impls!(SetIndex, u64, "SetIndex");
addr_impls!(Tag, u64, "Tag");
addr_impls!(PageOffset, u64, "PageOffset");

impl SetIndex {
    /// The set index as a `usize`, for indexing per-set storage.
    ///
    /// This is the one sanctioned raw escape for a set index: array
    /// backing stores are addressed in `usize`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl VirtAddr {
    /// Returns the address `delta` bytes above `self`.
    ///
    /// # Example
    ///
    /// ```
    /// use vrcache_mem::addr::VirtAddr;
    /// assert_eq!(VirtAddr::new(8).offset(8), VirtAddr::new(16));
    /// ```
    #[inline]
    #[must_use]
    pub const fn offset(self, delta: u64) -> Self {
        Self(self.0.wrapping_add(delta))
    }

    /// The wrapping byte distance from `base` up to `self`: the inverse
    /// of [`offset`](Self::offset), defined between two virtual
    /// addresses only.
    ///
    /// ```
    /// use vrcache_mem::addr::VirtAddr;
    /// let (a, b) = (VirtAddr::new(0x40), VirtAddr::new(0x10));
    /// assert_eq!(b.offset(a.distance_from(b)), a);
    /// // Downward distances wrap.
    /// assert_eq!(a.offset(b.distance_from(a)), b);
    /// ```
    #[inline]
    #[must_use]
    pub const fn distance_from(self, base: Self) -> u64 {
        self.0.wrapping_sub(base.0)
    }
}

impl PhysAddr {
    /// Returns the address `delta` bytes above `self`.
    #[inline]
    #[must_use]
    pub const fn offset(self, delta: u64) -> Self {
        Self(self.0.wrapping_add(delta))
    }

    /// The wrapping byte distance from `base` up to `self`: the inverse
    /// of [`offset`](Self::offset), defined between two physical
    /// addresses only.
    #[inline]
    #[must_use]
    pub const fn distance_from(self, base: Self) -> u64 {
        self.0.wrapping_sub(base.0)
    }
}

impl Vpn {
    /// Returns the next virtual page number.
    #[inline]
    #[must_use]
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

impl Ppn {
    /// Returns the next physical page number.
    #[inline]
    #[must_use]
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn virt_addr_round_trip() {
        let va = VirtAddr::new(0xdead_beef);
        assert_eq!(va.raw(), 0xdead_beef);
        assert_eq!(u64::from(va), 0xdead_beef);
        assert_eq!(VirtAddr::from(0xdead_beef_u64), va);
    }

    #[test]
    fn phys_addr_round_trip() {
        let pa = PhysAddr::new(42);
        assert_eq!(pa.raw(), 42);
        assert_eq!(PhysAddr::from(42_u64), pa);
    }

    #[test]
    fn offsets_wrap() {
        assert_eq!(VirtAddr::new(u64::MAX).offset(1), VirtAddr::new(0));
        assert_eq!(PhysAddr::new(0).offset(16).raw(), 16);
    }

    #[test]
    fn page_number_next() {
        assert_eq!(Vpn::new(3).next(), Vpn::new(4));
        assert_eq!(Ppn::new(0).next(), Ppn::new(1));
    }

    #[test]
    fn debug_is_nonempty_and_distinct() {
        let d = format!("{:?}", VirtAddr::new(16));
        assert_eq!(d, "VirtAddr(0x10)");
        let d = format!("{:?}", Ppn::new(16));
        assert_eq!(d, "Ppn(0x10)");
    }

    #[test]
    fn display_and_hex_formats() {
        let pa = PhysAddr::new(255);
        assert_eq!(format!("{pa}"), "0xff");
        assert_eq!(format!("{pa:x}"), "ff");
        assert_eq!(format!("{pa:X}"), "FF");
        assert_eq!(format!("{pa:b}"), "11111111");
    }

    #[test]
    fn asid_is_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(Asid::new(1));
        set.insert(Asid::new(1));
        set.insert(Asid::new(2));
        assert_eq!(set.len(), 2);
        assert!(Asid::new(1) < Asid::new(2));
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VirtAddr>();
        assert_send_sync::<PhysAddr>();
        assert_send_sync::<Vpn>();
        assert_send_sync::<Ppn>();
        assert_send_sync::<Asid>();
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(VirtAddr::default().raw(), 0);
        assert_eq!(Asid::default().raw(), 0);
    }

    #[test]
    fn set_index_tag_and_offset_round_trip() {
        let s = SetIndex::new(0x2a);
        assert_eq!(s.raw(), 0x2a);
        assert_eq!(s.index(), 0x2a_usize);
        assert_eq!(format!("{s:?}"), "SetIndex(0x2a)");
        let t = Tag::new(7);
        assert_eq!(t.raw(), 7);
        assert_eq!(format!("{t:?}"), "Tag(0x7)");
        let o = PageOffset::new(0x345);
        assert_eq!(o.raw(), 0x345);
        assert_eq!(u64::from(o), 0x345);
        assert!(SetIndex::new(1) < SetIndex::new(2), "sets are orderable");
    }
}
