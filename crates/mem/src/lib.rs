#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Address-space substrate for the vrcache simulator.
//!
//! This crate provides the memory-system vocabulary shared by every other
//! crate in the workspace:
//!
//! * strongly-typed [virtual](addr::VirtAddr) and [physical](addr::PhysAddr)
//!   addresses together with [page numbers](addr::Vpn) and
//!   [address-space identifiers](addr::Asid),
//! * [page geometry](page::PageSize) (power-of-two page sizes and the
//!   page-number/offset split),
//! * a multi-process [page table](page_table::MemoryMap) that supports
//!   *synonyms* — several virtual pages, possibly in different address
//!   spaces, mapped to one physical page — which is the central problem the
//!   paper's virtual-real hierarchy solves,
//! * a set-associative [TLB model](tlb::Tlb) with hit/miss statistics, used
//!   at the second level of the V-R hierarchy (and in front of the first
//!   level of the R-R baselines).
//!
//! # Example
//!
//! ```
//! use vrcache_mem::addr::{Asid, VirtAddr};
//! use vrcache_mem::page::PageSize;
//! use vrcache_mem::page_table::MemoryMap;
//!
//! # fn main() -> Result<(), vrcache_mem::MemError> {
//! let page = PageSize::new(4096)?;
//! let mut map = MemoryMap::new(page);
//! let asid = Asid::new(1);
//! // Demand-map a page and translate an address inside it.
//! let va = VirtAddr::new(0x1_2345);
//! let pa = map.translate_or_map(asid, va);
//! assert_eq!(page.offset_of(va.raw()), page.offset_of(pa.raw()));
//! # Ok(())
//! # }
//! ```

pub mod access;
pub mod addr;
pub mod error;
pub mod page;
pub mod page_table;
pub mod tlb;

pub use access::{AccessKind, CpuId};
pub use addr::{Asid, PageOffset, PhysAddr, Ppn, SetIndex, Tag, VirtAddr, Vpn};
pub use error::MemError;
pub use page::PageSize;
pub use page_table::MemoryMap;
pub use tlb::{Tlb, TlbConfig};

/// Implements `Clone` field by field, with a `clone_from` that forwards
/// to every field's own `clone_from`.
///
/// Derived `Clone` leaves `clone_from` at its default, `*self =
/// source.clone()`, which drops every buffer `self` owns and allocates
/// new ones. Forwarding lets a long-lived value be overwritten in place:
/// `Vec`, `VecDeque`, `HashMap`, `Option` and `Box` reuse what they hold.
/// Both methods destructure `Self` without `..`, so a field missing from
/// the list is a compile error. Generic parameters and their bounds
/// follow a trailing `where`.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Pair<T> {
///     a: Vec<T>,
///     b: u8,
/// }
/// vrcache_mem::clone_fields!(Pair<T> { a, b } where T: Clone);
///
/// let src = Pair { a: vec![1, 2], b: 3 };
/// let mut dst = Pair { a: Vec::with_capacity(8), b: 0 };
/// dst.clone_from(&src);
/// assert_eq!(dst, src);
/// assert!(dst.a.capacity() >= 8);
/// ```
#[macro_export]
macro_rules! clone_fields {
    ($ty:ty { $($field:ident),+ $(,)? } $(where $($generics:tt)+)?) => {
        impl $(<$($generics)+>)? Clone for $ty {
            fn clone(&self) -> Self {
                let Self { $($field),+ } = self;
                Self { $($field: $field.clone()),+ }
            }

            fn clone_from(&mut self, source: &Self) {
                let Self { $($field),+ } = self;
                $($field.clone_from(&source.$field);)+
            }
        }
    };
}
