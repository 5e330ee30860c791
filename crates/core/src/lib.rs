#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! # vrcache — a two-level virtual-real cache hierarchy
//!
//! A faithful implementation of the cache organization proposed in
//! *Organization and Performance of a Two-Level Virtual-Real Cache
//! Hierarchy* (Wang, Baer, Levy — ISCA 1989):
//!
//! * a small, fast, **virtually-addressed** first-level cache
//!   ([`VCache`](vcache::VCache)) with write-back, an *r-pointer* per line
//!   linking it to its second-level parent, and a *swapped-valid* bit that
//!   spreads context-switch write-backs over time,
//! * a large **physically-addressed** second-level cache
//!   ([`RCache`](rcache::RCache)) holding, per first-level-sized subblock,
//!   the *inclusion*, *buffer* and *vdirty* bits and a *v-pointer* back into
//!   the V-cache — the reverse-translation state that solves the synonym
//!   problem and shields the V-cache from irrelevant coherence traffic,
//! * the full two-level algorithm ([`VrHierarchy`]):
//!   read/write hits and misses, synonym *sameset*/*move* resolution,
//!   write-back buffering with buffer-bit tracking, inclusion-preserving
//!   replacement, incremental swapped write-backs, and the processor- and
//!   bus-induced coherence actions of the paper's Section 3,
//! * the baselines the paper compares against: two-level **real-real**
//!   hierarchies ([`RrHierarchy`]) with and without
//!   inclusion,
//! * the paper's analytic machinery: the average-access-time equation
//!   ([`timing`]), the inclusion associativity bound ([`inclusion`]) and the
//!   tag-store layout of Figure 3 ([`layout`]).
//!
//! # Quick start
//!
//! ```
//! use vrcache::config::HierarchyConfig;
//! use vrcache::hierarchy::CacheHierarchy;
//! use vrcache::sys::LoopbackBus;
//! use vrcache::vr::VrHierarchy;
//! use vrcache_bus::oracle::VersionOracle;
//! use vrcache_mem::access::{AccessKind, CpuId};
//! use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
//! use vrcache_trace::record::MemAccess;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = HierarchyConfig::paper_default()?; // 16K V-cache / 256K R-cache
//! let mut h = VrHierarchy::new(CpuId::new(0), &cfg);
//! let mut bus = LoopbackBus::default(); // single-CPU stand-in bus
//! let mut oracle = VersionOracle::new();
//! let access = MemAccess {
//!     cpu: CpuId::new(0),
//!     asid: Asid::new(1),
//!     kind: AccessKind::DataRead,
//!     vaddr: VirtAddr::new(0x1000),
//!     paddr: PhysAddr::new(0x8000),
//! };
//! let out = h.access(&access, &mut bus, &mut oracle)?;
//! assert!(!out.l1_hit); // cold miss
//! let out = h.access(&access, &mut bus, &mut oracle)?;
//! assert!(out.l1_hit);
//! # Ok(())
//! # }
//! ```

pub mod bus_api;
pub mod config;
pub mod events;
pub mod fault;
pub mod goodman;
pub mod hierarchy;
pub mod inclusion;
pub mod inline;
pub mod invariant;
pub mod layout;
pub mod rcache;
pub mod rr;
pub mod sys;
pub mod timing;
pub mod vcache;
pub mod vr;

pub use config::HierarchyConfig;
pub use events::HierarchyEvents;
pub use goodman::GoodmanHierarchy;
pub use hierarchy::{AccessOutcome, CacheHierarchy};
pub use rr::{InclusionMode, RrHierarchy};
pub use timing::AccessTimeModel;
pub use vr::VrHierarchy;
