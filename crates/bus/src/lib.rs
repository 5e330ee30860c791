#![deny(rust_2018_idioms)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

//! Shared-bus substrate for the vrcache multiprocessor simulator.
//!
//! The paper's evaluation platform is a shared-bus multiprocessor running an
//! invalidation coherence protocol (Section 3, "Cache coherence"). This
//! crate provides the bus-side vocabulary and bookkeeping:
//!
//! * [`txn`] — the bus transaction types (*read-miss*, *invalidation*,
//!   *read-modified-write*, *write-back*) and the snoop-response summary,
//! * [`memory`] — the main-memory model, which tracks a *data version* per
//!   first-level-sized block so that stale supplies and lost write-backs are
//!   detectable,
//! * [`oracle`] — a global coherence oracle: every processor write mints a
//!   fresh version; every processor read asserts it observes the newest
//!   version of the block. Under an invalidation protocol any valid cached
//!   copy must be the newest, so a violation pinpoints a protocol bug,
//! * [`stats`] — bus traffic counters,
//! * [`retry`] — bounded-retry policy and NACK accounting for faulted
//!   transactions (exercised by the `vrcache-inject` campaigns).
//!
//! The actual snoop *orchestration* (walking the other CPUs' hierarchies)
//! lives in `vrcache-sim`, because it needs simultaneous mutable access to
//! several hierarchies; this crate deliberately stays data-only.

pub mod memory;
pub mod oracle;
pub mod retry;
pub mod stats;
pub mod txn;

pub use memory::MainMemory;
pub use oracle::{CoherenceViolation, Version, VersionOracle};
pub use retry::{NackStats, RetryPolicy};
pub use stats::BusStats;
pub use txn::{BusOp, BusTransaction, SnoopOutcome};
