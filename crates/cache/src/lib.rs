#![deny(rust_2018_idioms)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

//! Generic set-associative cache substrate.
//!
//! This crate supplies the machinery that both levels of every hierarchy in
//! the workspace are built from:
//!
//! * [`geometry`] — validated cache geometry (total size, block size,
//!   associativity) and the block/set/tag address split,
//! * [`replacement`] — LRU / FIFO / Random / tree-PLRU replacement policies
//!   over one flat state per array,
//! * [`mod@array`] — a generic set-associative store ([`CacheArray<M>`]) whose
//!   lines carry caller-defined metadata `M` (the V-cache stores r-pointers
//!   and swapped-valid bits there, the R-cache stores inclusion subentries),
//! * [`write_buffer`] — the FIFO write-back buffer that sits between the two
//!   levels, with full-stall accounting and coherence hooks (the paper's
//!   *buffer bit* points at entries living here),
//! * [`stats`] — per-access-class (instruction / data-read / data-write)
//!   hit-ratio bookkeeping matching the rows of Tables 8–10,
//! * [`syndrome`] — the Hamming(72,64) SECDED codeword model used for
//!   data-array protection in the fault campaigns.
//!
//! [`CacheArray<M>`]: array::CacheArray

pub mod array;
pub mod geometry;
pub mod replacement;
pub mod stats;
pub mod syndrome;
pub mod write_buffer;

pub use array::{CacheArray, FillOutcome, Line};
pub use geometry::{BlockId, BlockMap, BlockRun, CacheGeometry};
pub use replacement::ReplacementPolicy;
pub use stats::{AccessKind, CacheStats};
pub use syndrome::{Codeword, Decode};
pub use write_buffer::WriteBuffer;

/// Re-exported error type: the substrate shares `vrcache-mem`'s error enum
/// for size validation.
pub use vrcache_mem::MemError;
