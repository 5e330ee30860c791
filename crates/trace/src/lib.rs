#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Memory-reference traces for the vrcache simulator.
//!
//! The paper's evaluation is trace-driven, using three proprietary ATUM VAX
//! multiprocessor traces (*pops*, *thor*, *abaqus*). Those traces are not
//! available, so this crate supplies the closest synthetic equivalent:
//!
//! * [`record`] — the trace event vocabulary: classified memory references
//!   carrying both the virtual and the physical address, plus context-switch
//!   markers,
//! * [`trace`] — the in-memory [`Trace`] container and its
//!   [summary statistics](trace::TraceSummary) (the paper's Table 5),
//! * [`synth`] — a deterministic, seeded multiprogrammed workload generator:
//!   per-CPU processes with loop/call-structured instruction streams,
//!   stack/global/heap data with tunable locality, procedure-call write
//!   bursts (Table 1's shape), shared read-write segments for coherence
//!   traffic, cross- and intra-address-space synonym aliases, and a
//!   context-switch schedule,
//! * [`presets`] — the `thor`, `pops` and `abaqus` stand-ins calibrated to
//!   Table 5's reference counts and mixes,
//! * [`analysis`] — trace analyzers for Tables 1 and 2 (procedure-call
//!   write bursts and inter-write intervals),
//! * [`codec`] — a compact binary trace format for storing and reloading
//!   generated traces.
//!
//! # Example
//!
//! ```
//! use vrcache_trace::presets::TracePreset;
//!
//! // A 2%-scale pops-like trace (fast enough for unit tests).
//! let trace = TracePreset::Pops.generate_scaled(0.02);
//! let summary = trace.summary();
//! assert_eq!(summary.cpus, 4);
//! assert!(summary.total_refs > 0);
//! ```

pub mod analysis;
pub mod codec;
pub mod presets;
pub mod record;
pub mod synth;
pub mod trace;

pub use presets::TracePreset;
pub use record::{MemAccess, TraceEvent};
pub use trace::{Trace, TraceSummary};
