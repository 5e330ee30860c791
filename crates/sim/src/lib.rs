#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Trace-driven shared-bus multiprocessor simulator and experiment harness.
//!
//! This crate ties the workspace together:
//!
//! * [`machine`] — a [`Machine`] of N private hierarchies on one
//!   snooping bus over a version-checked main memory: the one replay
//!   step the simulator, the model checker and the injection harness
//!   share. Each hierarchy is an [`Org`], one variant per organization.
//! * [`snoop`] — the [`SnoopingBus`](snoop::SnoopingBus) a transaction
//!   rides to every other hierarchy, with an optional transition
//!   observer.
//! * [`system`] — a [`System`]: a machine whose processors all run one
//!   organization (V-R, R-R with inclusion, R-R without, or Goodman's
//!   single level). It replays a [`Trace`](vrcache_trace::trace::Trace)
//!   and collects hit ratios, coherence-message counts and event
//!   statistics.
//! * [`report`] — minimal markdown table rendering for experiment output.
//! * [`experiments`] — one module per table and figure of the paper's
//!   evaluation, each of which regenerates its artifact from scratch:
//!   Tables 1–3 (write bursts and intervals), Table 5 (trace
//!   characteristics), Tables 6–7 (hit ratios), Figures 4–6 (average access
//!   time vs. first-level slow-down), Tables 8–10 (split vs unified first
//!   level) and Tables 11–13 (coherence messages to the first level), plus
//!   the Section 2 inclusion-invalidation count.
//!
//! # Example
//!
//! ```
//! use vrcache_sim::system::{HierarchyKind, System};
//! use vrcache::config::HierarchyConfig;
//! use vrcache_trace::presets::TracePreset;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = TracePreset::Pops.generate_scaled(0.005);
//! let cfg = HierarchyConfig::direct_mapped(4 * 1024, 64 * 1024, 16)?;
//! let mut sys = System::new(HierarchyKind::Vr, trace.cpus(), &cfg);
//! let run = sys.run_trace(&trace)?;
//! assert!(run.h1 > 0.5, "h1 = {}", run.h1);
//! # Ok(())
//! # }
//! ```

pub mod experiments;
pub mod machine;
pub mod report;
pub mod snoop;
pub mod system;

pub use machine::{Machine, Org};
pub use report::TableReport;
pub use system::{HierarchyKind, RunSummary, SimError, System};
