//! Exhaustive small-scope model checker for the V/R coherence and
//! synonym protocol.
//!
//! The checker drives the *real* `vrcache` hierarchies — the same
//! `access` / `context_switch` / `tlb_shootdown` / `snoop` code the
//! trace-driven simulator runs — through **every** interleaving of reads,
//! writes, context switches, and TLB shootdowns over a small fixed scope:
//! 1–3 processors, tiny direct-mapped geometries, two physical pages with
//! deliberately colliding synonym mappings, and a bounded path depth.
//! After every event, every state must satisfy:
//!
//! - the structural invariants of each hierarchy
//!   ([`CacheHierarchy::check_invariants`](vrcache::hierarchy::CacheHierarchy::check_invariants)),
//! - **single-writer**: a block held `private` by one processor is absent
//!   everywhere else,
//! - **value equivalence**: any copy a hierarchy holds of a physical
//!   granule (first level, write buffer, or second level) carries the
//!   newest version per a flat sequentially-consistent oracle.
//!
//! A violation is minimized to a 1-minimal event script and emitted as a
//! standalone `#[test]` for `tests/model_counterexamples.rs`. Duplicate
//! states are folded through a canonical encoding that renames data
//! versions by first appearance, keeping the reachable graph finite.
//! The search keeps only its frontier of unexpanded states plus the
//! exact canonical keys of every state seen.
//!
//! Run it with `cargo run --release -p vrcache-model -- --scope smoke`
//! (one processor, pre-merge gate) or `--scope all` (the full battery).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod batch;
pub mod bfs;
pub mod coverage;
pub mod scope;
pub mod world;

pub use batch::{run_scope_battery, BatteryProgress, ScopeOutcome};
pub use bfs::{replay, run_scope, Counterexample, ScopeReport};
pub use scope::{ModelEvent, Scope, ScopeKind};
pub use world::{ModelHierarchy, Violation, World};
