//! Host-speed benchmark of the vrcache simulator. `run.py` in this
//! directory drives it; this crate supplies the in-process workloads and
//! the traced pass (see README.md).

#![forbid(unsafe_code)]

pub mod replay;
pub mod timed;
