//! The scenario-pipeline benchmark's library half: the workload table,
//! the traced composition of the scenario pipeline, per-layer
//! accounting, and the correctness gate.
//!
//! The timing driver is `benches/pipeline.rs`. Everything here takes
//! its clock as an argument ([`trace::Clock`]), so the accounting is
//! testable on a synthetic clock and this library never reads the wall
//! clock itself.

#![forbid(unsafe_code)]

pub mod compose;
pub mod gate;
pub mod metrics;
pub mod trace;
pub mod workload;
