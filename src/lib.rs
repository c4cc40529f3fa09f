//! # cachegc — Cache Performance of Garbage-Collected Programs
//!
//! A from-scratch reproduction of Mark B. Reinhold's PLDI 1994 study
//! *Cache Performance of Garbage-Collected Programs*: a small Scheme system
//! with linear heap allocation, a family of garbage collectors, a
//! trace-driven direct-mapped cache simulator with the paper's timing model,
//! and the behavioral analyses of the paper's §7.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`trace`] — data-reference events, sinks, instruction accounting.
//! * [`sim`] — the cache simulator and the Przybylski timing model.
//! * [`heap`] — the tagged object model, memory spaces, linear allocator.
//! * [`gc`] — Cheney semispace and generational compacting collectors.
//! * [`vm`] — the Scheme reader, bytecode compiler, and virtual machine.
//! * [`workloads`] — the five test programs and synthetic trace generators.
//! * [`analysis`] — block lifetimes, allocation cycles, cache activity.
//! * [`core`] — the experiment harness: overheads, runs, report tables.
//! * [`telemetry`] — counters, phase timers, and engine observability.
//!
//! ## Quickstart
//!
//! ```
//! use cachegc::core::{ExperimentConfig, Runner};
//! use cachegc::workloads::Workload;
//!
//! # fn main() -> Result<(), cachegc::vm::VmError> {
//! let report = Runner::sequential().control(
//!     Workload::Rewrite.scaled(1),
//!     &ExperimentConfig::quick(),
//! )?;
//! assert!(report.refs > 0);
//! # Ok(())
//! # }
//! ```

pub mod testkit;

pub use cachegc_analysis as analysis;
pub use cachegc_core as core;
pub use cachegc_gc as gc;
pub use cachegc_heap as heap;
pub use cachegc_sim as sim;
pub use cachegc_telemetry as telemetry;
pub use cachegc_trace as trace;
pub use cachegc_vm as vm;
pub use cachegc_workloads as workloads;
