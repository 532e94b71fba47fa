//! # strata-lab — reproduction of “Evaluating Indirect Branch Handling
//! Mechanisms in Software Dynamic Translation Systems” (CGO 2007)
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`isa`] — the SimRISC guest instruction set,
//! * [`asm`] — assembler and code builder,
//! * [`machine`] — the simulated machine (memory, CPU, observers),
//! * [`arch`] — microarchitecture cost models (x86-like, SPARC-like,
//!   MIPS-like),
//! * [`core`] — the software dynamic translator with pluggable
//!   indirect-branch handling mechanisms (the paper's subject),
//! * [`analysis`] — `strata verify`: static CFG + dataflow checker over
//!   the emitted fragment cache,
//! * [`workloads`] — SPEC CINT2000 stand-in programs,
//! * [`stats`] — tables/series for the experiment binaries,
//! * [`expt`] — the parallel experiment orchestrator behind `strata bench`,
//! * [`trace`] — compressed retire-trace recording plus BBV/SimPoint
//!   phase analysis, the substrate of `strata trace` and `bench --sampled`,
//! * [`fleet`] — the coordinator/worker pair behind `strata fleet`, for
//!   spreading a suite run across machines over TCP.
//!
//! See `examples/quickstart.rs` for a end-to-end tour and
//! `strata bench --filter <id>` for regenerating each table and figure of
//! the paper.

pub mod cli;

pub use strata_analysis as analysis;
pub use strata_arch as arch;
pub use strata_asm as asm;
pub use strata_core as core;
pub use strata_expt as expt;
pub use strata_fleet as fleet;
pub use strata_isa as isa;
pub use strata_machine as machine;
pub use strata_stats as stats;
pub use strata_trace as trace;
pub use strata_workloads as workloads;
