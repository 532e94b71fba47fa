//! # strata-expt — parallel experiment orchestration with memoized cells
//!
//! The paper's evaluation is a large grid — mechanism × table size ×
//! placement × flags policy × architecture × 12 workloads — and many
//! experiments share simulation work (every figure needs the same native
//! baselines; several share translated configurations). This crate turns
//! each DESIGN.md experiment (`table1` … `fig22`) into a declarative job
//! spec that expands into independent **cells** (workload, [`SdtConfig`],
//! [`ArchProfile`], [`Params`]) and executes the deduplicated cell set on
//! a work-queue scheduler over [`std::thread::scope`]:
//!
//! * **Memoization** — results live in a shared concurrent [`Store`]
//!   keyed by a stable, collision-free content key, so each unique cell
//!   is simulated exactly once per suite run however many experiments
//!   request it. An optional on-disk cache (`results/cache/`) makes
//!   re-runs resumable.
//! * **Shared executions** — cells that differ only in profile run the
//!   guest once, priced under each profile's cost model, and each result
//!   is stored under its own key.
//! * **Determinism** — simulations are pure; parallelism only changes
//!   when results land in the store and when each render runs. Renders
//!   share the worker pool, each starting once the cells it declares are
//!   in, and sections are assembled in registry order, so `--jobs N`
//!   output is byte-identical to `--jobs 1` (a test asserts this).
//! * **Structured results** — every experiment renders aligned text, CSV,
//!   and JSON (via the hand-rolled writer in `strata-stats`), with
//!   per-experiment artifacts written to `results/*.json`.
//!
//! Run the whole suite through the CLI:
//!
//! ```text
//! strata bench --jobs 8                 # everything, parallel
//! strata bench --filter fig4,fig7      # a subset
//! strata bench --format json           # machine-readable stdout
//! strata bench --cache                 # resumable on-disk cell cache
//! ```
//!
//! Exact vs sampled execution and the hardware predictor model — the two
//! settings that change what a cell's result *is* — travel in one
//! [`RunContext`] owned by the [`Store`]; see [`context`].
//!
//! [`SdtConfig`]: strata_core::SdtConfig
//! [`ArchProfile`]: strata_arch::ArchProfile
//! [`Params`]: strata_workloads::Params
//! [`Store`]: store::Store

pub mod cell;
pub mod context;
pub mod exec;
pub mod experiments;
mod fsutil;
pub mod registry;
pub mod sampled;
pub mod store;
pub mod suite;
pub mod view;

pub use cell::{CellKey, CellResult, RunKind, Stage};
pub use context::{Mode, RunContext};
pub use exec::{execute, set_exec_tier, FUEL};
pub use experiments::Output;
pub use registry::{registry, Experiment};
pub use sampled::{SampledCell, DEFAULT_TRACES_DIR};
pub use store::{parse_record, render_record, ExecutionStats, Store, StoreStats};
/// The workspace's one FNV-1a 64 (defined beside the trace checksums).
pub use strata_trace::fnv1a64;
pub use suite::{
    baseline_gate, render_from_store, run_suite, select, validate_filter, work_manifest,
    write_artifacts, OutputFormat, SuiteOptions, SuiteReport,
};
pub use view::View;
