//! # strata-stats — small statistics and reporting toolkit
//!
//! Every experiment behind `strata bench` renders its table or figure
//! through this crate so the output format is uniform: aligned text for the
//! terminal plus CSV for post-processing. "Figures" are rendered as data
//! tables (one row per x-value, one column per series) — the shape of the
//! curve is what the reproduction compares against the paper.
//!
//! ```
//! use strata_stats::Table;
//! let mut t = Table::new("demo", &["benchmark", "slowdown"]);
//! t.row(["gzip", "1.43"]);
//! t.row(["perlbmk", "3.90"]);
//! let text = t.render_text();
//! assert!(text.contains("perlbmk"));
//! ```

pub mod baseline;
pub mod json;
pub mod rng;
mod sampling;
mod summary;
mod table;

pub use baseline::{diff, Delta, DeltaReport, Snapshot};
pub use json::Json;
pub use sampling::{stratified_estimate, weighted_mean, Estimate, Stratum};
pub use summary::{geomean, mean, ratio};
pub use table::Table;
