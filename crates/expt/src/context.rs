//! The run context: every setting that changes *which result a cell key
//! names*.
//!
//! A [`CellKey`] spells out workload, configuration, profile and params,
//! but two more axes decide what the number behind it means: whether it
//! was simulated exactly or estimated from a trace ([`Mode`]), and which
//! hardware target-predictor model priced its indirect transfers
//! ([`PredictorSpec`]). A [`RunContext`] carries exactly those two, is
//! owned by the [`Store`](crate::Store), and is the only place their
//! consequences for a result's identity are derived: the store-key
//! namespace and the fleet-handshake fingerprint.
//!
//! Host-only settings — `--jobs`, `--tier`, the cache directory — change
//! how fast a result arrives, never what it is, and stay out.

use std::path::{Path, PathBuf};

use strata_arch::{ArchModel, ArchProfile, PredictorSpec};
use strata_trace::fnv1a64;

use crate::cell::CellKey;

/// Namespace component of estimated (sampled-mode) results.
const SAMPLED_NS: &str = "sampled/";
/// Opens the namespace component of a non-legacy predictor:
/// `pred-<label>/`.
const PREDICTOR_NS: &str = "pred-";

/// How a cell's result is produced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Mode {
    /// Full simulation of every guest instruction.
    #[default]
    Exact,
    /// SimPoint estimation from the reference traces under `traces_dir`
    /// (see [`crate::sampled`]).
    Sampled {
        /// Where reference traces are read from and recorded into.
        traces_dir: PathBuf,
    },
}

/// The identity-changing settings of one run. The default is the exact,
/// legacy-predictor context every committed baseline was produced under.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunContext {
    /// Exact simulation or sampled estimation.
    pub mode: Mode,
    /// The hardware target-predictor model indirect transfers are priced
    /// under.
    pub predictor: PredictorSpec,
}

impl RunContext {
    /// The traces directory when the mode is sampled, `None` when exact.
    pub fn traces_dir(&self) -> Option<&Path> {
        match &self.mode {
            Mode::Exact => None,
            Mode::Sampled { traces_dir } => Some(traces_dir),
        }
    }

    /// A cold cost model for `profile` under this context's predictor.
    pub fn model(&self, profile: ArchProfile) -> ArchModel {
        ArchModel::with_predictor_spec(profile, self.predictor)
    }

    /// The prefix this context's memo entries and disk records are
    /// stored under: `sampled/` in sampled mode, then
    /// `pred-<label>/` for a non-legacy predictor; empty for the default
    /// context, so exact-mode caches from before either axis existed stay
    /// valid. Populations of different contexts share a cache directory
    /// but can never serve each other's cells.
    pub fn namespace(&self) -> String {
        let mut ns = String::new();
        if self.traces_dir().is_some() {
            ns.push_str(SAMPLED_NS);
        }
        if self.predictor != PredictorSpec::Legacy {
            ns.push_str(&format!("{PREDICTOR_NS}{}/", self.predictor.label()));
        }
        ns
    }

    /// A stable fingerprint of a work manifest under this context (FNV-1a
    /// over a mode salt, a predictor salt, then every key string in
    /// order). Coordinator and workers compare fingerprints during the
    /// fleet handshake: a mismatch means the two sides expand different
    /// cell sets (version skew) or would produce different results for
    /// the same keys (a sampled coordinator and an exact worker, or two
    /// predictor models), and the worker refuses the session instead of
    /// mixing result kinds in one store.
    pub fn fingerprint(&self, cells: &[CellKey]) -> u64 {
        let mut joined = String::new();
        if self.traces_dir().is_some() {
            joined.push_str("sampled\n");
        }
        if self.predictor != PredictorSpec::Legacy {
            joined.push_str(&format!("predictor {}\n", self.predictor.label()));
        }
        for cell in cells {
            joined.push_str(&cell.key_string());
            joined.push('\n');
        }
        fnv1a64(joined.as_bytes())
    }
}
