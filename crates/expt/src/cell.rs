//! Cells — the unit of simulation work.
//!
//! A [`CellKey`] names one run: a workload, a kind (native baseline or
//! translated under some [`SdtConfig`]), an [`ArchProfile`], and workload
//! [`Params`]. Every experiment expands into a set of cells; the
//! orchestrator dedupes them by key so each unique cell is simulated
//! exactly once per suite run.
//!
//! The memoization key is the *full* rendered [`CellKey::key_string`] —
//! collision-free by construction, because `SdtConfig::describe()` spells
//! out every configuration field and profile names are unique. The FNV-1a
//! hash is used only to derive short on-disk cache file names, and disk
//! entries embed the full key string so a hash collision degrades to a
//! recompute, never to a wrong result.

use strata_arch::ArchProfile;
use strata_core::{NativeRun, RunReport, SdtConfig};
use strata_trace::fnv1a64;
use strata_workloads::Params;

/// What kind of run a cell is.
#[derive(Debug, Clone, PartialEq)]
pub enum RunKind {
    /// Untranslated execution under the architecture model — the baseline
    /// every slowdown is computed against.
    Native,
    /// Execution under the SDT with the given configuration.
    Translated(SdtConfig),
}

/// Names one unit of simulation work.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// Workload name from the `strata-workloads` registry.
    pub workload: &'static str,
    /// Native baseline or translated configuration.
    pub kind: RunKind,
    /// Architecture cost model.
    pub profile: ArchProfile,
    /// Workload scale and variant.
    pub params: Params,
}

impl CellKey {
    /// A native-baseline cell.
    pub fn native(workload: &'static str, profile: ArchProfile, params: Params) -> CellKey {
        CellKey {
            workload,
            kind: RunKind::Native,
            profile,
            params,
        }
    }

    /// A translated cell.
    pub fn translated(
        workload: &'static str,
        cfg: SdtConfig,
        profile: ArchProfile,
        params: Params,
    ) -> CellKey {
        CellKey {
            workload,
            kind: RunKind::Translated(cfg),
            profile,
            params,
        }
    }

    /// The native counterpart of this cell (identity for native cells).
    pub fn native_counterpart(&self) -> CellKey {
        CellKey::native(self.workload, self.profile.clone(), self.params)
    }

    /// The stable, collision-free memoization key.
    ///
    /// `SdtConfig::describe()` covers every configuration field, so two
    /// distinct configurations always render distinct strings.
    pub fn key_string(&self) -> String {
        format!(
            "{}|{}|{}|s{}v{}",
            self.workload,
            self.kind_label(),
            self.profile.name,
            self.params.scale,
            self.params.variant
        )
    }

    /// The key of this cell's execution: the key string without the
    /// profile. Cells that differ only in profile run the same guest
    /// instructions through the same translator, so one execution priced
    /// under each profile serves them all.
    pub(crate) fn execution_key(&self) -> String {
        let (workload, kind) = (self.workload, self.kind_label());
        let (scale, variant) = (self.params.scale, self.params.variant);
        format!("{workload}|{kind}|s{scale}v{variant}")
    }

    /// The key of this cell's size class: its execution key with every
    /// fixed-table size erased ([`SdtConfig::size_class`]). The exact
    /// translated executions of one class may serve one another (see
    /// [`strata_core::Sdt::serves`]); a native's class is its execution.
    pub(crate) fn class_key(&self) -> String {
        let kind = match &self.kind {
            RunKind::Native => RunKind::Native,
            RunKind::Translated(cfg) => RunKind::Translated(cfg.size_class()),
        };
        let erased = CellKey {
            kind,
            ..self.clone()
        };
        erased.execution_key()
    }

    fn kind_label(&self) -> String {
        match &self.kind {
            RunKind::Native => "native".to_string(),
            RunKind::Translated(cfg) => format!("sdt:{}", cfg.describe()),
        }
    }

    /// File name for the on-disk cell cache (hash of the key string).
    pub fn cache_file_name(&self) -> String {
        format!("{:016x}.cell", fnv1a64(self.key_string().as_bytes()))
    }
}

/// The step of a cell's computation that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// An exact run was asked for a scale only sampled mode runs.
    Scale,
    /// Building the workload's program: no such workload.
    Build,
    /// The native run, or a translated cell's native baseline.
    Native,
    /// Constructing the translator: a configuration `Sdt::new` refuses.
    Translate,
    /// The translated run.
    Run,
    /// The translated run's checksum differs from the native one.
    Checksum,
    /// Sampled mode: loading the trace bundle or estimating from it.
    Estimate,
}

/// A stage is named by its variant, lowercased: `build`, `checksum`, ….
impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        f.write_str(&format!("{self:?}").to_lowercase())
    }
}

impl Stage {
    /// The stage a record or message names, if any.
    pub fn parse(name: &str) -> Option<Stage> {
        use Stage::*;
        let all = [Scale, Build, Native, Translate, Run, Checksum, Estimate];
        all.into_iter().find(|s| s.to_string() == name)
    }
}

/// The outcome of one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellResult {
    /// Outcome of a native run.
    Native(NativeRun),
    /// Outcome of a translated run.
    Translated(Box<RunReport>),
    /// A cell that could not be computed. Memoized like any result, so
    /// it is computed once, but never persisted.
    Failed {
        /// Where the computation stopped.
        stage: Stage,
        /// Why.
        error: String,
    },
}

impl CellResult {
    /// The native run, if this is a native cell.
    pub fn as_native(&self) -> Option<&NativeRun> {
        match self {
            CellResult::Native(n) => Some(n),
            _ => None,
        }
    }

    /// The translated report, if this is a translated cell.
    pub fn as_translated(&self) -> Option<&RunReport> {
        match self {
            CellResult::Translated(r) => Some(r),
            _ => None,
        }
    }

    /// Where and why the cell failed, if it did.
    pub fn as_failed(&self) -> Option<(Stage, &str)> {
        match self {
            CellResult::Failed { stage, error } => Some((*stage, error)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_strings_distinguish_every_component() {
        let x86 = ArchProfile::x86_like();
        let p = Params::default();
        let a = CellKey::native("gzip", x86.clone(), p);
        let b = CellKey::native("gcc", x86.clone(), p);
        let c = CellKey::native("gzip", ArchProfile::mips_like(), p);
        let d = CellKey::native(
            "gzip",
            x86.clone(),
            Params {
                scale: 2,
                variant: 0,
            },
        );
        let e = CellKey::native(
            "gzip",
            x86.clone(),
            Params {
                scale: 1,
                variant: 3,
            },
        );
        let f = CellKey::translated("gzip", SdtConfig::ibtc_inline(64), x86.clone(), p);
        let g = CellKey::translated("gzip", SdtConfig::ibtc_inline(128), x86, p);
        let keys: Vec<String> = [&a, &b, &c, &d, &e, &f, &g]
            .iter()
            .map(|k| k.key_string())
            .collect();
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "all keys distinct: {keys:?}");
    }
}
