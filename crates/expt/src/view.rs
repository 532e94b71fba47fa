//! Read-side API experiments render from.
//!
//! A [`View`] wraps the shared [`Store`] and the suite's workload
//! [`Params`], exposing the vocabulary experiments are written in
//! (`native`, `translated`, `slowdown`, `geomean_slowdown`).
//! The pool runs a render only once every cell it declares is in the
//! store, so renders are normally pure store lookups that build no
//! program; a cell an experiment forgot to declare is computed on the
//! spot by the rendering worker rather than crashing the suite (a test
//! holds a suite run to simulating exactly its manifest).

use strata_arch::ArchProfile;
use strata_core::{NativeRun, RunReport, SdtConfig};
use strata_stats::{geomean, Table};
use strata_workloads::{registry, Params};

use crate::cell::{CellKey, CellResult};
use crate::context::RunContext;
use crate::exec::cell_result;
use crate::sampled::Bundles;
use crate::store::Store;

/// Accessor for memoized cell results at a fixed parameter point.
pub struct View<'a> {
    store: &'a Store,
    params: Params,
}

impl<'a> View<'a> {
    /// A view of `store` at `params`.
    pub fn new(store: &'a Store, params: Params) -> View<'a> {
        View { store, params }
    }

    /// The suite's workload parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The context the store's results are produced under — what the
    /// renders that simulate on the spot (fig20–22) must match.
    pub fn context(&self) -> &'a RunContext {
        self.store.context()
    }

    /// The run's trace bundles — what the renders that read bundles
    /// (fig21, and fig22 under `--sampled`) read them through.
    pub(crate) fn bundles(&self) -> &'a Bundles {
        self.store.bundles()
    }

    /// Benchmark names in presentation order.
    pub fn names(&self) -> Vec<&'static str> {
        registry().iter().map(|s| s.name).collect()
    }

    /// Native baseline at the view's params.
    pub fn native(&self, name: &'static str, profile: &ArchProfile) -> NativeRun {
        self.native_at(name, profile, self.params)
    }

    /// Native baseline at explicit params (fig17 sweeps variants).
    pub fn native_at(
        &self,
        name: &'static str,
        profile: &ArchProfile,
        params: Params,
    ) -> NativeRun {
        let key = CellKey::native(name, profile.clone(), params);
        let result = cell_result(self.store, &key);
        result
            .as_native()
            .expect("a native key yields a native result; failed cells never reach a render")
            .clone()
    }

    /// Translated run at the view's params.
    pub fn translated(
        &self,
        name: &'static str,
        cfg: SdtConfig,
        profile: &ArchProfile,
    ) -> RunReport {
        self.translated_at(name, cfg, profile, self.params)
    }

    /// Translated run at explicit params.
    pub fn translated_at(
        &self,
        name: &'static str,
        cfg: SdtConfig,
        profile: &ArchProfile,
        params: Params,
    ) -> RunReport {
        let key = CellKey::translated(name, cfg, profile.clone(), params);
        let result = cell_result(self.store, &key);
        result
            .as_translated()
            .expect("a translated key yields a report; failed cells never reach a render")
            .clone()
    }

    /// Slowdown of `cfg` on `name` under `profile`.
    pub fn slowdown(&self, name: &'static str, cfg: SdtConfig, profile: &ArchProfile) -> f64 {
        let native = self.native(name, profile).total_cycles;
        self.translated(name, cfg, profile).slowdown(native)
    }

    /// Geometric-mean slowdown of `cfg` across all benchmarks.
    pub fn geomean_slowdown(&self, cfg: SdtConfig, profile: &ArchProfile) -> f64 {
        geomean(self.names().iter().map(|n| self.slowdown(n, cfg, profile)))
            .expect("nonempty benchmark set")
    }

    /// Every memoized cell's raw metrics as one table, sorted by cell key;
    /// failed cells have none and are left out.
    ///
    /// This is the regression gate's finest-grained surface: the
    /// `cells.json` artifact rendered from it pins `total_cycles` and
    /// dispatch counts per cell, so a drift localized to one
    /// (workload, config, profile) point names itself in the delta report
    /// instead of hiding inside a geomean.
    pub fn cells_table(&self) -> Table {
        let mut t = Table::new(
            "per-cell metrics",
            &[
                "cell",
                "total_cycles",
                "instructions",
                "ib_dispatches",
                "ret_dispatches",
            ],
        );
        for (key, result) in self.store.snapshot() {
            let (cycles, instructions, ib, ret) = match &*result {
                CellResult::Native(n) => {
                    (n.total_cycles, n.instructions, String::new(), String::new())
                }
                CellResult::Translated(r) => (
                    r.total_cycles,
                    r.instructions,
                    r.mech.ib_dispatches.to_string(),
                    r.mech.ret_dispatches.to_string(),
                ),
                // A failed cell has no metrics; the sections reading it
                // say that it failed.
                CellResult::Failed { .. } => continue,
            };
            t.row([key, cycles.to_string(), instructions.to_string(), ib, ret]);
        }
        t
    }
}
