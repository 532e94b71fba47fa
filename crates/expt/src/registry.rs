//! The experiment registry — one entry per DESIGN.md experiment, binding
//! a stable id to its cell expansion and its render pass.

use strata_workloads::Params;

use crate::cell::CellKey;
use crate::experiments::{self, Output};
use crate::view::View;

/// One registered experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Stable short id (`table1`, `fig2`, …) used by `--filter` and as
    /// the `results/<id>.json` file stem.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Expands the experiment into simulation cells.
    pub cells: fn(Params) -> Vec<CellKey>,
    /// Renders tables + notes from memoized cells, or says why it cannot.
    pub render: fn(&View) -> Result<Output, String>,
}

macro_rules! experiment {
    ($id:literal, $module:ident, $title:literal) => {
        Experiment {
            id: $id,
            title: $title,
            cells: experiments::$module::cells,
            render: experiments::$module::render,
        }
    };
}

/// Every experiment, in DESIGN.md presentation order.
pub fn registry() -> &'static [Experiment] {
    static REGISTRY: &[Experiment] = &[
        experiment!(
            "table1",
            table1_ib_characteristics,
            "Dynamic indirect-branch characteristics per benchmark"
        ),
        experiment!(
            "fig2",
            fig2_baseline_overhead,
            "Baseline slowdown under translator re-entry"
        ),
        experiment!(
            "fig3",
            fig3_overhead_breakdown,
            "Cycle breakdown by overhead source"
        ),
        experiment!(
            "fig4",
            fig4_ibtc_size_sweep,
            "Shared inlined IBTC size sweep"
        ),
        experiment!(
            "fig5",
            fig5_ibtc_inline_vs_shared,
            "Inlined vs out-of-line IBTC lookup"
        ),
        experiment!(
            "fig6",
            fig6_flags_policy,
            "Flags save/restore tax on dispatch"
        ),
        experiment!("fig7", fig7_sieve_sweep, "Sieve bucket-count sweep"),
        experiment!(
            "fig8",
            fig8_mechanism_comparison,
            "IB mechanism head-to-head comparison"
        ),
        experiment!("fig9", fig9_return_mechanisms, "Return handling mechanisms"),
        experiment!(
            "fig10",
            fig10_cross_arch,
            "Mechanisms across architecture profiles"
        ),
        experiment!(
            "fig11",
            fig11_ibtc_per_site,
            "Per-site vs shared IBTC tables"
        ),
        experiment!(
            "fig12",
            fig12_cache_pressure,
            "I-cache pressure of inlined lookups"
        ),
        experiment!("fig13", fig13_fragment_linking, "Fragment linking ablation"),
        experiment!("fig14", fig14_cache_size, "Fragment-cache capacity sweep"),
        experiment!("fig15", fig15_jump_elision, "Direct-jump elision ablation"),
        experiment!("fig16", fig16_ibtc_assoc, "IBTC associativity ablation"),
        experiment!(
            "fig17",
            fig17_workload_sensitivity,
            "Sensitivity across generated workload instances"
        ),
        experiment!(
            "fig18",
            fig18_mixed_policy,
            "Mixed per-class dispatch policies vs single mechanisms"
        ),
        experiment!(
            "fig19",
            fig19_adaptive_policy,
            "Adaptive promotion vs fixed mechanisms"
        ),
        experiment!(
            "fig20",
            fig20_execution_tiers,
            "Execution tiers: threaded-translation wall-clock vs interpreter"
        ),
        experiment!(
            "fig21",
            fig21_sampled_fidelity,
            "Sampled-simulation fidelity: estimates vs exact trace replay"
        ),
        experiment!(
            "fig22",
            fig22_predictor_reranking,
            "Mechanism re-ranking across hardware target-predictor models"
        ),
        experiment!(
            "table2",
            table2_best_config,
            "Best configuration per architecture"
        ),
    ];
    REGISTRY
}

/// Looks an experiment up by id.
pub(crate) fn by_id(id: &str) -> Option<&'static Experiment> {
    registry().iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_lookup_works() {
        let mut ids: Vec<_> = registry().iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 23);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 23, "duplicate experiment ids");
        assert!(by_id("table1").is_some());
        assert!(by_id("fig10").is_some());
        assert!(by_id("fig1").is_none());
    }

    #[test]
    fn every_experiment_expands_to_cells() {
        for e in registry() {
            let cells = (e.cells)(Params::default());
            assert!(!cells.is_empty(), "{} has no cells", e.id);
            // All keys must be distinct within one experiment after the
            // executor's dedup — not required, but expansion should not
            // be wildly redundant: verify keys are well-formed instead.
            for cell in &cells {
                assert!(cell.key_string().contains(cell.workload));
            }
        }
    }
}
