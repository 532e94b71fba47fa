//! One module per DESIGN.md experiment (`table1` … `fig22`).
//!
//! Each module exports `cells(params)` — the simulation cells the
//! experiment needs, expanded for the parallel executor — and
//! `render(view)` — the pure read-side pass that turns memoized cells
//! into tables and reading notes, or returns why it cannot. The registry in [`crate::registry`](mod@crate::registry)
//! binds them to stable experiment ids.

pub mod fig10_cross_arch;
pub mod fig11_ibtc_per_site;
pub mod fig12_cache_pressure;
pub mod fig13_fragment_linking;
pub mod fig14_cache_size;
pub mod fig15_jump_elision;
pub mod fig16_ibtc_assoc;
pub mod fig17_workload_sensitivity;
pub mod fig18_mixed_policy;
pub mod fig19_adaptive_policy;
pub mod fig20_execution_tiers;
pub mod fig21_sampled_fidelity;
pub mod fig22_predictor_reranking;
pub mod fig2_baseline_overhead;
pub mod fig3_overhead_breakdown;
pub mod fig4_ibtc_size_sweep;
pub mod fig5_ibtc_inline_vs_shared;
pub mod fig6_flags_policy;
pub mod fig7_sieve_sweep;
pub mod fig8_mechanism_comparison;
pub mod fig9_return_mechanisms;
pub mod table1_ib_characteristics;
pub mod table2_best_config;

use strata_arch::ArchProfile;
use strata_core::SdtConfig;
use strata_stats::Table;
use strata_workloads::{registry, Params};

use crate::cell::CellKey;

/// What one experiment produces: tables plus free-form reading notes.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// Result tables in presentation order.
    pub tables: Vec<Table>,
    /// Interpretation notes printed after the tables.
    pub notes: Vec<String>,
}

impl Output {
    /// Adds a table.
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Adds a note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }
}

/// Formats a slowdown as `1.234x`.
pub fn fx(v: f64) -> String {
    format!("{v:.3}x")
}

/// Formats a rate as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Benchmark names in presentation order.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|s| s.name).collect()
}

/// Translated cells for every benchmark under each (config, profile) pair.
pub fn grid(configs: &[SdtConfig], profiles: &[ArchProfile], params: Params) -> Vec<CellKey> {
    let mut cells = Vec::new();
    for profile in profiles {
        for cfg in configs {
            for name in names() {
                cells.push(CellKey::translated(name, *cfg, profile.clone(), params));
            }
        }
    }
    cells
}

/// Native cells for every benchmark under each profile.
pub fn natives(profiles: &[ArchProfile], params: Params) -> Vec<CellKey> {
    let mut cells = Vec::new();
    for profile in profiles {
        for name in names() {
            cells.push(CellKey::native(name, profile.clone(), params));
        }
    }
    cells
}
