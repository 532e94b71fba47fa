//! Table 2 — best configuration per architecture: a grid search over IB
//! mechanism × size/placement × return mechanism, ranked by geometric-mean
//! slowdown on each architecture profile.

use strata_arch::ArchProfile;
use strata_core::{RetMechanism, SdtConfig};
use strata_stats::Table;
use strata_workloads::Params;

use super::{fx, grid, Output};
use crate::cell::CellKey;
use crate::view::View;

fn config_grid() -> Vec<SdtConfig> {
    let ib_choices = [
        SdtConfig::ibtc_inline(1024),
        SdtConfig::ibtc_inline(4096),
        SdtConfig::ibtc_inline(16384),
        SdtConfig::ibtc_out_of_line(4096),
        SdtConfig::sieve(4096),
        SdtConfig::sieve(16384),
    ];
    let ret_choices = [
        RetMechanism::AsIb,
        RetMechanism::ReturnCache { entries: 1024 },
        RetMechanism::FastReturn,
    ];
    let mut out = Vec::new();
    for ib in ib_choices {
        for ret in ret_choices {
            let mut cfg = ib;
            cfg.ret = ret;
            out.push(cfg);
        }
    }
    out
}

/// Cells: the 18-configuration grid on every benchmark under all three
/// profiles — the largest job in the suite.
pub fn cells(params: Params) -> Vec<CellKey> {
    grid(&config_grid(), &ArchProfile::all(), params)
}

/// Renders Table 2.
pub fn render(view: &View) -> Result<Output, String> {
    let mut t = Table::new(
        "Table 2: best configuration per architecture (grid of 18 configs)",
        &["architecture", "rank", "configuration", "geomean slowdown"],
    );
    for profile in ArchProfile::all() {
        let mut scored: Vec<(SdtConfig, f64)> = config_grid()
            .into_iter()
            .map(|cfg| (cfg, view.geomean_slowdown(cfg, &profile)))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (rank, (cfg, g)) in scored.iter().take(3).enumerate() {
            t.row([
                if rank == 0 {
                    profile.name.to_string()
                } else {
                    String::new()
                },
                (rank + 1).to_string(),
                cfg.describe(),
                fx(*g),
            ]);
        }
        let worst = scored.last().expect("grid nonempty");
        t.row([
            String::new(),
            "worst".to_string(),
            worst.0.describe(),
            fx(worst.1),
        ]);
    }
    let mut out = Output::default();
    out.table(t).note(
        "Reading: the winning size/placement/return combination differs across\n\
         profiles — choosing (and sizing) the IB mechanism per target architecture\n\
         is what the paper recommends SDT implementers do.",
    );
    Ok(out)
}
