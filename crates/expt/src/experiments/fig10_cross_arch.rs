//! Figure 10 — the cross-architecture evaluation: the same mechanisms,
//! costed under x86-like, SPARC-like, and MIPS-like profiles. The paper's
//! headline: the most efficient mechanism and configuration depend on the
//! underlying architecture's trap cost, flags cost, and indirect-branch
//! prediction hardware.

use strata_arch::ArchProfile;
use strata_core::{RetMechanism, SdtConfig};
use strata_stats::Table;
use strata_workloads::Params;

use super::{fx, grid, Output};
use crate::cell::CellKey;
use crate::view::View;

fn configs() -> [(&'static str, SdtConfig); 6] {
    let mut fast = SdtConfig::ibtc_inline(4096);
    fast.ret = RetMechanism::FastReturn;
    [
        ("reentry", SdtConfig::reentry()),
        ("ibtc-inline", SdtConfig::ibtc_inline(4096)),
        ("ibtc-outline", SdtConfig::ibtc_out_of_line(4096)),
        ("sieve", SdtConfig::sieve(4096)),
        ("ibtc+rc", SdtConfig::tuned(4096, 1024)),
        ("ibtc+fastret", fast),
    ]
}

/// Cells: six mechanisms × every benchmark × all three profiles.
pub fn cells(params: Params) -> Vec<CellKey> {
    let cfgs: Vec<SdtConfig> = configs().iter().map(|(_, c)| *c).collect();
    grid(&cfgs, &ArchProfile::all(), params)
}

/// Renders Figure 10.
pub fn render(view: &View) -> Result<Output, String> {
    let mut t = Table::new(
        "Fig. 10: geomean slowdown by mechanism and architecture",
        &["mechanism", "x86-like", "sparc-like", "mips-like"],
    );
    let mut grid_vals: Vec<(&str, Vec<f64>)> = Vec::new();
    for (label, cfg) in configs() {
        let mut row = vec![label.to_string()];
        let mut vals = Vec::new();
        for profile in ArchProfile::all() {
            let g = view.geomean_slowdown(cfg, &profile);
            vals.push(g);
            row.push(fx(g));
        }
        grid_vals.push((label, vals));
        t.row(row);
    }
    let mut out = Output::default();
    out.table(t);

    // Per-architecture ranking of the in-cache mechanisms.
    for (i, profile) in ArchProfile::all().iter().enumerate() {
        let mut ranked: Vec<(&str, f64)> = grid_vals
            .iter()
            .filter(|(l, _)| *l != "reentry")
            .map(|(l, v)| (*l, v[i]))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        let order: Vec<String> = ranked
            .iter()
            .map(|(l, v)| format!("{l} ({})", fx(*v)))
            .collect();
        out.note(format!(
            "{:<11} ranking: {}",
            profile.name,
            order.join("  >  ")
        ));
    }
    out.note(
        "Reading: re-entry is disproportionately catastrophic on the trap-expensive\n\
         sparc-like profile; the gap between IBTC (whose hits end in an unpredicted\n\
         indirect jump on BTB-less machines) and the sieve (whose hits end in a\n\
         direct jump) narrows or flips off x86 — mechanism choice is\n\
         architecture-dependent, the paper's central claim.",
    );
    Ok(out)
}
