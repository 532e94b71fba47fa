//! Figure 2 — baseline SDT slowdown when every indirect branch re-enters
//! the translator (full context switch + fragment-map lookup). The
//! paper's starting point: IB handling dominates SDT overhead.

use strata_arch::ArchProfile;
use strata_core::SdtConfig;
use strata_stats::{geomean, Table};
use strata_workloads::Params;

use super::{fx, grid, names, Output};
use crate::cell::CellKey;
use crate::view::View;

/// Cells: the re-entry configuration on every benchmark, x86-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    grid(&[SdtConfig::reentry()], &[ArchProfile::x86_like()], params)
}

/// Renders Figure 2.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let mut t = Table::new(
        "Fig. 2: slowdown vs native with translator re-entry for all IBs (x86-like)",
        &[
            "benchmark",
            "slowdown",
            "IB dispatches",
            "translator entries",
        ],
    );
    let mut slowdowns = Vec::new();
    for name in names() {
        let native = view.native(name, &x86).total_cycles;
        let r = view.translated(name, SdtConfig::reentry(), &x86);
        let s = r.slowdown(native);
        slowdowns.push(s);
        t.row([
            name.to_string(),
            fx(s),
            (r.mech.ib_dispatches + r.mech.ret_dispatches).to_string(),
            r.mech.translator_entries.to_string(),
        ]);
    }
    t.row([
        "geomean".to_string(),
        fx(geomean(slowdowns.iter().copied()).expect("nonempty")),
        String::new(),
        String::new(),
    ]);
    let mut out = Output::default();
    out.table(t).note(
        "Reading: IB-dense benchmarks suffer multi-x slowdowns under re-entry while\n\
         the loop kernels stay near native — IB handling is the dominant overhead.",
    );
    Ok(out)
}
