//! Figure 3 — where the cycles go: per-benchmark breakdown of translated
//! execution into application work, IB dispatch code, context switches,
//! trampolines/call glue, and host-side translator time. Shown for the
//! re-entry baseline (context-switch dominated) and for a tuned IBTC
//! (dispatch-code dominated) to expose the shift the paper describes.

use strata_arch::ArchProfile;
use strata_core::{Origin, SdtConfig};
use strata_stats::Table;
use strata_workloads::Params;

use super::{grid, names, Output};
use crate::cell::CellKey;
use crate::view::View;

fn configs() -> [SdtConfig; 2] {
    [SdtConfig::reentry(), SdtConfig::tuned(4096, 1024)]
}

/// Cells: re-entry and tuned configurations on every benchmark, x86-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    grid(&configs(), &[ArchProfile::x86_like()], params)
}

fn breakdown(view: &View, cfg: SdtConfig, title: &str) -> Table {
    let x86 = ArchProfile::x86_like();
    let mut t = Table::new(
        title,
        &[
            "benchmark",
            "app%",
            "dispatch%",
            "ctx-switch%",
            "tramp+glue%",
            "translator%",
        ],
    );
    for name in names() {
        let r = view.translated(name, cfg, &x86);
        let total = r.total_cycles as f64;
        let p = |c: u64| format!("{:.1}", c as f64 * 100.0 / total);
        t.row([
            name.to_string(),
            p(r.cycles_for(Origin::App)),
            p(r.cycles_for(Origin::Dispatch)),
            p(r.cycles_for(Origin::ContextSwitch)),
            p(r.cycles_for(Origin::Trampoline) + r.cycles_for(Origin::CallGlue)),
            p(r.translator_cycles),
        ]);
    }
    t
}

/// Renders Figure 3.
pub fn render(view: &View) -> Result<Output, String> {
    let [reentry, tuned] = configs();
    let mut out = Output::default();
    out.table(breakdown(
        view,
        reentry,
        "Fig. 3a: cycle breakdown under translator re-entry (x86-like)",
    ));
    out.table(breakdown(
        view,
        tuned,
        "Fig. 3b: cycle breakdown under inlined IBTC + return cache (x86-like)",
    ));
    out.note(
        "Reading: under re-entry the context switch + translator columns dominate on\n\
         IB-dense benchmarks; the tuned configuration converts nearly all of that\n\
         into (much cheaper) in-cache dispatch code.",
    );
    Ok(out)
}
