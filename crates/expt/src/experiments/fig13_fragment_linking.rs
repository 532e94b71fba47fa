//! Figure 13 (ablation) — fragment linking. Strata patches direct-branch
//! exits into fragment-to-fragment jumps after their first execution;
//! without linking, *every* taken direct branch pays a full translator
//! crossing. This ablation isolates how much of the SDT's viability comes
//! from linking before any IB mechanism even matters.

use strata_arch::ArchProfile;
use strata_core::SdtConfig;
use strata_stats::{geomean, Table};
use strata_workloads::Params;

use super::{fx, grid, names, Output};
use crate::cell::CellKey;
use crate::view::View;

fn configs() -> (SdtConfig, SdtConfig) {
    let linked = SdtConfig::ibtc_inline(4096);
    let mut unlinked = linked;
    unlinked.link_fragments = false;
    (linked, unlinked)
}

/// Cells: linked and unlinked variants on every benchmark, x86-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    let (linked, unlinked) = configs();
    grid(&[linked, unlinked], &[ArchProfile::x86_like()], params)
}

/// Renders Figure 13.
pub fn render(view: &View) -> Result<Output, String> {
    let x86 = ArchProfile::x86_like();
    let (linked, unlinked) = configs();
    let mut t = Table::new(
        "Fig. 13: fragment linking ablation (IBTC 4096, x86-like)",
        &[
            "benchmark",
            "linked",
            "unlinked",
            "unlinked translator entries",
        ],
    );
    let mut l = Vec::new();
    let mut u = Vec::new();
    for name in names() {
        let native = view.native(name, &x86).total_cycles;
        let rl = view.translated(name, linked, &x86);
        let ru = view.translated(name, unlinked, &x86);
        l.push(rl.slowdown(native));
        u.push(ru.slowdown(native));
        t.row([
            name.to_string(),
            fx(rl.slowdown(native)),
            fx(ru.slowdown(native)),
            ru.mech.translator_entries.to_string(),
        ]);
    }
    t.row([
        "geomean".to_string(),
        fx(geomean(l).expect("nonempty")),
        fx(geomean(u).expect("nonempty")),
        String::new(),
    ]);
    let mut out = Output::default();
    out.table(t).note(
        "Reading: without linking even the loop kernels collapse — every taken\n\
         branch is a context switch. Linking is the table-stakes optimization the\n\
         paper assumes before it starts optimizing indirect branches.",
    );
    Ok(out)
}
