//! Figure 6 — the flags save/restore tax. IBTC lookup code compares the
//! branch target against a tag, clobbering the application's flags; a
//! safe SDT must save and restore them around every lookup. On x86 that
//! means a costly `pushf`/`popf` pair; on SPARC-like machines condition
//! codes are cheap to preserve. `FlagsPolicy::None` models an SDT whose
//! liveness analysis proved the flags dead across the branch.

use strata_arch::ArchProfile;
use strata_core::{FlagsPolicy, SdtConfig};
use strata_stats::{geomean, Table};
use strata_workloads::Params;

use super::{fx, grid, names, Output};
use crate::cell::CellKey;
use crate::view::View;

fn configs() -> (SdtConfig, SdtConfig) {
    let with = SdtConfig::ibtc_inline(4096);
    let mut without = with;
    without.flags = FlagsPolicy::None;
    (with, without)
}

/// Cells: flags-save and flags-none on every benchmark, x86- and
/// sparc-like.
pub fn cells(params: Params) -> Vec<CellKey> {
    let (with, without) = configs();
    grid(
        &[with, without],
        &[ArchProfile::x86_like(), ArchProfile::sparc_like()],
        params,
    )
}

/// Renders Figure 6.
pub fn render(view: &View) -> Result<Output, String> {
    let (with, without) = configs();
    let mut t = Table::new(
        "Fig. 6: flags save/restore tax on IBTC dispatch (4096 entries)",
        &[
            "benchmark",
            "x86 save",
            "x86 none",
            "x86 tax",
            "sparc save",
            "sparc none",
            "sparc tax",
        ],
    );
    let mut tax_x86 = Vec::new();
    let mut tax_sparc = Vec::new();
    for name in names() {
        let mut cells = vec![name.to_string()];
        for profile in [ArchProfile::x86_like(), ArchProfile::sparc_like()] {
            let native = view.native(name, &profile).total_cycles;
            let a = view.translated(name, with, &profile).slowdown(native);
            let b = view.translated(name, without, &profile).slowdown(native);
            let tax = a / b;
            if profile.name == "x86-like" {
                tax_x86.push(tax);
            } else {
                tax_sparc.push(tax);
            }
            cells.push(fx(a));
            cells.push(fx(b));
            cells.push(format!("{:+.1}%", (tax - 1.0) * 100.0));
        }
        t.row(cells);
    }
    let mut out = Output::default();
    out.table(t);
    out.note(format!(
        "geomean flags tax: x86-like {:+.1}%, sparc-like {:+.1}%",
        (geomean(tax_x86).expect("nonempty") - 1.0) * 100.0,
        (geomean(tax_sparc).expect("nonempty") - 1.0) * 100.0,
    ));
    out.note(
        "Reading: the pushf/popf pair is a real tax on the x86-like profile and\n\
         noise on sparc-like — one of the paper's architecture-dependence levers.",
    );
    Ok(out)
}
